//! The candidate-evaluation pool every tuning run evaluates on.
//!
//! [`Tuner::tune`](crate::Tuner::tune) hands its candidates to a
//! [`SearchExecutor`]: the process-wide [`SearchExecutor::global`] (one
//! worker per CPU, capped at 16), unless the tuner was pinned to another with
//! [`Tuner::with_executor`](crate::Tuner::with_executor). Every search in a
//! process therefore shares one warm pool: back-to-back searches (`reproduce
//! --tune`, the daemon's cold misses) skip the thread spawn, and concurrent
//! searches interleave their evaluation batches job-by-job on the same
//! workers instead of stacking pools. Concurrency is bounded by whoever
//! starts the searches (the daemon's request pool), not by the executor.
//!
//! # Determinism
//!
//! The executor changes *where* candidates are evaluated, never *what* the
//! search observes: results land in a slot per candidate, and the tuner
//! merges them in candidate order. A search is bit-identical on any pool,
//! whatever its thread count and however many other searches share it (see
//! the `executor_parity` integration test).
//!
//! # Safety
//!
//! Worker threads outlive any single `tune()` call, so jobs cannot borrow the
//! caller's oracle through safe lifetimes. Instead [`SearchExecutor::run_batch`]
//! erases the oracle borrow to a raw pointer and enforces the lifetime
//! dynamically: it does not return until every job of the batch has completed,
//! and a job's completion is signalled only after its last use of the oracle.
//! Jobs never migrate between batches, so no worker can touch the pointer
//! after `run_batch` returns and the borrow ends.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use tilelink::{OverlapConfig, TileLinkError};
use tilelink_probe::metrics::{TUNE_EVAL_US, TUNE_EXECUTOR_QUEUE_DEPTH, TUNE_EXECUTOR_REUSES};

use crate::{BoundedEval, CostOracle};

/// A lifetime-erased `&dyn CostOracle`. See the module-level safety notes:
/// the pointee is guaranteed live for as long as any job holding this pointer
/// exists, because [`SearchExecutor::run_batch`] blocks until the batch
/// drains.
#[derive(Clone, Copy)]
struct OraclePtr(*const (dyn CostOracle + 'static));

// The pointer is only ever dereferenced to a `&dyn CostOracle`, and
// `CostOracle: Sync` guarantees shared references are usable from any thread.
unsafe impl Send for OraclePtr {}
unsafe impl Sync for OraclePtr {}

impl OraclePtr {
    fn erase(oracle: &dyn CostOracle) -> Self {
        // SAFETY: lifetime erasure only — the batch barrier in `run_batch`
        // guarantees no job outlives the borrow this pointer was made from.
        Self(unsafe {
            std::mem::transmute::<*const (dyn CostOracle + '_), *const (dyn CostOracle + 'static)>(
                oracle as *const dyn CostOracle,
            )
        })
    }
}

/// One queued candidate evaluation.
struct Job {
    batch: Arc<Batch>,
    idx: usize,
    cfg: OverlapConfig,
    oracle: OraclePtr,
}

/// Completion state of one [`SearchExecutor::run_batch`] call.
struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
    /// The submitting search's incumbent-best cutoff as `f64` bits, loaded
    /// per job. The tuner only updates it between batches (single-threaded
    /// merge), so every job of one batch observes the same value — and
    /// batches of concurrent searches each carry their own.
    cutoff: Arc<AtomicU64>,
}

struct BatchState {
    results: Vec<Option<tilelink::Result<BoundedEval>>>,
    outstanding: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// The worker threads: none until the first search starts.
    workers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<QueueState>,
    /// Workers park here between jobs.
    work: Condvar,
}

/// A persistent evaluation worker pool shared by every search it runs.
///
/// Searches evaluate on [`SearchExecutor::global`] unless their tuner is
/// pinned to another pool with
/// [`Tuner::with_executor`](crate::Tuner::with_executor) (tests pin thread
/// counts that way, with [`SearchExecutor::with_threads`]). Workers are
/// spawned by the first search and reused by every later one — the
/// `tune.executor.reuses` counter tracks exactly that.
pub struct SearchExecutor {
    threads: usize,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SearchExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchExecutor")
            .field("threads", &self.threads)
            .finish()
    }
}

impl SearchExecutor {
    /// Creates an executor with exactly `threads` workers (minimum 1). No
    /// threads are spawned until its first search starts.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            inner: Arc::new(Inner {
                queue: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    workers: Vec::new(),
                    shutdown: false,
                }),
                work: Condvar::new(),
            }),
        }
    }

    /// The process-wide executor, with one worker per available CPU (capped
    /// at 16). Every search evaluates on it unless its tuner is pinned to
    /// another with [`Tuner::with_executor`](crate::Tuner::with_executor).
    pub fn global() -> Arc<SearchExecutor> {
        static GLOBAL: OnceLock<Arc<SearchExecutor>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
                Arc::new(SearchExecutor::with_threads(cpus.min(16)))
            })
            .clone()
    }

    /// Number of worker threads this executor runs once warm.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Starts one search on this pool: the first search spawns the workers,
    /// and every later one finds them warm and increments
    /// `tune.executor.reuses`. Must precede the search's first
    /// [`SearchExecutor::run_batch`].
    pub(crate) fn start_search(&self) {
        let mut st = self.inner.queue.lock().expect("executor queue poisoned");
        if !st.workers.is_empty() {
            TUNE_EXECUTOR_REUSES.inc();
            return;
        }
        for _ in 0..self.threads {
            let inner = Arc::clone(&self.inner);
            st.workers.push(
                std::thread::Builder::new()
                    .name("tune-executor".to_string())
                    .spawn(move || worker(&inner))
                    .expect("spawn executor worker"),
            );
        }
    }

    /// Evaluates `misses` under the cutoff in `cutoff` (`f64` bits) and
    /// returns the results in candidate order, blocking until every one is
    /// in. Batches of concurrent searches interleave job-by-job (FIFO) on
    /// the shared workers. A batch of at most one miss, or any
    /// batch on a one-worker pool, runs on the calling thread instead (its
    /// scratch is warm too, and a pool round-trip buys no parallelism).
    /// Either way a panicking oracle fails its candidate, not the search.
    pub(crate) fn run_batch(
        &self,
        oracle: &dyn CostOracle,
        misses: &[OverlapConfig],
        cutoff: &Arc<AtomicU64>,
    ) -> Vec<tilelink::Result<BoundedEval>> {
        if self.threads.min(misses.len()) <= 1 {
            let cutoff = f64::from_bits(cutoff.load(Ordering::Relaxed));
            return misses
                .iter()
                .map(|cfg| guarded_eval(oracle, cfg, cutoff))
                .collect();
        }
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                results: vec![None; misses.len()],
                outstanding: misses.len(),
            }),
            done: Condvar::new(),
            cutoff: Arc::clone(cutoff),
        });
        let oracle = OraclePtr::erase(oracle);
        {
            let mut st = self.inner.queue.lock().expect("executor queue poisoned");
            for (idx, &cfg) in misses.iter().enumerate() {
                st.jobs.push_back(Job {
                    batch: Arc::clone(&batch),
                    idx,
                    cfg,
                    oracle,
                });
            }
            TUNE_EXECUTOR_QUEUE_DEPTH.set(st.jobs.len() as i64);
        }
        self.inner.work.notify_all();

        // The barrier that makes `OraclePtr` sound: do not return (ending the
        // oracle borrow) until every job of this batch has completed.
        let mut bs = batch.state.lock().expect("executor batch poisoned");
        while bs.outstanding > 0 {
            bs = batch.done.wait(bs).expect("executor batch poisoned");
        }
        std::mem::take(&mut bs.results)
            .into_iter()
            .map(|slot| slot.expect("every job fills its slot"))
            .collect()
    }
}

/// One timed, profiled oracle call under the incumbent cutoff. The span lands
/// on whichever thread ran it (the profiler keeps per-thread stacks). A
/// panicking oracle must neither kill a shared worker (the pool would
/// silently shrink for every later search) nor wedge the batch barrier or
/// unwind through the search: it surfaces as a failed candidate instead.
fn guarded_eval(
    oracle: &dyn CostOracle,
    cfg: &OverlapConfig,
    cutoff: f64,
) -> tilelink::Result<BoundedEval> {
    catch_unwind(AssertUnwindSafe(|| {
        let _span = tilelink_probe::span("tune.candidate");
        let t0 = Instant::now();
        let r = oracle.evaluate_bounded(cfg, cutoff);
        TUNE_EVAL_US.record(t0.elapsed().as_micros() as u64);
        r
    }))
    .unwrap_or_else(|_| {
        Err(TileLinkError::InvalidConfig {
            reason: "oracle panicked during evaluation".to_string(),
        })
    })
}

impl Drop for SearchExecutor {
    fn drop(&mut self) {
        // A poisoned queue still holds a valid shutdown flag and worker list,
        // and `Drop` must not panic.
        let workers = {
            let mut st = self
                .inner
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
            std::mem::take(&mut st.workers)
        };
        self.inner.work.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
    }
}

fn worker(inner: &Inner) {
    loop {
        let job = {
            let mut st = inner.queue.lock().expect("executor queue poisoned");
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    TUNE_EXECUTOR_QUEUE_DEPTH.set(st.jobs.len() as i64);
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work.wait(st).expect("executor queue poisoned");
            }
        };
        // SAFETY: see `OraclePtr` — the submitting `run_batch` is still
        // blocked on this batch, so the oracle it borrowed is live.
        let oracle: &dyn CostOracle = unsafe { &*job.oracle.0 };
        let cutoff = f64::from_bits(job.batch.cutoff.load(Ordering::Relaxed));
        let result = guarded_eval(oracle, &job.cfg, cutoff);
        let mut bs = job.batch.state.lock().expect("executor batch poisoned");
        bs.results[job.idx] = Some(result);
        bs.outstanding -= 1;
        if bs.outstanding == 0 {
            job.batch.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnOracle;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tilelink::OverlapReport;
    use tilelink_sim::ClusterSpec;

    fn no_cutoff() -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    fn counting_oracle(counter: &AtomicUsize) -> impl CostOracle + '_ {
        FnOracle::new("exec", ClusterSpec::h800_node(8), move |cfg| {
            counter.fetch_add(1, Ordering::SeqCst);
            let t = cfg.num_stages as f64;
            Ok(OverlapReport::new(t, t / 2.0, t / 2.0))
        })
    }

    #[test]
    fn batches_fill_every_slot_in_candidate_order() {
        let exec = SearchExecutor::with_threads(4);
        let calls = AtomicUsize::new(0);
        let oracle = counting_oracle(&calls);
        exec.start_search();
        let configs: Vec<OverlapConfig> = [2usize, 3, 4]
            .iter()
            .map(|&s| OverlapConfig {
                num_stages: s,
                ..Default::default()
            })
            .collect();
        let results = exec.run_batch(&oracle, &configs, &no_cutoff());
        assert_eq!(results.len(), 3);
        for (i, r) in results.iter().enumerate() {
            let BoundedEval::Finished(total) = r.as_ref().expect("ok") else {
                panic!("infinite cutoff must never abort");
            };
            assert_eq!(*total, configs[i].num_stages as f64);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn second_search_reuses_the_warm_pool() {
        let exec = SearchExecutor::with_threads(2);
        let before = TUNE_EXECUTOR_REUSES.get();
        exec.start_search();
        exec.start_search();
        assert!(
            TUNE_EXECUTOR_REUSES.get() > before,
            "the second search must count as a pool reuse"
        );
    }

    #[test]
    fn a_panicking_oracle_fails_the_candidate_not_the_pool() {
        let exec = SearchExecutor::with_threads(2);
        let panicky = FnOracle::new(
            "boom",
            ClusterSpec::h800_node(8),
            |_| -> tilelink::Result<OverlapReport> { panic!("synthetic oracle panic") },
        );
        exec.start_search();
        let two = [
            OverlapConfig::default(),
            OverlapConfig {
                num_stages: 4,
                ..Default::default()
            },
        ];
        // On the workers (two misses) and on the calling thread (one miss)
        // alike, the panic fails the candidate instead of unwinding.
        for batch in [&two[..], &two[..1]] {
            let results = exec.run_batch(&panicky, batch, &no_cutoff());
            assert_eq!(results.len(), batch.len());
            assert!(results
                .iter()
                .all(|r| matches!(r, Err(TileLinkError::InvalidConfig { .. }))));
        }
        // And the pool still works afterwards.
        let calls = AtomicUsize::new(0);
        let oracle = counting_oracle(&calls);
        let results = exec.run_batch(&oracle, &two, &no_cutoff());
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }
}

//! Search strategies and the multi-threaded tuner driver.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tilelink::{OverlapConfig, OverlapReport, TileLinkError};
use tilelink_probe::metrics::{
    TUNE_CACHE_HITS, TUNE_CACHE_MISSES, TUNE_CACHE_REVISION_INVALIDATIONS, TUNE_CANDIDATES_CACHED,
    TUNE_CANDIDATES_FAILED_SIM, TUNE_CANDIDATES_PRUNED_BOUND, TUNE_CANDIDATES_PRUNED_CONSTRAINT,
    TUNE_CANDIDATES_PRUNED_VALIDATE, TUNE_CANDIDATES_SIMULATED, TUNE_COMPILE_FULL_REBUILDS,
    TUNE_COMPILE_PATCHED, TUNE_EVAL_US, TUNE_SPACE_SIZE,
};

use crate::executor::SearchExecutor;
use crate::oracle::{cluster_key, BoundedEval};
use crate::space::{PruneCounts, SearchSpace};
use crate::{CostOracle, Result, TuneCache, TuneError};

/// Candidates per branch-and-bound chunk: the incumbent cutoff is refreshed
/// between chunks (in the single-threaded merge) and frozen within one, so
/// the prune/abort decisions are a pure function of candidate order —
/// independent of thread count or scheduling. 32 keeps every worker of the
/// largest pool (16 threads) busy while still tightening the cutoff at a
/// useful cadence on big exhaustive batches.
const PRUNE_CHUNK: usize = 32;

/// Chunk width used while the incumbent is still infinite (nothing ranked or
/// cached yet): just enough parallelism to price a handful of candidates and
/// put a real cutoff in place before the wide chunks stream through. See
/// [`Tuner::evaluate_batch`].
const PRUNE_SEED_CHUNK: usize = 4;

/// How the tuner explores the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Evaluate every valid candidate of the space (grid search).
    Exhaustive,
    /// Coordinate-descent beam search: sweep one axis at a time, keeping the
    /// `width` best configurations, for at most `sweeps` rounds (stopping
    /// early when a full sweep yields no improvement). Visits a tiny fraction
    /// of large spaces and, because the seed configurations stay in the pool,
    /// never returns a result worse than the best seed.
    Beam {
        /// Number of configurations kept between axis sweeps.
        width: usize,
        /// Maximum number of full passes over the axes.
        sweeps: usize,
    },
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy::Beam {
            width: 4,
            sweeps: 3,
        }
    }
}

/// The winning configuration of a search, with its exact report.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The configuration.
    pub config: OverlapConfig,
    /// Its full simulated timing ([`CostOracle::evaluate`]), including the
    /// communication-only and computation-only times.
    pub report: OverlapReport,
    /// Whether the report came from the persistent cache (no oracle call).
    pub from_cache: bool,
}

/// One configuration a search ranked, by its objective value alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ranked {
    /// The configuration.
    pub config: OverlapConfig,
    /// Its objective value ([`CostOracle::evaluate_bounded`], finished), in
    /// seconds.
    pub total_s: f64,
    /// Whether the value came from the persistent cache (no oracle call).
    pub from_cache: bool,
}

/// Why candidates dropped out of a tuning run, by pruning stage.
///
/// The four counters partition the configurations that were considered but
/// never ranked: `validate_rejected` and `constraint_pruned` never reached the
/// oracle (free, counted during enumeration — see
/// [`SearchSpace::candidates_counted`]), `bound_pruned` candidates were
/// disposed of by branch-and-bound (an admissible lower bound at or above the
/// incumbent, or a bounded simulation that aborted past it), and
/// `simulation_error` candidates cost a full compile or simulation attempt
/// before failing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FailedBreakdown {
    /// Rejected by [`OverlapConfig::validate`] (impossible on the GPU).
    pub validate_rejected: usize,
    /// Rejected by a cross-axis space constraint or the oracle's
    /// [`CostOracle::is_supported`] predicate.
    pub constraint_pruned: usize,
    /// Disposed of by branch-and-bound: skipped outright because the
    /// admissible lower bound reached the incumbent, or abort-shortened by
    /// the incumbent-bounded simulation. These candidates provably cannot
    /// win, so dropping them never changes the ranking's top.
    pub bound_pruned: usize,
    /// Reached the oracle but errored while compiling or simulating.
    pub simulation_error: usize,
}

impl FailedBreakdown {
    /// Total candidates lost across all four stages.
    pub fn total(&self) -> usize {
        self.validate_rejected + self.constraint_pruned + self.bound_pruned + self.simulation_error
    }
}

impl std::fmt::Display for FailedBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} validate-rejected, {} constraint-pruned, {} bound-pruned, {} simulation errors",
            self.validate_rejected,
            self.constraint_pruned,
            self.bound_pruned,
            self.simulation_error
        )
    }
}

/// Progress of one beam-search round (one full pass over the axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundProgress {
    /// Round number, starting at 1 (round 0 is the seed evaluation).
    pub round: usize,
    /// Best simulated makespan after the round, in seconds.
    pub best_total_s: f64,
    /// Cumulative oracle evaluations after the round.
    pub evaluations: usize,
    /// Cumulative cache hits after the round.
    pub cache_hits: usize,
}

/// The outcome of one tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// The best configuration found, with its exact report: priced once per
    /// search by [`CostOracle::evaluate`] (or served from the cache), so its
    /// `total_s` is `ranked[0].total_s` and its comm/compute split is the
    /// only one the search computes.
    pub best: Candidate,
    /// Every ranked candidate with its objective value, fastest first (ties
    /// broken by first evaluation order, so reports are deterministic).
    pub ranked: Vec<Ranked>,
    /// Candidates the search priced through the oracle (the winner's exact
    /// pricing is not counted).
    pub evaluations: usize,
    /// Lookups served by the cache instead of the oracle.
    pub cache_hits: usize,
    /// Candidates lost per pruning stage (never ranked).
    pub failed: FailedBreakdown,
    /// How many of [`FailedBreakdown::bound_pruned`] were abort-shortened
    /// simulations ([`crate::BoundedEval::Exceeded`]) rather than skipped
    /// outright on their lower bound; see [`TuneReport::pruned_bound`] for
    /// the complementary count.
    pub bounded_aborts: usize,
    /// Per-round progress of a beam search (empty for [`Strategy::Exhaustive`]).
    pub rounds: Vec<RoundProgress>,
    /// Candidate compiles served by patching a cached lowered program during
    /// this run (delta of `tune.compile.patched`; includes any concurrent
    /// tuning on other threads of this process).
    pub compile_patched: u64,
    /// Candidate compiles that rebuilt the program from the frontend during
    /// this run (delta of `tune.compile.full_rebuilds`).
    pub compile_full_rebuilds: u64,
}

impl TuneReport {
    /// Best simulated makespan, in milliseconds.
    pub fn best_ms(&self) -> f64 {
        self.best.report.total_ms()
    }

    /// Candidates skipped without compiling or simulating because their
    /// admissible lower bound already met the incumbent (the remainder of
    /// [`FailedBreakdown::bound_pruned`] after [`TuneReport::bounded_aborts`]).
    pub fn pruned_bound(&self) -> usize {
        self.failed.bound_pruned - self.bounded_aborts
    }

    /// Fraction of candidate compiles served by the incremental patch path
    /// rather than a full frontend rebuild (0.0 when nothing compiled).
    pub fn compile_patch_rate(&self) -> f64 {
        let total = self.compile_patched + self.compile_full_rebuilds;
        if total == 0 {
            0.0
        } else {
            self.compile_patched as f64 / total as f64
        }
    }

    /// A short human-readable table of the `n` best candidates, after the
    /// winner's full report (the only one with an overlap ratio).
    pub fn summary(&self, n: usize) -> String {
        let mut out = format!(
            "{} candidates evaluated ({} simulated, {} cached; {})\n",
            self.ranked.len(),
            self.evaluations,
            self.cache_hits,
            self.failed
        );
        out.push_str(&format!(
            "compiles: {} patched, {} full rebuilds ({:.0}% patch rate)\n",
            self.compile_patched,
            self.compile_full_rebuilds,
            self.compile_patch_rate() * 100.0
        ));
        out.push_str(&format!("winner: {}\n", self.best.report));
        for (i, c) in self.ranked.iter().take(n).enumerate() {
            out.push_str(&format!(
                "  #{:<2} {:>9.4} ms  {}\n",
                i + 1,
                c.total_s * 1e3,
                c.config.cache_key()
            ));
        }
        out
    }
}

/// Drives a [`Strategy`] over a [`SearchSpace`] against a [`CostOracle`].
///
/// Candidate evaluations run concurrently on a [`SearchExecutor`] — a shared
/// one from [`Tuner::with_executor`], or a private one of `threads` workers
/// that lives for one [`Tuner::tune`] call (the simulator is pure, so
/// replicas are independent); results are merged in candidate order, so the
/// search is deterministic regardless of thread scheduling.
#[derive(Debug)]
pub struct Tuner {
    strategy: Strategy,
    threads: usize,
    verbose: bool,
    cache: Mutex<TuneCache>,
    executor: Option<Arc<SearchExecutor>>,
    sweep_stale: bool,
    pruning: bool,
}

struct BatchStats {
    evaluations: usize,
    cache_hits: usize,
    failed: usize,
    /// Candidates skipped on their admissible lower bound (no oracle call).
    bound_pruned: usize,
    /// Oracle evaluations that abort-shortened past the incumbent cutoff.
    bounded_aborts: usize,
    last_error: Option<TileLinkError>,
}

/// The branch-and-bound incumbent: the `width` best objective values ranked
/// so far, publishing the `width`-th best as the shared prune/abort cutoff.
///
/// Exhaustive search prunes against the single best (`width == 1`); beam
/// search must keep its top-`width` frontier bit-identical to the unbounded
/// run, so it prunes against the `width`-th best instead — a candidate at or
/// above that value is provably outranked by `width` earlier candidates and
/// can never enter the beam (ties lose to the earlier candidate under the
/// stable ranking sort), let alone win.
///
/// Only the single-threaded merge pass mutates the incumbent; worker threads
/// share the cutoff read-only through `bits` (an `f64`-bits `AtomicU64`).
/// Combined with the fixed [`PRUNE_CHUNK`] cadence this keeps every prune and
/// abort decision deterministic regardless of thread count.
struct Incumbent {
    /// Cutoff as `f64` bits, read by the executor's workers.
    bits: Arc<AtomicU64>,
    /// Ascending best objective values, at most `width` of them.
    tops: Vec<f64>,
    width: usize,
    enabled: bool,
}

impl Incumbent {
    fn new(width: usize, enabled: bool) -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(f64::INFINITY.to_bits())),
            tops: Vec::with_capacity(width),
            width: width.max(1),
            enabled,
        }
    }

    /// The current prune/abort cutoff (`f64::INFINITY` until `width`
    /// candidates have been observed, or always when pruning is disabled).
    fn cutoff(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Folds one ranked candidate's objective value into the incumbent. Must
    /// be called exactly once per ranked candidate (cache hits included).
    fn observe(&mut self, total: f64) {
        if !self.enabled || !total.is_finite() {
            return;
        }
        if self.tops.len() < self.width || total < self.tops[self.width - 1] {
            let idx = self.tops.partition_point(|&t| t <= total);
            self.tops.insert(idx, total);
            self.tops.truncate(self.width);
            if self.tops.len() == self.width {
                self.bits
                    .store(self.tops[self.width - 1].to_bits(), Ordering::Relaxed);
            }
        }
    }
}

/// One timed, profiled oracle call with the incumbent cutoff. The span lands
/// on whichever worker thread ran it (the profiler keeps per-thread stacks).
pub(crate) fn timed_eval(
    oracle: &dyn CostOracle,
    cfg: &OverlapConfig,
    cutoff: f64,
) -> tilelink::Result<BoundedEval> {
    let _span = tilelink_probe::span("tune.candidate");
    let t0 = Instant::now();
    let r = oracle.evaluate_bounded(cfg, cutoff);
    TUNE_EVAL_US.record(t0.elapsed().as_micros() as u64);
    r
}

impl Tuner {
    /// Creates a tuner with an in-memory cache and one thread per available
    /// CPU (capped at 16).
    pub fn new(strategy: Strategy) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16);
        Self {
            strategy,
            threads,
            verbose: false,
            cache: Mutex::new(TuneCache::in_memory()),
            executor: None,
            sweep_stale: false,
            pruning: true,
        }
    }

    /// Enables or disables branch-and-bound pruning (on by default).
    ///
    /// Pruning is admissible — winners are bit-identical either way — so the
    /// switch exists for A/B measurement and for the admissibility test
    /// suite, not correctness.
    pub fn with_pruning(mut self, pruning: bool) -> Self {
        self.pruning = pruning;
        self
    }

    /// Replaces the worker count of the private executor a run without
    /// [`Tuner::with_executor`] evaluates on (minimum 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Evaluates candidates on a shared [`SearchExecutor`] instead of a
    /// private one per run. The executor's thread count governs parallelism;
    /// results are bit-identical either way (slot per candidate, merged in
    /// candidate order).
    pub fn with_executor(mut self, executor: Arc<SearchExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Physically removes stale same-scope cache entries (other cost-model
    /// revision or objective) at the start of the run instead of merely
    /// counting them, and drops them from the backing file on the next flush.
    ///
    /// Off by default: a CLI alternating between cost models benefits from
    /// keeping both revisions' entries. The long-running serve daemon turns
    /// this on so its write-behind cache file and memory stay bounded.
    pub fn with_stale_sweep(mut self, sweep: bool) -> Self {
        self.sweep_stale = sweep;
        self
    }

    /// Prints per-beam-round progress (round, best-so-far, evaluations) to
    /// stderr while the search runs. Off by default; the same numbers are
    /// always available afterwards in [`TuneReport::rounds`].
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Replaces the cache (use [`TuneCache::open`] for a persistent one).
    pub fn with_cache(mut self, cache: TuneCache) -> Self {
        self.cache = Mutex::new(cache);
        self
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Runs the search and returns the ranked outcome.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::EmptySpace`] if pruning leaves no candidate,
    /// [`TuneError::AllCandidatesFailed`] if every candidate errors in the
    /// oracle, and [`TuneError::CacheIo`] if the persistent cache cannot be
    /// written.
    pub fn tune(&self, oracle: &dyn CostOracle, space: &SearchSpace) -> Result<TuneReport> {
        // The workload / cluster / revision / objective parts of the cache
        // key are fixed for this whole run, and the oracle accessors allocate
        // a String per call: memoize the joined prefix once instead of
        // re-assembling it for every candidate probe.
        let prefix = TuneCache::key_prefix(
            &oracle.workload_key(),
            &cluster_key(oracle.cluster()),
            &oracle.cost_revision(),
            &oracle.objective().key(),
        );
        TUNE_SPACE_SIZE.set(space.len_unpruned() as i64);
        {
            // Entries for this workload+cluster recorded under another cost
            // revision or objective will self-invalidate (miss) this run;
            // surface how many in the metrics registry. With the stale sweep
            // enabled they are removed outright (memory and, on the next
            // flush, the backing file) instead of counted in place.
            let scope = format!(
                "{}|{}|",
                oracle.workload_key(),
                cluster_key(oracle.cluster())
            );
            let mut cache = self.cache.lock().expect("tune cache lock poisoned");
            let stale = if self.sweep_stale {
                cache.sweep_stale(&scope, &prefix)
            } else {
                cache.count_stale(&scope, &prefix)
            };
            TUNE_CACHE_REVISION_INVALIDATIONS.add(stale as u64);
        }
        let mut stats = BatchStats {
            evaluations: 0,
            cache_hits: 0,
            failed: 0,
            bound_pruned: 0,
            bounded_aborts: 0,
            last_error: None,
        };
        let patched_start = TUNE_COMPILE_PATCHED.get();
        let rebuilds_start = TUNE_COMPILE_FULL_REBUILDS.get();
        let mut pruned = PruneCounts::default();
        let mut rounds: Vec<RoundProgress> = Vec::new();

        // Ranked candidates in first-evaluation order.
        let mut evaluated: Vec<Ranked> = Vec::new();
        let mut seen: HashMap<OverlapConfig, usize> = HashMap::new();
        // Configs disposed of by branch-and-bound (lower-bound skip or
        // bounded-simulation abort): provably unable to enter the top of the
        // ranking, never re-dispatched, counted once.
        let mut dominated: HashSet<OverlapConfig> = HashSet::new();
        // Exhaustive search only needs the winner intact, so it prunes
        // against the global best; beam search keeps its `width`-wide
        // frontier bit-identical by pruning against the width-th best.
        let prune_width = match self.strategy {
            Strategy::Exhaustive => 1,
            Strategy::Beam { width, .. } => width.max(1),
        };
        let mut incumbent = Incumbent::new(prune_width, self.pruning);
        // A run without a shared executor gets a private one: its workers
        // (and their warm per-thread scratch) survive across beam batches and
        // exit with the run. Admission is bounded, so concurrent runs on a
        // shared executor interleave their batches instead of stacking pools.
        let private;
        let exec = match &self.executor {
            Some(exec) => &**exec,
            None => {
                private = SearchExecutor::with_threads(self.threads);
                &private
            }
        };
        let session = exec.session();

        match self.strategy {
            Strategy::Exhaustive => {
                let (candidates, counts) = space.candidates_counted(oracle);
                pruned = counts;
                if candidates.is_empty() {
                    return Err(TuneError::EmptySpace {
                        unpruned: space.len_unpruned(),
                    });
                }
                self.evaluate_batch(
                    oracle,
                    exec,
                    &prefix,
                    &candidates,
                    &mut stats,
                    &mut evaluated,
                    &mut seen,
                    &mut incumbent,
                    &mut dominated,
                );
            }
            Strategy::Beam { width, sweeps } => {
                let width = width.max(1);
                let sm_count = oracle.cluster().gpu.sm_count;
                // Per-stage rejection tallies for every config the sweep
                // considers (Cells because `valid` is shared immutably).
                let validate_rejected = Cell::new(0usize);
                let constraint_pruned = Cell::new(0usize);
                let valid = |cfg: &OverlapConfig| {
                    if cfg.validate(sm_count).is_err() {
                        validate_rejected.set(validate_rejected.get() + 1);
                        return false;
                    }
                    if !space.allows(cfg) || !oracle.is_supported(cfg) {
                        constraint_pruned.set(constraint_pruned.get() + 1);
                        return false;
                    }
                    true
                };
                // Seeds: the library default and the space's own first-corner
                // config. Keeping them in the pool guarantees the final result
                // is never worse than either seed.
                let mut seeds: Vec<OverlapConfig> = Vec::new();
                for seed in [OverlapConfig::default(), space.seed()] {
                    if valid(&seed) && !seeds.contains(&seed) {
                        seeds.push(seed);
                    }
                }
                if seeds.is_empty() {
                    // Neither seed is valid for this workload: fall back to the
                    // pruned enumeration for a starting pool.
                    seeds = space.candidates(oracle);
                    seeds.truncate(width);
                }
                if seeds.is_empty() {
                    return Err(TuneError::EmptySpace {
                        unpruned: space.len_unpruned(),
                    });
                }
                self.evaluate_batch(
                    oracle,
                    exec,
                    &prefix,
                    &seeds,
                    &mut stats,
                    &mut evaluated,
                    &mut seen,
                    &mut incumbent,
                    &mut dominated,
                );
                // Both seeds may pass validation yet fail in the oracle (e.g.
                // a compile error for an unsupported axis pair). Walk the
                // pruned enumeration in chunks until something evaluates, so
                // the beam has a starting pool whenever Exhaustive would have
                // found one.
                if evaluated.is_empty() {
                    for chunk in space.candidates(oracle).chunks(16) {
                        self.evaluate_batch(
                            oracle,
                            exec,
                            &prefix,
                            chunk,
                            &mut stats,
                            &mut evaluated,
                            &mut seen,
                            &mut incumbent,
                            &mut dominated,
                        );
                        if !evaluated.is_empty() {
                            break;
                        }
                    }
                }
                let mut beam = Self::top(&evaluated, width);
                let mut best = beam
                    .first()
                    .and_then(|c| seen.get(c))
                    .map(|&i| evaluated[i].total_s);
                for round in 1..=sweeps.max(1) {
                    let _round_span = tilelink_probe::span("tune.beam_round");
                    let mut improved = false;
                    for axis in 0..SearchSpace::NUM_AXES {
                        let mut frontier: Vec<OverlapConfig> = Vec::new();
                        for base in &beam {
                            for cfg in space.axis_variants(axis, base) {
                                if valid(&cfg)
                                    && !seen.contains_key(&cfg)
                                    && !frontier.contains(&cfg)
                                {
                                    frontier.push(cfg);
                                }
                            }
                        }
                        self.evaluate_batch(
                            oracle,
                            exec,
                            &prefix,
                            &frontier,
                            &mut stats,
                            &mut evaluated,
                            &mut seen,
                            &mut incumbent,
                            &mut dominated,
                        );
                        beam = Self::top(&evaluated, width);
                        let new_best = beam
                            .first()
                            .and_then(|c| seen.get(c))
                            .map(|&i| evaluated[i].total_s);
                        if new_best < best || best.is_none() {
                            best = new_best;
                            improved = true;
                        }
                    }
                    let progress = RoundProgress {
                        round,
                        best_total_s: best.unwrap_or(f64::INFINITY),
                        evaluations: stats.evaluations,
                        cache_hits: stats.cache_hits,
                    };
                    if self.verbose {
                        let patched = TUNE_COMPILE_PATCHED.get().saturating_sub(patched_start);
                        let rebuilds = TUNE_COMPILE_FULL_REBUILDS
                            .get()
                            .saturating_sub(rebuilds_start);
                        let compiles = (patched + rebuilds).max(1);
                        eprintln!(
                    "[tune] round {}: best {:.4} ms | {} full sims, {} cache hits, {} failed, {} bound-pruned, {} aborted, {:.0}% patched compiles",
                    progress.round,
                    progress.best_total_s * 1e3,
                    progress.evaluations,
                    progress.cache_hits,
                    stats.failed,
                    stats.bound_pruned,
                    stats.bounded_aborts,
                    patched as f64 / compiles as f64 * 100.0
                );
                    }
                    rounds.push(progress);
                    if !improved {
                        break;
                    }
                }
                pruned.validate_rejected = validate_rejected.get();
                pruned.constraint_pruned = constraint_pruned.get();
            }
        }
        // Free the admission slot before pricing the winner and flushing the
        // cache, which need no workers.
        drop(session);

        let mut ranked = evaluated;
        ranked.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
        let best = ranked
            .first()
            .map(|winner| self.price_winner(oracle, &prefix, winner));

        self.cache
            .lock()
            .expect("tune cache lock poisoned")
            .flush()?;

        let Some(best) = best else {
            return Err(TuneError::AllCandidatesFailed {
                attempted: stats.evaluations + stats.failed,
                last: stats.last_error.unwrap_or(TileLinkError::InvalidConfig {
                    reason: "no candidate could be evaluated".to_string(),
                }),
            });
        };

        TUNE_CANDIDATES_PRUNED_VALIDATE.add(pruned.validate_rejected as u64);
        TUNE_CANDIDATES_PRUNED_CONSTRAINT.add(pruned.constraint_pruned as u64);

        Ok(TuneReport {
            best: best?,
            ranked,
            evaluations: stats.evaluations,
            cache_hits: stats.cache_hits,
            failed: FailedBreakdown {
                validate_rejected: pruned.validate_rejected,
                constraint_pruned: pruned.constraint_pruned,
                bound_pruned: stats.bound_pruned + stats.bounded_aborts,
                simulation_error: stats.failed,
            },
            bounded_aborts: stats.bounded_aborts,
            rounds,
            compile_patched: TUNE_COMPILE_PATCHED.get().saturating_sub(patched_start),
            compile_full_rebuilds: TUNE_COMPILE_FULL_REBUILDS
                .get()
                .saturating_sub(rebuilds_start),
        })
    }

    /// The `width` fastest configs in `evaluated` (stable order).
    fn top(evaluated: &[Ranked], width: usize) -> Vec<OverlapConfig> {
        let mut sorted: Vec<&Ranked> = evaluated.iter().collect();
        sorted.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
        sorted.into_iter().take(width).map(|c| c.config).collect()
    }

    /// The search winner's exact report: the cached one, or one
    /// [`CostOracle::evaluate`] call whose report is then cached, so a rerun
    /// on the same cache prices nothing.
    fn price_winner(
        &self,
        oracle: &dyn CostOracle,
        prefix: &str,
        winner: &Ranked,
    ) -> Result<Candidate> {
        let key = TuneCache::key_in(prefix, &winner.config);
        let cached = self
            .cache
            .lock()
            .expect("tune cache lock poisoned")
            .get(&key);
        let from_cache = cached.is_some();
        let report = match cached {
            Some(report) => report,
            None => {
                let _span = tilelink_probe::span("tune.winner");
                let report = oracle.evaluate(&winner.config)?;
                self.cache
                    .lock()
                    .expect("tune cache lock poisoned")
                    .insert(key, report);
                report
            }
        };
        debug_assert_eq!(
            report.total_s.to_bits(),
            winner.total_s.to_bits(),
            "the oracle's exact report disagrees with the value it ranked"
        );
        Ok(Candidate {
            config: winner.config,
            report,
            from_cache,
        })
    }

    /// Evaluates `configs` (cache first, then the branch-and-bound prune,
    /// then the oracle in parallel), appending successes to `evaluated` in
    /// candidate order. `prefix` is the memoized [`TuneCache::key_prefix`] of
    /// this tuning run.
    ///
    /// The batch is processed in [`PRUNE_CHUNK`]-sized chunks so the
    /// incumbent tightens as results merge: workers see one frozen cutoff
    /// per chunk, updated only here on the driver thread.
    ///
    /// While no incumbent exists yet (the cutoff is still infinite) the
    /// chunks ramp up from [`PRUNE_SEED_CHUNK`]: a large opening chunk would
    /// full-simulate every candidate in it with nothing to prune against,
    /// so the batch starts small to put a cutoff in place, then widens to
    /// the steady-state chunk for parallel throughput. Candidate order is
    /// unchanged — chunk boundaries only decide how often the incumbent
    /// refreshes — so rankings (first-evaluation order) stay deterministic
    /// and, because pruning is admissible, identical to the unramped ones.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_batch(
        &self,
        oracle: &dyn CostOracle,
        exec: &SearchExecutor,
        prefix: &str,
        configs: &[OverlapConfig],
        stats: &mut BatchStats,
        evaluated: &mut Vec<Ranked>,
        seen: &mut HashMap<OverlapConfig, usize>,
        incumbent: &mut Incumbent,
        dominated: &mut HashSet<OverlapConfig>,
    ) {
        let mut rest = configs;
        while !rest.is_empty() {
            let width = if incumbent.enabled && !incumbent.cutoff().is_finite() {
                PRUNE_SEED_CHUNK
            } else {
                PRUNE_CHUNK
            };
            let (chunk, tail) = rest.split_at(width.min(rest.len()));
            rest = tail;
            self.evaluate_chunk(
                oracle, exec, prefix, chunk, stats, evaluated, seen, incumbent, dominated,
            );
        }
    }

    /// One [`PRUNE_CHUNK`] of [`Tuner::evaluate_batch`].
    #[allow(clippy::too_many_arguments)]
    fn evaluate_chunk(
        &self,
        oracle: &dyn CostOracle,
        exec: &SearchExecutor,
        prefix: &str,
        configs: &[OverlapConfig],
        stats: &mut BatchStats,
        evaluated: &mut Vec<Ranked>,
        seen: &mut HashMap<OverlapConfig, usize>,
        incumbent: &mut Incumbent,
        dominated: &mut HashSet<OverlapConfig>,
    ) {
        // Cache pass (also dedups configs revisited across beam sweeps, and
        // configs branch-and-bound already disposed of). Cached totals fold
        // into the incumbent right away so they sharpen this very chunk's
        // lower-bound pruning.
        let mut misses: Vec<&OverlapConfig> = Vec::new();
        let mut hit_or_miss: Vec<Option<f64>> = Vec::with_capacity(configs.len());
        {
            let _span = tilelink_probe::span("tune.cache_lookup");
            let cache = self.cache.lock().expect("tune cache lock poisoned");
            for cfg in configs {
                if seen.contains_key(cfg) || dominated.contains(cfg) {
                    hit_or_miss.push(None); // already ranked or disposed of
                    continue;
                }
                let key = TuneCache::key_in(prefix, cfg);
                match cache.total(&key) {
                    Some(total) => {
                        stats.cache_hits += 1;
                        TUNE_CACHE_HITS.inc();
                        incumbent.observe(total);
                        hit_or_miss.push(Some(total));
                    }
                    None => {
                        TUNE_CACHE_MISSES.inc();
                        misses.push(cfg);
                        hit_or_miss.push(None);
                    }
                }
            }
        }

        // Bound pass: skip misses whose admissible lower bound already
        // reaches the incumbent — they provably cannot enter the top of the
        // ranking (on a tie the earlier incumbent wins the stable sort), so
        // neither compile nor simulation is owed. The cutoff is frozen for
        // the rest of this chunk.
        let cutoff = incumbent.cutoff();
        if incumbent.enabled && cutoff.is_finite() {
            misses.retain(|cfg| match oracle.lower_bound(cfg) {
                Some(lb) if lb >= cutoff => {
                    stats.bound_pruned += 1;
                    TUNE_CANDIDATES_PRUNED_BOUND.inc();
                    dominated.insert(**cfg);
                    false
                }
                _ => true,
            });
        }

        // Oracle pass: fan the misses out over worker threads. Results land in
        // a slot per candidate, so completion order never affects ranking.
        let mut results: Vec<Option<tilelink::Result<BoundedEval>>> = vec![None; misses.len()];
        if !misses.is_empty() {
            if exec.threads().min(misses.len()) <= 1 {
                // Evaluate on this thread (its scratch is warm too) rather
                // than paying a pool round-trip for a single candidate.
                for (slot, cfg) in results.iter_mut().zip(&misses) {
                    *slot = Some(timed_eval(oracle, cfg, cutoff));
                }
            } else {
                results = exec.run_batch(oracle, &misses, Arc::clone(&incumbent.bits));
            }
        }

        // Merge, in candidate order.
        let mut cache = self.cache.lock().expect("tune cache lock poisoned");
        let mut miss_idx = 0usize;
        for (cfg, cached) in configs.iter().zip(hit_or_miss) {
            if seen.contains_key(cfg) || dominated.contains(cfg) {
                continue;
            }
            let (total_s, from_cache) = match cached {
                Some(total) => {
                    TUNE_CANDIDATES_CACHED.inc();
                    (total, true)
                }
                None => {
                    let result = results[miss_idx].take().expect("evaluated slot");
                    miss_idx += 1;
                    match result {
                        Ok(BoundedEval::Finished(total)) => {
                            stats.evaluations += 1;
                            TUNE_CANDIDATES_SIMULATED.inc();
                            incumbent.observe(total);
                            cache.insert_total(TuneCache::key_in(prefix, cfg), total);
                            (total, false)
                        }
                        Ok(BoundedEval::Exceeded(_)) => {
                            // The objective value provably exceeds the
                            // incumbent: not ranked, not cached (the exact
                            // value is unknown), never re-dispatched.
                            stats.bounded_aborts += 1;
                            dominated.insert(*cfg);
                            continue;
                        }
                        Err(e) => {
                            stats.failed += 1;
                            TUNE_CANDIDATES_FAILED_SIM.inc();
                            stats.last_error = Some(e);
                            continue;
                        }
                    }
                }
            };
            seen.insert(*cfg, evaluated.len());
            evaluated.push(Ranked {
                config: *cfg,
                total_s,
                from_cache,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnOracle;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tilelink::{CommMapping, TileShape};
    use tilelink_sim::ClusterSpec;

    /// Analytic cost: favours big compute tiles, ring order, hybrid mapping
    /// with few SMs. Counts oracle calls.
    fn analytic(counter: &AtomicUsize) -> impl CostOracle + '_ {
        FnOracle::new("analytic", ClusterSpec::h800_node(8), move |cfg| {
            counter.fetch_add(1, Ordering::SeqCst);
            let tile = cfg.compute_tile.numel() as f64;
            let order = match cfg.order {
                tilelink::TileOrder::Ring => 0.9,
                tilelink::TileOrder::AllToAll => 1.0,
            };
            let sms = cfg.comm_mapping.comm_sms() as f64;
            let t = (1e9 / tile) * order + sms * 1e-3 + cfg.num_stages as f64 * 1e-4;
            Ok(OverlapReport::new(t, t / 3.0, 2.0 * t / 3.0))
        })
    }

    fn space() -> SearchSpace {
        SearchSpace::standard()
            .with_comm_tiles([TileShape::new(128, 128)])
            .with_channels([4])
    }

    /// The analytic cost formula as a standalone function, so pruning tests
    /// can reuse it as an exact (hence admissible) lower bound.
    fn toy_cost(cfg: &OverlapConfig) -> f64 {
        let tile = cfg.compute_tile.numel() as f64;
        let order = match cfg.order {
            tilelink::TileOrder::Ring => 0.9,
            tilelink::TileOrder::AllToAll => 1.0,
        };
        let sms = cfg.comm_mapping.comm_sms() as f64;
        (1e9 / tile) * order + sms * 1e-3 + cfg.num_stages as f64 * 1e-4
    }

    /// Call-counting oracle whose lower bound is the exact cost.
    fn lb_oracle(counter: &AtomicUsize) -> impl CostOracle + '_ {
        FnOracle::new("lb", ClusterSpec::h800_node(8), move |cfg| {
            counter.fetch_add(1, Ordering::SeqCst);
            let t = toy_cost(cfg);
            Ok(OverlapReport::new(t, t / 3.0, 2.0 * t / 3.0))
        })
        .with_lower_bound(|cfg| Some(toy_cost(cfg)))
    }

    /// Oracle whose `evaluate_bounded` aborts as soon as the cost exceeds the
    /// cutoff, mirroring `Engine::makespan`.
    struct AbortingOracle {
        cluster: ClusterSpec,
        aborts: AtomicUsize,
    }

    impl CostOracle for AbortingOracle {
        fn workload_key(&self) -> String {
            "abort".to_string()
        }

        fn cluster(&self) -> &ClusterSpec {
            &self.cluster
        }

        fn evaluate(&self, cfg: &OverlapConfig) -> tilelink::Result<OverlapReport> {
            let t = toy_cost(cfg);
            Ok(OverlapReport::new(t, t / 3.0, 2.0 * t / 3.0))
        }

        fn evaluate_bounded(
            &self,
            cfg: &OverlapConfig,
            cutoff: f64,
        ) -> tilelink::Result<BoundedEval> {
            let t = toy_cost(cfg);
            if t > cutoff {
                self.aborts.fetch_add(1, Ordering::SeqCst);
                return Ok(BoundedEval::Exceeded(t));
            }
            Ok(BoundedEval::Finished(t))
        }
    }

    #[test]
    fn lower_bound_pruning_skips_candidates_and_keeps_the_winner() {
        let space = space();
        let pruned_calls = AtomicUsize::new(0);
        let pruned = Tuner::new(Strategy::Exhaustive)
            .tune(&lb_oracle(&pruned_calls), &space)
            .unwrap();
        let full_calls = AtomicUsize::new(0);
        let full = Tuner::new(Strategy::Exhaustive)
            .with_pruning(false)
            .tune(&lb_oracle(&full_calls), &space)
            .unwrap();
        // Winners are bit-identical; pruning only skips provably worse configs.
        assert_eq!(pruned.best.config, full.best.config);
        assert_eq!(
            pruned.best.report.total_s.to_bits(),
            full.best.report.total_s.to_bits()
        );
        // The exact bound prunes everything past the incumbent after the
        // first chunk, so the oracle runs far fewer simulations.
        assert!(pruned.pruned_bound() > 0, "{pruned:?}");
        assert_eq!(pruned.bounded_aborts, 0);
        assert!(pruned_calls.load(Ordering::SeqCst) < full_calls.load(Ordering::SeqCst));
        assert_eq!(full.failed.bound_pruned, 0);
        // Attribution still sums to the space size: every candidate is ranked
        // or accounted to exactly one pruning stage.
        assert_eq!(
            pruned.ranked.len() + pruned.failed.total(),
            space.len_unpruned()
        );
        assert_eq!(
            full.ranked.len() + full.failed.total(),
            space.len_unpruned()
        );
    }

    #[test]
    fn bounded_aborts_are_counted_and_keep_the_winner() {
        let space = space();
        let oracle = AbortingOracle {
            cluster: ClusterSpec::h800_node(8),
            aborts: AtomicUsize::new(0),
        };
        let report = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &space)
            .unwrap();
        assert!(report.bounded_aborts > 0);
        assert_eq!(report.bounded_aborts, oracle.aborts.load(Ordering::SeqCst));
        // No lower bound on this oracle: everything bound-pruned was an abort.
        assert_eq!(report.pruned_bound(), 0);
        assert_eq!(
            report.ranked.len() + report.failed.total(),
            space.len_unpruned()
        );
        let full = Tuner::new(Strategy::Exhaustive)
            .with_pruning(false)
            .tune(&oracle, &space)
            .unwrap();
        assert_eq!(report.best.config, full.best.config);
        assert_eq!(
            report.best.report.total_s.to_bits(),
            full.best.report.total_s.to_bits()
        );
    }

    #[test]
    fn beam_with_pruning_matches_the_unbounded_beam_bit_for_bit() {
        let space = space();
        let strategy = Strategy::Beam {
            width: 2,
            sweeps: 3,
        };
        let c1 = AtomicUsize::new(0);
        let pruned = Tuner::new(strategy).tune(&lb_oracle(&c1), &space).unwrap();
        let c2 = AtomicUsize::new(0);
        let full = Tuner::new(strategy)
            .with_pruning(false)
            .tune(&lb_oracle(&c2), &space)
            .unwrap();
        // Pruning against the width-th-best incumbent keeps the frontier, the
        // round count and the winner bit-identical to the unbounded beam.
        assert_eq!(pruned.best.config, full.best.config);
        assert_eq!(
            pruned.best.report.total_s.to_bits(),
            full.best.report.total_s.to_bits()
        );
        assert_eq!(pruned.rounds.len(), full.rounds.len());
        assert!(c1.load(Ordering::SeqCst) <= c2.load(Ordering::SeqCst));
    }

    #[test]
    fn exhaustive_finds_the_analytic_optimum() {
        let calls = AtomicUsize::new(0);
        let report = Tuner::new(Strategy::Exhaustive)
            .with_threads(4)
            .tune(&analytic(&calls), &space())
            .unwrap();
        // Optimum of the analytic model: largest compute tile, ring order,
        // copy-engine mapping (0 SMs), fewest stages.
        assert_eq!(report.best.config.compute_tile, TileShape::new(128, 256));
        assert_eq!(report.best.config.order, tilelink::TileOrder::Ring);
        assert_eq!(report.best.config.comm_mapping, CommMapping::CopyEngine);
        assert_eq!(report.best.config.num_stages, 2);
        // One oracle call per priced candidate, plus the winner's exact
        // report (not counted as an evaluation).
        assert_eq!(report.evaluations + 1, calls.load(Ordering::SeqCst));
        assert_eq!(report.failed.simulation_error, 0);
        assert!(report.rounds.is_empty(), "exhaustive search has no rounds");
        // Ranking is fastest-first, led by the winner.
        assert_eq!(report.ranked[0].config, report.best.config);
        for w in report.ranked.windows(2) {
            assert!(w[0].total_s <= w[1].total_s);
        }
    }

    #[test]
    fn beam_matches_exhaustive_on_a_separable_objective() {
        let calls_a = AtomicUsize::new(0);
        let calls_b = AtomicUsize::new(0);
        let exhaustive = Tuner::new(Strategy::Exhaustive)
            .tune(&analytic(&calls_a), &space())
            .unwrap();
        let beam = Tuner::new(Strategy::Beam {
            width: 3,
            sweeps: 4,
        })
        .tune(&analytic(&calls_b), &space())
        .unwrap();
        assert_eq!(beam.best.config, exhaustive.best.config);
        // ...while evaluating fewer candidates.
        assert!(calls_b.load(Ordering::SeqCst) < calls_a.load(Ordering::SeqCst));
    }

    #[test]
    fn search_is_deterministic() {
        let c1 = AtomicUsize::new(0);
        let c2 = AtomicUsize::new(0);
        let r1 = Tuner::new(Strategy::Beam {
            width: 2,
            sweeps: 3,
        })
        .with_threads(8)
        .tune(&analytic(&c1), &space())
        .unwrap();
        let r2 = Tuner::new(Strategy::Beam {
            width: 2,
            sweeps: 3,
        })
        .with_threads(1)
        .tune(&analytic(&c2), &space())
        .unwrap();
        assert_eq!(r1.best.config, r2.best.config);
        let order1: Vec<&OverlapConfig> = r1.ranked.iter().map(|c| &c.config).collect();
        let order2: Vec<&OverlapConfig> = r2.ranked.iter().map(|c| &c.config).collect();
        assert_eq!(order1, order2);
    }

    #[test]
    fn failing_candidates_are_skipped_not_fatal() {
        let oracle = FnOracle::new("flaky", ClusterSpec::h800_node(8), |cfg| {
            if cfg.num_stages == 3 {
                Err(tilelink::TileLinkError::InvalidConfig {
                    reason: "synthetic".to_string(),
                })
            } else {
                Ok(OverlapReport::new(cfg.num_stages as f64, 0.1, 0.9))
            }
        });
        let space = SearchSpace::new().with_stages([2, 3, 4]);
        let report = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &space)
            .unwrap();
        assert_eq!(report.failed.simulation_error, 1);
        assert_eq!(report.failed.validate_rejected, 0);
        assert_eq!(report.failed.constraint_pruned, 0);
        assert_eq!(report.failed.total(), 1);
        assert_eq!(report.ranked.len(), 2);
        assert_eq!(report.best.config.num_stages, 2);
    }

    #[test]
    fn failure_breakdown_separates_the_four_pruning_stages() {
        // 200 comm SMs fail validate on an H800; stage 3 is unsupported by the
        // oracle (constraint); stage 4 errors in the oracle (simulation).
        let oracle = FnOracle::new("stages", ClusterSpec::h800_node(8), |cfg| {
            if cfg.num_stages == 4 {
                Err(tilelink::TileLinkError::InvalidConfig {
                    reason: "synthetic".to_string(),
                })
            } else {
                Ok(OverlapReport::new(cfg.num_stages as f64, 0.1, 0.9))
            }
        })
        .with_support(|cfg: &OverlapConfig| cfg.num_stages != 3);
        let space = SearchSpace::new()
            .with_mappings([CommMapping::CopyEngine, CommMapping::Sm { sms: 200 }])
            .with_stages([2, 3, 4]);
        let report = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &space)
            .unwrap();
        // Sm{200} is validate-rejected for all 3 stages; stage 3 of the valid
        // mapping is constraint-pruned; stage 4 errors in the oracle.
        assert_eq!(report.failed.validate_rejected, 3);
        assert_eq!(report.failed.constraint_pruned, 1);
        // The oracle has no lower bound and never aborts, so the fourth
        // stage stays empty here (exercised by the pruning tests below).
        assert_eq!(report.failed.bound_pruned, 0);
        assert_eq!(report.failed.simulation_error, 1);
        assert_eq!(report.failed.total(), 5);
        assert_eq!(report.ranked.len(), 1);
        let text = report.summary(1);
        assert!(text.contains("3 validate-rejected"), "{text}");
        assert!(text.contains("1 constraint-pruned"), "{text}");
        assert!(text.contains("0 bound-pruned"), "{text}");
        assert!(text.contains("1 simulation errors"), "{text}");
    }

    #[test]
    fn beam_reports_per_round_progress() {
        let calls = AtomicUsize::new(0);
        let report = Tuner::new(Strategy::Beam {
            width: 2,
            sweeps: 3,
        })
        .tune(&analytic(&calls), &space())
        .unwrap();
        assert!(!report.rounds.is_empty());
        assert!(report.rounds.len() <= 3);
        for (i, round) in report.rounds.iter().enumerate() {
            assert_eq!(round.round, i + 1);
            assert!(round.best_total_s.is_finite());
        }
        // Best-so-far never regresses and cumulative counters never shrink.
        for w in report.rounds.windows(2) {
            assert!(w[1].best_total_s <= w[0].best_total_s);
            assert!(w[1].evaluations >= w[0].evaluations);
            assert!(w[1].cache_hits >= w[0].cache_hits);
        }
        let last = report.rounds.last().unwrap();
        assert_eq!(last.best_total_s, report.best.report.total_s);
        assert_eq!(last.evaluations, report.evaluations);
    }

    #[test]
    fn beam_recovers_when_every_seed_fails_evaluation() {
        // Both beam seeds (the default config and the space's first corner)
        // have num_stages == 3 here and fail in the oracle; the beam must fall
        // back to the pruned enumeration instead of reporting total failure.
        let oracle = FnOracle::new("seedfail", ClusterSpec::h800_node(8), |cfg| {
            if cfg.num_stages == 3 {
                Err(tilelink::TileLinkError::InvalidConfig {
                    reason: "synthetic compile failure".to_string(),
                })
            } else {
                Ok(OverlapReport::new(cfg.num_stages as f64, 0.1, 0.9))
            }
        });
        let space = SearchSpace::new().with_stages([3, 4]);
        let report = Tuner::new(Strategy::Beam {
            width: 2,
            sweeps: 2,
        })
        .tune(&oracle, &space)
        .unwrap();
        assert_eq!(report.best.config.num_stages, 4);
        assert!(report.failed.simulation_error >= 1);
    }

    #[test]
    fn all_failures_surface_as_error() {
        let oracle = FnOracle::new("dead", ClusterSpec::h800_node(8), |_| {
            Err(tilelink::TileLinkError::InvalidConfig {
                reason: "always".to_string(),
            })
        });
        let err = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &SearchSpace::new())
            .unwrap_err();
        assert!(matches!(err, TuneError::AllCandidatesFailed { .. }));
    }

    #[test]
    fn empty_space_surfaces_as_error() {
        let oracle = FnOracle::new("t", ClusterSpec::h800_node(8), |_| {
            Ok(OverlapReport::new(1.0, 0.5, 0.5))
        })
        .with_support(|_: &OverlapConfig| false);
        let err = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &SearchSpace::new())
            .unwrap_err();
        assert!(matches!(err, TuneError::EmptySpace { .. }));
    }

    #[test]
    fn persistent_cache_short_circuits_the_second_search() {
        let dir = std::env::temp_dir().join(format!("tilelink-tune-sc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let _ = std::fs::remove_file(&path);

        let calls = AtomicUsize::new(0);
        let first = Tuner::new(Strategy::Exhaustive)
            .with_cache(TuneCache::open(&path).unwrap())
            .tune(&analytic(&calls), &space())
            .unwrap();
        assert!(calls.load(Ordering::SeqCst) > 0);
        assert_eq!(first.cache_hits, 0);

        calls.store(0, Ordering::SeqCst);
        let second = Tuner::new(Strategy::Exhaustive)
            .with_cache(TuneCache::open(&path).unwrap())
            .tune(&analytic(&calls), &space())
            .unwrap();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "second search must be free"
        );
        assert_eq!(second.evaluations, 0);
        assert_eq!(second.cache_hits, first.ranked.len());
        assert_eq!(second.best.config, first.best.config);
        assert!(second.best.from_cache);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_entries_miss_under_a_different_cost_revision_and_hit_again() {
        let dir = std::env::temp_dir().join(format!("tilelink-tune-rev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let _ = std::fs::remove_file(&path);

        let oracle_with = |counter: &'static AtomicUsize, revision: &str| {
            FnOracle::new("rev", ClusterSpec::h800_node(8), move |cfg| {
                counter.fetch_add(1, Ordering::SeqCst);
                let t = cfg.num_stages as f64;
                Ok(OverlapReport::new(t, t / 2.0, t / 2.0))
            })
            .with_revision(revision)
        };
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let space = SearchSpace::new().with_stages([2, 3]);
        let run = |revision: &str| {
            Tuner::new(Strategy::Exhaustive)
                .with_cache(TuneCache::open(&path).unwrap())
                .tune(&oracle_with(&CALLS, revision), &space)
                .unwrap()
        };

        let first = run("analytic-v2");
        assert_eq!(first.evaluations, 2);
        // A different cost-model revision must not be served stale timings.
        let other = run("calibrated-deadbeef");
        assert_eq!(
            other.evaluations, 2,
            "revision change must force re-evaluation"
        );
        assert_eq!(other.cache_hits, 0);
        // Returning to the original revision hits the original entries again.
        let back = run("analytic-v2");
        assert_eq!(back.evaluations, 0);
        assert_eq!(back.cache_hits, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn beam_respects_cross_axis_constraints() {
        use tilelink::{TileOrder, TransferMode};
        let seen_ring_pull = std::sync::atomic::AtomicBool::new(false);
        let oracle = FnOracle::new("c", ClusterSpec::h800_node(8), |cfg| {
            if cfg.order == TileOrder::Ring && cfg.mode == TransferMode::Pull {
                seen_ring_pull.store(true, Ordering::SeqCst);
            }
            Ok(OverlapReport::new(1.0, 0.5, 0.5))
        });
        let space = SearchSpace::new()
            .with_orders([TileOrder::AllToAll, TileOrder::Ring])
            .with_modes([TransferMode::Pull, TransferMode::Push])
            .with_constraint(crate::RING_REQUIRES_PUSH);
        Tuner::new(Strategy::Beam {
            width: 4,
            sweeps: 2,
        })
        .tune(&oracle, &space)
        .unwrap();
        assert!(
            !seen_ring_pull.load(Ordering::SeqCst),
            "constrained pair must never reach the oracle"
        );
    }

    #[test]
    fn report_summary_mentions_the_best_candidate() {
        let calls = AtomicUsize::new(0);
        let report = Tuner::new(Strategy::Exhaustive)
            .tune(&analytic(&calls), &space())
            .unwrap();
        let text = report.summary(3);
        assert!(text.contains("#1"));
        assert!(text.contains(&report.best.config.cache_key()));
        assert!(report.best_ms() > 0.0);
    }
}

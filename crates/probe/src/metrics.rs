//! Fixed metrics registry: counters, gauges and histograms.
//!
//! The registry is a closed set of statically-declared instruments — there is
//! no runtime registration, no string hashing and no locking on the update
//! path. A counter bump is one relaxed `fetch_add`, cheap enough for
//! per-simulation granularity (it is still never used inside the scheduler's
//! inner event loop). [`metrics_json`] snapshots every instrument as a JSON
//! object for `--profile` output.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a named counter starting at zero.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Registry name of this counter (e.g. `"tune.cache.hits"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments the counter by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// Creates a named gauge starting at zero.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicI64::new(0),
        }
    }

    /// Registry name of this gauge.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` to the gauge (negative to decrement). Used for
    /// level-style gauges such as `serve.inflight`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets a [`Histogram`] keeps (covers `u64`).
const HIST_BUCKETS: usize = 64;

/// A lock-free histogram over `u64` observations with power-of-two buckets.
///
/// Bucket `i` counts observations `v` with `ceil(log2(v + 1)) == i`, i.e.
/// bucket 0 is exactly `0`, bucket 1 is `1`, bucket 2 is `2..=3`, and so on.
/// Quantiles interpolate the upper bound of the containing bucket, which is
/// plenty for order-of-magnitude latency attribution.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    /// Creates a named, empty histogram.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HIST_BUCKETS],
        }
    }

    /// Registry name of this histogram.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[bucket.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing quantile `q` (0.0..=1.0), or 0
    /// when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

// ---------------------------------------------------------------------------
// The registry: every instrument the reproduction exposes.
// ---------------------------------------------------------------------------

/// Tune-cache lookups that returned a priced report.
pub static TUNE_CACHE_HITS: Counter = Counter::new("tune.cache.hits");
/// Tune-cache lookups that missed and forced an oracle evaluation.
pub static TUNE_CACHE_MISSES: Counter = Counter::new("tune.cache.misses");
/// Persisted cache entries dropped at load because their cost-model revision
/// no longer matches the active provider.
pub static TUNE_CACHE_REVISION_INVALIDATIONS: Counter =
    Counter::new("tune.cache.revision_invalidations");
/// Candidates priced by actually running the oracle (compile + simulate).
pub static TUNE_CANDIDATES_SIMULATED: Counter = Counter::new("tune.candidates.simulated");
/// Candidates served from the tune cache.
pub static TUNE_CANDIDATES_CACHED: Counter = Counter::new("tune.candidates.cached");
/// Candidates rejected by `OverlapConfig::validate` before evaluation.
pub static TUNE_CANDIDATES_PRUNED_VALIDATE: Counter =
    Counter::new("tune.candidates.pruned_validate");
/// Candidates rejected by search-space / workload constraints before
/// evaluation (`SearchSpace::allows` or `CostOracle::is_supported`).
pub static TUNE_CANDIDATES_PRUNED_CONSTRAINT: Counter =
    Counter::new("tune.candidates.pruned_constraint");
/// Candidates whose oracle evaluation returned an error.
pub static TUNE_CANDIDATES_FAILED_SIM: Counter = Counter::new("tune.candidates.failed_sim");
/// Candidates skipped without compiling or simulating because their admissible
/// analytic lower bound already met or exceeded the incumbent best.
pub static TUNE_CANDIDATES_PRUNED_BOUND: Counter = Counter::new("tune.candidates.pruned_bound");
/// Bounded fast-path simulations that aborted early because the simulated
/// clock provably exceeded the incumbent cutoff.
pub static SIM_MAKESPAN_BOUNDED_ABORTS: Counter = Counter::new("sim.makespan_bounded_aborts");
/// Candidate compiles served by patching a cached lowered program (the
/// incremental-recompilation fast path).
pub static TUNE_COMPILE_PATCHED: Counter = Counter::new("tune.compile.patched");
/// Candidate compiles that rebuilt and re-lowered the program from scratch.
pub static TUNE_COMPILE_FULL_REBUILDS: Counter = Counter::new("tune.compile.full_rebuilds");
/// Task-graph builds that borrowed the thread-local warm graph scratch.
pub static GRAPH_SCRATCH_REUSES: Counter = Counter::new("graph.scratch.reuses");
/// Task-graph builds that allocated a fresh scratch (first build on a thread,
/// or a re-entrant build while the scratch was borrowed).
pub static GRAPH_SCRATCH_COLD: Counter = Counter::new("graph.scratch.cold");
/// Makespan lookups a kernel memo answered from a price it already held (an
/// exact makespan, or an abort floor above the cutoff), without building or
/// simulating the kernel's task graph.
pub static EXEC_MEMO_HITS: Counter = Counter::new("exec.memo.hits");
/// Makespan lookups a kernel memo had to simulate (the kernel was new to it,
/// or its recorded floor did not clear the cutoff).
pub static EXEC_MEMO_MISSES: Counter = Counter::new("exec.memo.misses");
/// Makespan-only (fast-path) simulations run.
pub static SIM_MAKESPAN_RUNS: Counter = Counter::new("sim.makespan_runs");
/// Full-trace simulations run.
pub static SIM_TRACE_RUNS: Counter = Counter::new("sim.trace_runs");
/// Fast-path simulations that borrowed the thread-local warm scratch.
pub static SIM_SCRATCH_REUSES: Counter = Counter::new("sim.scratch.reuses");
/// Fast-path simulations that had to allocate a fresh scratch because the
/// thread-local one was already borrowed (re-entrant simulation).
pub static SIM_SCRATCH_COLD: Counter = Counter::new("sim.scratch.cold");
/// Routing samples drawn (`RoutingSampler::sample` calls) for routed MoE
/// pricing.
pub static WORKLOADS_ROUTING_SAMPLES: Counter = Counter::new("workloads.routing.samples");
/// Serve requests answered from the in-memory warm result map.
pub static SERVE_REQUESTS_WARM: Counter = Counter::new("serve.requests.warm");
/// Serve requests that ran a search (the in-flight leader for their key).
pub static SERVE_REQUESTS_COLD: Counter = Counter::new("serve.requests.cold");
/// Serve requests that piggybacked on another request's in-flight search
/// instead of starting their own.
pub static SERVE_REQUESTS_DEDUPED: Counter = Counter::new("serve.requests.deduped");
/// Requests the serve connection pool rejected because its admission queue
/// was full (answered `ERR busy` without touching a worker).
pub static SERVE_POOL_REJECTED: Counter = Counter::new("serve.pool.rejected");
/// Warm results evicted (least recently used first) to keep the daemon's
/// warm map under its entry cap.
pub static SERVE_CACHE_EVICTIONS: Counter = Counter::new("serve.cache.evictions");
/// Tuning runs admitted to a shared `SearchExecutor` whose worker pool was
/// already warm (spawned by an earlier run) instead of spawning fresh
/// threads.
pub static TUNE_EXECUTOR_REUSES: Counter = Counter::new("tune.executor.reuses");
/// Size of the most recently enumerated search space (valid candidates).
pub static TUNE_SPACE_SIZE: Gauge = Gauge::new("tune.space.size");
/// Tuning requests currently being handled by the serve daemon.
pub static SERVE_INFLIGHT: Gauge = Gauge::new("serve.inflight");
/// Parsed requests sitting in the serve connection pool's admission queue,
/// waiting for a worker.
pub static SERVE_POOL_QUEUED: Gauge = Gauge::new("serve.pool.queued");
/// Serve connection-pool workers currently executing a request.
pub static SERVE_POOL_ACTIVE: Gauge = Gauge::new("serve.pool.active");
/// Tuning runs waiting for admission to a shared `SearchExecutor` (its
/// concurrent-session bound is saturated).
pub static TUNE_EXECUTOR_QUEUE_DEPTH: Gauge = Gauge::new("tune.executor.queue_depth");
/// Per-candidate oracle evaluation latency in microseconds.
pub static TUNE_EVAL_US: Histogram = Histogram::new("tune.eval_us");

static COUNTERS: &[&Counter] = &[
    &TUNE_CACHE_HITS,
    &TUNE_CACHE_MISSES,
    &TUNE_CACHE_REVISION_INVALIDATIONS,
    &TUNE_CANDIDATES_SIMULATED,
    &TUNE_CANDIDATES_CACHED,
    &TUNE_CANDIDATES_PRUNED_VALIDATE,
    &TUNE_CANDIDATES_PRUNED_CONSTRAINT,
    &TUNE_CANDIDATES_FAILED_SIM,
    &TUNE_CANDIDATES_PRUNED_BOUND,
    &SIM_MAKESPAN_BOUNDED_ABORTS,
    &TUNE_COMPILE_PATCHED,
    &TUNE_COMPILE_FULL_REBUILDS,
    &GRAPH_SCRATCH_REUSES,
    &GRAPH_SCRATCH_COLD,
    &EXEC_MEMO_HITS,
    &EXEC_MEMO_MISSES,
    &SIM_MAKESPAN_RUNS,
    &SIM_TRACE_RUNS,
    &SIM_SCRATCH_REUSES,
    &SIM_SCRATCH_COLD,
    &WORKLOADS_ROUTING_SAMPLES,
    &SERVE_REQUESTS_WARM,
    &SERVE_REQUESTS_COLD,
    &SERVE_REQUESTS_DEDUPED,
    &SERVE_POOL_REJECTED,
    &SERVE_CACHE_EVICTIONS,
    &TUNE_EXECUTOR_REUSES,
];

static GAUGES: &[&Gauge] = &[
    &TUNE_SPACE_SIZE,
    &SERVE_INFLIGHT,
    &SERVE_POOL_QUEUED,
    &SERVE_POOL_ACTIVE,
    &TUNE_EXECUTOR_QUEUE_DEPTH,
];

static HISTOGRAMS: &[&Histogram] = &[&TUNE_EVAL_US];

/// Snapshot of every registered instrument as a JSON object.
///
/// Shape: `{"counters": {name: u64, …}, "gauges": {name: i64, …},
/// "histograms": {name: {"count", "sum", "p50", "p95"}, …}}`.
#[must_use]
pub fn metrics_json() -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, c) in COUNTERS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", c.name(), c.get()));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, g) in GAUGES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", g.name(), g.get()));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, h) in HISTOGRAMS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}}}",
            h.name(),
            h.count(),
            h.sum(),
            h.quantile(0.50),
            h.quantile(0.95)
        ));
    }
    out.push_str("\n  }\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new("t.c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new("t.g");
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new("t.h");
        for v in [0u64, 1, 1, 2, 3, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1117);
        assert_eq!(h.quantile(0.0), 0);
        // p50 falls in the bucket holding 2..=3.
        assert_eq!(h.quantile(0.5), 3);
        // p100 falls in the bucket holding 513..=1023.
        assert_eq!(h.quantile(1.0), 1023);
    }

    #[test]
    fn metrics_json_parses_and_names_every_registered_instrument() {
        let json = metrics_json();
        let value = crate::json::parse_json(&json).expect("metrics JSON is valid");
        let counters = value.get("counters").and_then(JsonValueExt::as_object_len);
        assert_eq!(counters, Some(COUNTERS.len()));
        assert!(value
            .get("counters")
            .and_then(|c| c.get("tune.cache.hits"))
            .is_some());
        assert!(value
            .get("histograms")
            .and_then(|h| h.get("tune.eval_us"))
            .and_then(|h| h.get("p95"))
            .is_some());
    }

    trait JsonValueExt {
        fn as_object_len(&self) -> Option<usize>;
    }
    impl JsonValueExt for crate::json::JsonValue {
        fn as_object_len(&self) -> Option<usize> {
            match self {
                crate::json::JsonValue::Object(kv) => Some(kv.len()),
                _ => None,
            }
        }
    }
}

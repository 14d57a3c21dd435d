//! In-process searches, described by the daemon's own request lines, and the
//! timing wrapper that splits a search into its layers.
//!
//! Every search the benchmark runs — a `tune-cold` pass entry, a
//! `tune-routed` tail tune, the daemon's reference for a cold key — is named
//! by a `TUNE …` line and parsed with [`parse_command`], so the in-process
//! oracle and the daemon's price exactly the same problem.

use std::sync::Mutex;
use std::time::Instant;

use tilelink::{OverlapConfig, OverlapReport};
use tilelink_probe::metrics::{
    SIM_MAKESPAN_BOUNDED_ABORTS, SIM_MAKESPAN_RUNS, TUNE_COMPILE_FULL_REBUILDS,
    TUNE_COMPILE_PATCHED,
};
use tilelink_serve::{parse_command, Command, TuneRequest, WorkloadSpec};
use tilelink_sim::ClusterSpec;
use tilelink_tune::{
    BoundedEval, CostOracle, Objective, SearchExecutor, SearchSpace, Strategy, TuneReport, Tuner,
};
use tilelink_workloads::autotune::{self, MlpOracle, MoeOracle};
use tilelink_workloads::TuneOptions;

use crate::stats::{union_len, Winner};

/// Parses a `TUNE …` line into the daemon's request type.
pub fn request(line: &str) -> Result<TuneRequest, String> {
    match parse_command(line)? {
        Command::Tune(req) => Ok(*req),
        other => Err(format!("{line:?} is not a TUNE request: {other:?}")),
    }
}

/// The oracle the daemon's search builds for `req` (analytic costs).
pub fn oracle_for(req: &TuneRequest) -> Box<dyn CostOracle> {
    match &req.workload {
        WorkloadSpec::Mlp(shape) => Box::new(MlpOracle::new(shape.clone(), req.cluster.clone())),
        WorkloadSpec::Moe { shape, routing } => {
            let mut oracle =
                MoeOracle::new(shape.clone(), req.cluster.clone()).with_objective(req.objective);
            if let Some(spec) = routing {
                oracle = oracle.with_routing(*spec);
            }
            Box::new(oracle)
        }
    }
}

/// The default beam tuner on the process-shared executor, with a fresh
/// in-memory tune cache — the `reproduce --tune` configuration.
pub fn tuner() -> Tuner {
    Tuner::new(Strategy::default()).with_executor(SearchExecutor::global())
}

pub fn winner(report: &TuneReport) -> Winner {
    Winner {
        config: report.best.config.cache_key(),
        total_s: report.best.report.total_s,
    }
}

/// Runs `req` through the public `tuned_full_*` constructors.
pub fn tuned_full(req: &TuneRequest) -> Result<TuneReport, String> {
    let opts = TuneOptions {
        objective: req.objective,
        ..TuneOptions::default()
    }
    .with_executor(SearchExecutor::global());
    let cluster: &ClusterSpec = &req.cluster;
    let tuned = match &req.workload {
        WorkloadSpec::Mlp(shape) => autotune::tuned_full_mlp(shape, cluster, &opts),
        WorkloadSpec::Moe { shape, routing } => {
            let opts = match routing {
                Some(spec) => opts.with_routing(*spec),
                None => opts,
            };
            autotune::tuned_full_moe(shape, cluster, &opts)
        }
    };
    tuned.map(|t| t.search).map_err(|e| e.to_string())
}

/// Timing log of one search's oracle calls, relative to the search start.
#[derive(Debug, Default)]
struct CallLog {
    /// `[start, end)` ns of every oracle call, all threads.
    intervals: Vec<(u64, u64)>,
    bound_calls: u64,
    bound_ns: u64,
    eval_calls: u64,
    eval_ns: u64,
    eval_aborts: u64,
}

/// A [`CostOracle`] that delegates every method to `inner` and times the two
/// that do work: `lower_bound` and `evaluate`/`evaluate_bounded`.
pub struct Probed<'a> {
    inner: &'a dyn CostOracle,
    origin: Instant,
    log: Mutex<CallLog>,
}

impl<'a> Probed<'a> {
    pub fn new(inner: &'a dyn CostOracle) -> Self {
        Self {
            inner,
            origin: Instant::now(),
            log: Mutex::new(CallLog::default()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn record(&self, start: Instant, end: Instant, bound: bool, aborted: bool) {
        let (s, e) = (self.ns(start), self.ns(end));
        let mut log = self.log.lock().expect("call log poisoned");
        log.intervals.push((s, e));
        if bound {
            log.bound_calls += 1;
            log.bound_ns += e - s;
        } else {
            log.eval_calls += 1;
            log.eval_ns += e - s;
            log.eval_aborts += u64::from(aborted);
        }
    }
}

impl CostOracle for Probed<'_> {
    fn workload_key(&self) -> String {
        self.inner.workload_key()
    }

    fn cluster(&self) -> &ClusterSpec {
        self.inner.cluster()
    }

    fn cost_revision(&self) -> String {
        self.inner.cost_revision()
    }

    fn objective(&self) -> Objective {
        self.inner.objective()
    }

    fn evaluate(&self, cfg: &OverlapConfig) -> tilelink::Result<OverlapReport> {
        let start = Instant::now();
        let r = self.inner.evaluate(cfg);
        self.record(start, Instant::now(), false, false);
        r
    }

    fn lower_bound(&self, cfg: &OverlapConfig) -> Option<f64> {
        let start = Instant::now();
        let r = self.inner.lower_bound(cfg);
        self.record(start, Instant::now(), true, false);
        r
    }

    fn evaluate_bounded(&self, cfg: &OverlapConfig, cutoff: f64) -> tilelink::Result<BoundedEval> {
        let start = Instant::now();
        let r = self.inner.evaluate_bounded(cfg, cutoff);
        let aborted = matches!(r, Ok(BoundedEval::Exceeded(_)));
        self.record(start, Instant::now(), false, aborted);
        r
    }

    fn is_supported(&self, cfg: &OverlapConfig) -> bool {
        self.inner.is_supported(cfg)
    }
}

/// The span names the program emits inside an oracle evaluation, in the
/// order the per-layer report lists them.
pub const LAYER_SPANS: [&str; 5] = [
    "compile.build",
    "compile.lower",
    "compile.plan",
    "graph.build",
    "simulate",
];

/// Per-layer accounting of traced searches; sums over every search added.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub searches: u64,
    pub wall_ns: u64,
    /// Search wall not covered by any oracle call (tuner bookkeeping).
    pub self_ns: u64,
    pub bound_calls: u64,
    pub bound_ns: u64,
    pub eval_calls: u64,
    pub eval_ns: u64,
    pub eval_aborts: u64,
    /// Self time of each [`LAYER_SPANS`] entry, summed over threads.
    pub span_ns: [u64; 5],
    pub evaluations: u64,
    pub disposed: u64,
    pub bound_pruned: u64,
    pub patched: u64,
    pub rebuilds: u64,
    pub sim_runs: u64,
    pub sim_aborts: u64,
}

impl LayerTotals {
    /// Time the layers can account for: the tuner's own wall, plus every
    /// oracle call summed over the evaluator threads.
    pub fn thread_wall_ns(&self) -> u64 {
        self.self_ns + self.bound_ns + self.eval_ns
    }

    /// Named time: tuner self, lower bounds and the program's layer spans.
    pub fn named_ns(&self) -> u64 {
        self.self_ns + self.bound_ns + self.span_ns.iter().sum::<u64>()
    }

    /// Oracle-evaluation time no program span covers.
    pub fn eval_other_ns(&self) -> u64 {
        self.eval_ns
            .saturating_sub(self.span_ns.iter().sum::<u64>())
    }

    pub fn coverage(&self) -> f64 {
        ratio(self.named_ns() as f64, self.thread_wall_ns() as f64)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Snapshot of the program's counters that a traced search reads as deltas.
struct Counters {
    patched: u64,
    rebuilds: u64,
    sim_runs: u64,
    sim_aborts: u64,
}

impl Counters {
    fn now() -> Self {
        Self {
            patched: TUNE_COMPILE_PATCHED.get(),
            rebuilds: TUNE_COMPILE_FULL_REBUILDS.get(),
            sim_runs: SIM_MAKESPAN_RUNS.get(),
            sim_aborts: SIM_MAKESPAN_BOUNDED_ABORTS.get(),
        }
    }
}

/// Runs one search on `tuner`, and with `traced` wraps the oracle in
/// [`Probed`] and folds its calls, the program's spans and counter deltas
/// into `totals`. The span profiler must be enabled by the caller when
/// tracing; spans recorded before the call are discarded.
pub fn run_search(
    tuner: &Tuner,
    oracle: &dyn CostOracle,
    space: &SearchSpace,
    traced: Option<&mut LayerTotals>,
) -> Result<(TuneReport, f64), String> {
    let Some(totals) = traced else {
        let start = Instant::now();
        let report = tuner.tune(oracle, space).map_err(|e| e.to_string())?;
        return Ok((report, start.elapsed().as_secs_f64()));
    };
    drop(tilelink_probe::take_spans());
    let before = Counters::now();
    let probed = Probed::new(oracle);
    let start = Instant::now();
    let report = tuner.tune(&probed, space).map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    let after = Counters::now();
    let spans = tilelink_probe::take_spans();
    let log = probed.log.into_inner().expect("call log poisoned");

    let wall_ns = wall.as_nanos() as u64;
    totals.searches += 1;
    totals.wall_ns += wall_ns;
    totals.self_ns += wall_ns.saturating_sub(union_len(&log.intervals));
    totals.bound_calls += log.bound_calls;
    totals.bound_ns += log.bound_ns;
    totals.eval_calls += log.eval_calls;
    totals.eval_ns += log.eval_ns;
    totals.eval_aborts += log.eval_aborts;
    for span in &spans {
        if let Some(i) = LAYER_SPANS.iter().position(|&n| n == span.name) {
            totals.span_ns[i] += span.self_ns();
        }
    }
    totals.evaluations += report.evaluations as u64;
    totals.disposed += report.failed.total() as u64;
    totals.bound_pruned += report.failed.bound_pruned as u64;
    totals.patched += after.patched - before.patched;
    totals.rebuilds += after.rebuilds - before.rebuilds;
    totals.sim_runs += after.sim_runs - before.sim_runs;
    totals.sim_aborts += after.sim_aborts - before.sim_aborts;
    Ok((report, wall.as_secs_f64()))
}

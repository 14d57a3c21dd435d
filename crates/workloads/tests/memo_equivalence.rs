//! Memoised pricing is unobservable in a search's outcome.
//!
//! Each layer oracle prices the half kernels of its bounded evaluations
//! through its own `MakespanMemo`, so a search simulates each distinct kernel
//! once, and again only when a recorded abort floor does not settle a new
//! cutoff. The contract is that the memo changes no search decision:
//!
//! * a search on a fresh oracle returns the report of a reference that
//!   memoises nothing (it builds a new oracle for every call);
//! * a second search on the same oracle, memo warm, returns that report
//!   again at 1 and at 4 executor threads, without simulating anything.
//!
//! `admissibility.rs` prices every candidate at an infinite cutoff before it
//! searches, which fills the memo with exact makespans. These searches start
//! from an empty memo instead, so abort floors are recorded and answered too.
//!
//! The probe counters are process-wide, so this file holds one test: nothing
//! else in the process bumps them while it reads their deltas.

use std::sync::Arc;

use tilelink::{OverlapConfig, OverlapReport};
use tilelink_probe::metrics::{EXEC_MEMO_HITS, EXEC_MEMO_MISSES};
use tilelink_sim::ClusterSpec;
use tilelink_tune::{
    BoundedEval, CostOracle, Objective, SearchExecutor, SearchSpace, Strategy, TuneReport, Tuner,
};
use tilelink_workloads::autotune::{MlpOracle, MoeOracle};
use tilelink_workloads::shapes::{mlp_shapes, moe_shapes};
use tilelink_workloads::{RoutingProfile, RoutingSpec};

/// A memo-free reference: every call prices on an oracle built for it alone.
struct Unmemoised<F> {
    build: F,
    cluster: ClusterSpec,
}

impl<O: CostOracle, F: Fn() -> O + Sync> CostOracle for Unmemoised<F> {
    fn workload_key(&self) -> String {
        (self.build)().workload_key()
    }

    fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    fn cost_revision(&self) -> String {
        (self.build)().cost_revision()
    }

    fn objective(&self) -> Objective {
        (self.build)().objective()
    }

    fn evaluate(&self, cfg: &OverlapConfig) -> tilelink::Result<OverlapReport> {
        (self.build)().evaluate(cfg)
    }

    fn lower_bound(&self, cfg: &OverlapConfig) -> Option<f64> {
        (self.build)().lower_bound(cfg)
    }

    fn evaluate_bounded(&self, cfg: &OverlapConfig, cutoff: f64) -> tilelink::Result<BoundedEval> {
        (self.build)().evaluate_bounded(cfg, cutoff)
    }

    fn is_supported(&self, cfg: &OverlapConfig) -> bool {
        (self.build)().is_supported(cfg)
    }
}

/// The default beam over the standard space, with a fresh in-memory tune
/// cache, on `threads` executor threads (`None`: a private default pool).
fn search(oracle: &dyn CostOracle, threads: Option<usize>) -> TuneReport {
    let mut tuner = Tuner::new(Strategy::default());
    if let Some(threads) = threads {
        tuner = tuner.with_executor(Arc::new(SearchExecutor::with_threads(threads)));
    }
    tuner
        .tune(oracle, &SearchSpace::standard())
        .expect("search succeeds")
}

/// Memo hits and misses since `since`.
fn memo_delta(since: (u64, u64)) -> (u64, u64) {
    (
        EXEC_MEMO_HITS.get() - since.0,
        EXEC_MEMO_MISSES.get() - since.1,
    )
}

fn memo_now() -> (u64, u64) {
    (EXEC_MEMO_HITS.get(), EXEC_MEMO_MISSES.get())
}

/// Every search outcome of the two reports, `total_s` compared by bits.
fn assert_same_report(a: &TuneReport, b: &TuneReport, ctx: &str) {
    assert_eq!(a.best.config, b.best.config, "{ctx}: winner");
    for (x, y) in [
        (a.best.report.total_s, b.best.report.total_s),
        (a.best.report.comm_only_s, b.best.report.comm_only_s),
        (a.best.report.comp_only_s, b.best.report.comp_only_s),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: winner report");
    }
    assert_eq!(a.ranked.len(), b.ranked.len(), "{ctx}: ranked count");
    for (i, (x, y)) in a.ranked.iter().zip(&b.ranked).enumerate() {
        assert_eq!(x.config, y.config, "{ctx}: rank {i} config");
        assert_eq!(
            x.total_s.to_bits(),
            y.total_s.to_bits(),
            "{ctx}: rank {i} total_s"
        );
    }
    assert_eq!(a.evaluations, b.evaluations, "{ctx}: evaluations");
    assert_eq!(a.bounded_aborts, b.bounded_aborts, "{ctx}: bounded aborts");
    assert_eq!(a.failed, b.failed, "{ctx}: failed");
    assert_eq!(a.rounds, b.rounds, "{ctx}: rounds");
}

/// Checks the memo contract for the oracle `build` returns.
fn check<O: CostOracle>(name: &str, cluster: &ClusterSpec, build: impl Fn() -> O + Sync) {
    let reference = search(
        &Unmemoised {
            build: &build,
            cluster: cluster.clone(),
        },
        None,
    );
    assert!(
        reference.bounded_aborts > 0,
        "{name}: the reference aborts no simulation, so no floor is covered"
    );

    let oracle = build();
    let start = memo_now();
    let fresh = search(&oracle, None);
    let (hits, misses) = memo_delta(start);
    assert_same_report(&reference, &fresh, &format!("{name}: fresh memo"));
    assert!(
        hits > 0 && misses > 0,
        "{name}: {hits} hits, {misses} misses"
    );

    for threads in [1, 4] {
        let start = memo_now();
        let warm = search(&oracle, Some(threads));
        let (hits, misses) = memo_delta(start);
        let ctx = format!("{name}: warm memo, {threads} threads");
        assert_same_report(&reference, &warm, &ctx);
        assert!(hits > 0, "{ctx}: no memo hits");
        assert_eq!(misses, 0, "{ctx}: a repeated search simulated");
    }
}

#[test]
fn memoised_searches_match_a_memo_free_reference() {
    let cluster = ClusterSpec::h800_node(8);
    let mlp = mlp_shapes()[0].clone();
    check("MLP-1", &cluster, || {
        MlpOracle::new(mlp.clone(), cluster.clone())
    });
    let moe3 = moe_shapes()[2].clone();
    check("MoE-3", &cluster, || {
        MoeOracle::new(moe3.clone(), cluster.clone())
    });
    let moe1 = moe_shapes()[0].clone();
    let spec = RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 });
    check("routed MoE-1 p95", &cluster, || {
        MoeOracle::new(moe1.clone(), cluster.clone())
            .with_routing(spec)
            .with_objective(Objective::Percentile(95))
    });
}

//! The cost oracle: anything that can price one candidate configuration.

use tilelink::{OverlapConfig, OverlapReport};
use tilelink_sim::ClusterSpec;

use crate::Objective;

/// Outcome of a cutoff-bounded oracle evaluation: the simulator's bounded
/// makespan, so oracles return what `tilelink::exec::simulate_makespan`
/// produces.
///
/// Returned by [`CostOracle::evaluate_bounded`]: either the finished
/// objective value (bit-identical to [`CostOracle::evaluate`]'s `total_s`) or
/// proof that it strictly exceeds the caller's cutoff, carrying a certified
/// lower bound on the true value.
pub use tilelink_sim::BoundedMakespan as BoundedEval;

/// Prices one [`OverlapConfig`] for one workload on one cluster.
///
/// The workload crates implement this by building the tile program for the
/// candidate, compiling it with [`tilelink::Compiler`] and simulating the
/// result on the `tilelink-sim` engine; the simulated makespan
/// ([`OverlapReport::total_s`]) is the objective the tuner minimises.
///
/// The tuner ranks candidates by [`CostOracle::evaluate_bounded`], which only
/// has to price that objective value, and calls [`CostOracle::evaluate`] once
/// per search, for the winner's full report.
///
/// Implementations must be deterministic and thread-safe (`Sync`): the tuner
/// calls [`CostOracle::evaluate_bounded`] concurrently from multiple threads,
/// and the persistent cache assumes a config always prices to the same cost.
pub trait CostOracle: Sync {
    /// Stable identifier of the workload kind and shape, used in cache keys.
    ///
    /// Must be unique per (workload, shape): e.g. `"mlp/S8192-H4096-I11008"`.
    fn workload_key(&self) -> String;

    /// The cluster the workload runs on.
    fn cluster(&self) -> &ClusterSpec;

    /// Revision fingerprint of the cost model pricing the evaluations (see
    /// [`tilelink_sim::CostProvider::revision`]).
    ///
    /// Folded into the persistent tuning-cache key so entries evaluated under
    /// a different cost model miss instead of serving stale timings. Oracles
    /// that evaluate through a non-default provider must override this with
    /// that provider's revision.
    fn cost_revision(&self) -> String {
        tilelink_sim::CostModel::REVISION.to_string()
    }

    /// The statistic this oracle's [`CostOracle::evaluate`] reports when the
    /// workload is priced over sampled executions (see [`Objective`]).
    ///
    /// Deterministic single-execution oracles keep the default
    /// ([`Objective::Mean`]). The objective's [`Objective::key`] is folded
    /// into the persistent tuning-cache key alongside the cost revision, so
    /// mean-tuned and tail-tuned entries never collide.
    fn objective(&self) -> Objective {
        Objective::Mean
    }

    /// Compiles and simulates one candidate exactly, returning its full
    /// timing report: the objective value as `total_s`, plus the
    /// communication-only and computation-only times behind the overlap
    /// ratio. The tuner calls it for the winner of a search only.
    ///
    /// An oracle may answer the overlapped makespan from the prices its
    /// bounded evaluations recorded (the workload oracles read it from their
    /// `tilelink::exec::MakespanMemo`) as long as the report stays the one a
    /// fresh simulation would produce; only the comm-only and compute-only
    /// runs are then new work.
    ///
    /// # Errors
    ///
    /// Returns an error if the candidate fails to compile or simulate; the
    /// tuner treats such candidates as pruned.
    fn evaluate(&self, cfg: &OverlapConfig) -> tilelink::Result<OverlapReport>;

    /// A cheap *admissible* lower bound on the objective value
    /// [`CostOracle::evaluate`] would report for `cfg`, or `None` when no
    /// sound bound is available.
    ///
    /// Admissible means `lower_bound(cfg) <= evaluate(cfg).total_s` (or the
    /// folded objective value for sampled oracles) for every supported
    /// config: the tuner skips candidates whose bound already meets or
    /// exceeds the incumbent best, so an inadmissible bound would change
    /// winners. Implementations must not compile, build graphs or run event
    /// simulation — the point is to price the candidate in nanoseconds from
    /// closed-form work/byte totals (critical-path compute, per-rank GEMM
    /// work over SM throughput, per-link bytes over bandwidth).
    ///
    /// The default returns `None`: no bound, nothing is pruned.
    fn lower_bound(&self, cfg: &OverlapConfig) -> Option<f64> {
        let _ = cfg;
        None
    }

    /// The objective value alone, under an abort cutoff: what the tuner
    /// ranks every candidate by. Implementations price only what the value
    /// needs (for the workload oracles, the overlapped makespan — no comm-only
    /// or compute-only simulation) and may stop early and return
    /// [`BoundedEval::Exceeded`] as soon as the value provably exceeds
    /// `cutoff` strictly.
    ///
    /// The contract mirrors [`tilelink_sim::Engine::makespan`]: when the
    /// cutoff is not hit, the [`BoundedEval::Finished`] value must be
    /// bit-identical to [`CostOracle::evaluate`]'s `total_s`. The default
    /// prices the full report, ignores the cutoff and never aborts, which is
    /// always sound.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CostOracle::evaluate`].
    fn evaluate_bounded(&self, cfg: &OverlapConfig, cutoff: f64) -> tilelink::Result<BoundedEval> {
        let _ = cutoff;
        self.evaluate(cfg)
            .map(|report| BoundedEval::Finished(report.total_s))
    }

    /// Workload-specific validity constraints beyond
    /// [`OverlapConfig::validate`] (for example tile-divisibility rules).
    /// Unsupported candidates are pruned without an oracle call.
    fn is_supported(&self, cfg: &OverlapConfig) -> bool {
        let _ = cfg;
        true
    }
}

/// Stable identifier of a cluster, used in cache keys.
///
/// Encodes every hardware parameter that feeds the cost model, so tuning
/// results for different simulated machines never alias.
pub fn cluster_key(cluster: &ClusterSpec) -> String {
    let g = &cluster.gpu;
    format!(
        "{}-sm{}-t{:.0}-hbm{:.0}-nv{:.0}-ib{:.0}-dma{}-kl{:.1}-hs{:.1}x{}x{}",
        g.name,
        g.sm_count,
        g.peak_tflops,
        g.hbm_gbps,
        g.nvlink_gbps,
        g.ib_gbps,
        g.dma_engines,
        g.kernel_launch_us,
        g.host_sync_us,
        cluster.gpus_per_node,
        cluster.nodes
    )
}

/// Boxed admissible lower-bound closure (see [`CostOracle::lower_bound`]).
pub type BoundFn = Box<dyn Fn(&OverlapConfig) -> Option<f64> + Send + Sync>;

/// A [`CostOracle`] built from closures, mainly for tests and experiments.
pub struct FnOracle<E, S = fn(&OverlapConfig) -> bool>
where
    E: Fn(&OverlapConfig) -> tilelink::Result<OverlapReport> + Sync,
    S: Fn(&OverlapConfig) -> bool + Sync,
{
    key: String,
    cluster: ClusterSpec,
    evaluate: E,
    supported: S,
    revision: String,
    objective: Objective,
    /// Optional admissible bound closure (boxed so adding one does not grow
    /// the type's generic surface).
    lower_bound: Option<BoundFn>,
}

impl<E> FnOracle<E>
where
    E: Fn(&OverlapConfig) -> tilelink::Result<OverlapReport> + Sync,
{
    /// Creates an oracle from an evaluation closure; every config is supported.
    pub fn new(key: impl Into<String>, cluster: ClusterSpec, evaluate: E) -> Self {
        Self {
            key: key.into(),
            cluster,
            evaluate,
            supported: |_| true,
            revision: tilelink_sim::CostModel::REVISION.to_string(),
            objective: Objective::Mean,
            lower_bound: None,
        }
    }
}

impl<E, S> FnOracle<E, S>
where
    E: Fn(&OverlapConfig) -> tilelink::Result<OverlapReport> + Sync,
    S: Fn(&OverlapConfig) -> bool + Sync,
{
    /// Replaces the support predicate.
    pub fn with_support<S2>(self, supported: S2) -> FnOracle<E, S2>
    where
        S2: Fn(&OverlapConfig) -> bool + Sync,
    {
        FnOracle {
            key: self.key,
            cluster: self.cluster,
            evaluate: self.evaluate,
            supported,
            revision: self.revision,
            objective: self.objective,
            lower_bound: self.lower_bound,
        }
    }

    /// Attaches an admissible lower-bound closure (see
    /// [`CostOracle::lower_bound`]).
    pub fn with_lower_bound(
        mut self,
        lower_bound: impl Fn(&OverlapConfig) -> Option<f64> + Send + Sync + 'static,
    ) -> Self {
        self.lower_bound = Some(Box::new(lower_bound));
        self
    }

    /// Replaces the cost-model revision reported for cache keying.
    pub fn with_revision(mut self, revision: impl Into<String>) -> Self {
        self.revision = revision.into();
        self
    }

    /// Replaces the objective reported for cache keying.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }
}

impl<E, S> CostOracle for FnOracle<E, S>
where
    E: Fn(&OverlapConfig) -> tilelink::Result<OverlapReport> + Sync,
    S: Fn(&OverlapConfig) -> bool + Sync,
{
    fn workload_key(&self) -> String {
        self.key.clone()
    }

    fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    fn evaluate(&self, cfg: &OverlapConfig) -> tilelink::Result<OverlapReport> {
        (self.evaluate)(cfg)
    }

    fn is_supported(&self, cfg: &OverlapConfig) -> bool {
        (self.supported)(cfg)
    }

    fn lower_bound(&self, cfg: &OverlapConfig) -> Option<f64> {
        self.lower_bound.as_ref().and_then(|f| f(cfg))
    }

    fn cost_revision(&self) -> String {
        self.revision.clone()
    }

    fn objective(&self) -> Objective {
        self.objective
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_key_distinguishes_topologies() {
        let a = cluster_key(&ClusterSpec::h800_node(8));
        let b = cluster_key(&ClusterSpec::h800_multi_node(2));
        let c = cluster_key(&ClusterSpec::new(tilelink_sim::GpuSpec::a100(), 8, 1));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn default_revision_is_the_analytic_model() {
        let oracle = FnOracle::new("t", ClusterSpec::h800_node(2), |_| {
            Ok(OverlapReport::new(1.0, 0.5, 0.5))
        });
        assert_eq!(oracle.cost_revision(), tilelink_sim::CostModel::REVISION);
        let oracle = oracle.with_revision("calibrated-abc");
        assert_eq!(oracle.cost_revision(), "calibrated-abc");
    }

    #[test]
    fn fn_oracle_roundtrip() {
        let oracle = FnOracle::new("t", ClusterSpec::h800_node(2), |_| {
            Ok(OverlapReport::new(1.0, 0.5, 0.5))
        })
        .with_support(|c| c.num_stages <= 2);
        assert_eq!(oracle.workload_key(), "t");
        assert!(oracle.is_supported(&OverlapConfig {
            num_stages: 2,
            ..OverlapConfig::default()
        }));
        assert!(!oracle.is_supported(&OverlapConfig::default()));
        assert_eq!(
            oracle.evaluate(&OverlapConfig::default()).unwrap().total_s,
            1.0
        );
    }
}

//! Simulator-guided autotuning of the workload layers.
//!
//! This module connects the layers of this crate to the `tilelink-tune`
//! design-space search: the MLP and MoE layers each get a
//! [`tilelink_tune::CostOracle`] that compiles the candidate configuration
//! through the TileLink compiler and measures the simulated makespan, plus a
//! `tuned_*` constructor that runs the search and returns the best
//! configuration together with its timing.
//!
//! Every front end goes from a workload to a tuned layer through the same
//! two functions: [`WorkloadSpec::oracle`] builds the oracle and
//! [`run_tune`] searches it. The `tuned_full_*` constructors,
//! `reproduce --tune` and the tuning daemon all call them, so a workload
//! tuned through any of them gets the same winner.
//!
//! The paper picks the per-workload `OverlapConfig` by hand (Section 7); these
//! constructors *generate* it, which is the point of decoupling the design
//! space in the first place (Section 3.1).

use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use tilelink::exec::MakespanMemo;
use tilelink::{OverlapConfig, OverlapReport};
use tilelink_sim::{analytic_cost, ClusterSpec, SharedCost};
use tilelink_tune::{
    BoundedEval, CostOracle, Objective, SearchExecutor, SearchSpace, Strategy, TuneCache,
    TuneReport, Tuner,
};

use crate::moe::{RoutingProfile, RoutingSample, RoutingSampler};
use crate::{bounds, comm, mlp, moe, MlpShape, MoeShape};

// ---------------------------------------------------------------------------
// Routing-aware tuning inputs
// ---------------------------------------------------------------------------

/// Default number of routings sampled per candidate evaluation.
pub const DEFAULT_ROUTING_SAMPLES: usize = 8;

/// Default seed of the routing sampler (any fixed value works; what matters
/// is that the same seed prices the same routings on every run).
pub const DEFAULT_ROUTING_SEED: u64 = 0x7e11_e50e;

/// How a routing-aware tuning run samples the expert loads.
///
/// A spec pins the full sampled distribution: the [`RoutingProfile`], the
/// number of samples per candidate and the sampler seed. All three are part
/// of the oracle's workload key, so tuning-cache entries for different
/// distributions never alias.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingSpec {
    /// The expert-popularity distribution to sample.
    pub profile: RoutingProfile,
    /// Routings priced per candidate configuration.
    pub samples: usize,
    /// Sampler seed (same seed ⇒ bit-identical samples and tuned winners).
    pub seed: u64,
}

impl RoutingSpec {
    /// A spec for `profile` with the default sample count and seed.
    pub fn new(profile: RoutingProfile) -> Self {
        Self {
            profile,
            samples: DEFAULT_ROUTING_SAMPLES,
            seed: DEFAULT_ROUTING_SEED,
        }
    }

    /// The routing a search for `objective` prices, given the requested
    /// `profile`: that profile's default spec, or — for a tail objective
    /// without one — sampled uniform routings, since a percentile or worst
    /// case needs a distribution to take it over. `None` (the mean objective
    /// without a profile) prices the expected uniform routing.
    ///
    /// Every front end (`reproduce`, the `autotune` example, the serve
    /// protocol) resolves its routing arguments through this one rule.
    pub fn for_objective(profile: Option<RoutingProfile>, objective: Objective) -> Option<Self> {
        match (profile, objective) {
            (Some(profile), _) => Some(Self::new(profile)),
            (None, Objective::Mean) => None,
            (None, _) => Some(Self::new(RoutingProfile::Uniform)),
        }
    }

    /// The sampler this spec describes.
    pub fn sampler(&self) -> RoutingSampler {
        RoutingSampler::new(self.profile, self.seed)
    }
}

impl fmt::Display for RoutingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},n={},seed={}", self.profile, self.samples, self.seed)
    }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Prices one config for the full tensor-parallel MLP layer (both halves plus
/// the activation, mirroring [`mlp::timed_full_mlp`] but with the candidate
/// config applied to both halves).
///
/// Both evaluations price each half kernel through the oracle's own
/// [`MakespanMemo`], so every distinct kernel is simulated once however many
/// configs and searches compile to it: a search winner's exact report
/// ([`CostOracle::evaluate`]) reads each half's overlapped makespan there
/// and simulates only its comm-only and compute-only runs.
#[derive(Debug, Clone)]
pub struct MlpOracle {
    shape: MlpShape,
    memo: MakespanMemo,
}

impl MlpOracle {
    /// Creates the oracle for one MLP shape on one cluster (analytic costs).
    pub fn new(shape: MlpShape, cluster: ClusterSpec) -> Self {
        Self {
            shape,
            memo: MakespanMemo::new(analytic_cost(&cluster)),
        }
    }

    /// Replaces the cost provider (and with it the cluster) the oracle
    /// evaluates against, starting a new memo.
    pub fn with_cost(mut self, cost: SharedCost) -> Self {
        self.memo = MakespanMemo::new(cost);
        self
    }
}

impl CostOracle for MlpOracle {
    fn workload_key(&self) -> String {
        format!(
            "mlp/S{}-H{}-I{}",
            self.shape.tokens, self.shape.hidden, self.shape.intermediate
        )
    }

    fn cluster(&self) -> &ClusterSpec {
        self.memo.cost().cluster()
    }

    fn cost_revision(&self) -> String {
        self.memo.cost().revision()
    }

    fn evaluate(&self, cfg: &OverlapConfig) -> tilelink::Result<OverlapReport> {
        let (shape, cost) = (&self.shape, self.memo.cost());
        bounds::exact_layer(
            &self.memo,
            mlp::activation_seconds(shape, &**cost),
            || mlp::ag_gemm_kernel(shape, cfg, cost),
            || mlp::gemm_rs_kernel(shape, cfg, cost),
        )
    }

    fn lower_bound(&self, cfg: &OverlapConfig) -> Option<f64> {
        let cost = &**self.memo.cost();
        Some(
            bounds::mlp_ag_gemm_bound(&self.shape, cfg, cost)
                + bounds::mlp_gemm_rs_bound(&self.shape, cfg, cost)
                + mlp::activation_seconds(&self.shape, cost),
        )
    }

    fn evaluate_bounded(&self, cfg: &OverlapConfig, cutoff: f64) -> tilelink::Result<BoundedEval> {
        let (shape, cost) = (&self.shape, self.memo.cost());
        bounds::compose_layer(
            &self.memo,
            cutoff,
            mlp::activation_seconds(shape, &**cost),
            bounds::mlp_gemm_rs_bound(shape, cfg, &**cost),
            || mlp::ag_gemm_kernel(shape, cfg, cost),
            || mlp::gemm_rs_kernel(shape, cfg, cost),
        )
    }

    fn is_supported(&self, cfg: &OverlapConfig) -> bool {
        let world = self.cluster().world_size();
        comm::ring_supported(self.shape.tokens, world, cfg.compute_tile.m)
    }
}

/// Prices one config for the full MoE layer (both halves plus activation,
/// mirroring [`moe::timed_full_moe`] with the candidate config).
///
/// By default the oracle prices the *expected* uniform routing through the
/// static program builders (the historical behaviour, so existing figures and
/// caches are unchanged). With [`MoeOracle::with_routing`] it instead prices
/// every candidate over sampled routings through the dynamic-mapping builders
/// ([`moe::timed_routed_full_moe`]) and folds the per-sample prices
/// with its [`Objective`] — tuning for the tail of the routing distribution
/// rather than the mean.
///
/// Like [`MlpOracle`], both evaluations price each half kernel (per sample,
/// when routed) through the oracle's own [`MakespanMemo`]. A routed
/// percentile or worst-case [`CostOracle::evaluate`] ranks the samples by
/// their memoised layer totals and prices the comm/compute split of the one
/// sample its objective picks; the mean prices every sample's split.
#[derive(Debug, Clone)]
pub struct MoeOracle {
    shape: MoeShape,
    memo: MakespanMemo,
    /// The routing spec and the samples drawn from it on first use.
    routing: Option<(RoutingSpec, OnceLock<Vec<RoutingSample>>)>,
    objective: Objective,
}

impl MoeOracle {
    /// Creates the oracle for one MoE shape on one cluster (analytic costs,
    /// expected uniform routing, mean objective).
    pub fn new(shape: MoeShape, cluster: ClusterSpec) -> Self {
        Self {
            shape,
            memo: MakespanMemo::new(analytic_cost(&cluster)),
            routing: None,
            objective: Objective::Mean,
        }
    }

    /// Replaces the cost provider (and with it the cluster) the oracle
    /// evaluates against, starting a new memo.
    pub fn with_cost(mut self, cost: SharedCost) -> Self {
        self.memo = MakespanMemo::new(cost);
        self
    }

    /// Prices candidates over routings sampled from `spec` instead of the
    /// expected uniform routing. The `spec.samples` routings (at least one)
    /// are drawn once, by the first evaluation, and every later evaluation
    /// reuses them; an oracle built only for its
    /// [`CostOracle::workload_key`] draws nothing.
    pub fn with_routing(mut self, spec: RoutingSpec) -> Self {
        self.routing = Some((spec, OnceLock::new()));
        self
    }

    /// Replaces the statistic folding the per-sample prices (only meaningful
    /// together with [`MoeOracle::with_routing`]; a non-mean objective over
    /// the single expected-routing evaluation is the identity).
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// The sampled routings, drawn on the first call; `None` prices the
    /// expected routing.
    fn samples(&self) -> Option<&[RoutingSample]> {
        let (spec, samples) = self.routing.as_ref()?;
        Some(samples.get_or_init(|| spec.sampler().samples_for(&self.shape, spec.samples.max(1))))
    }

    /// The layer makespan under one sampled routing, cut off at `cutoff`.
    fn routed_makespan(
        &self,
        cfg: &OverlapConfig,
        sample: &RoutingSample,
        cutoff: f64,
    ) -> tilelink::Result<BoundedEval> {
        let (shape, cost) = (&self.shape, self.memo.cost());
        bounds::compose_layer(
            &self.memo,
            cutoff,
            moe::activation_seconds(shape, &**cost),
            bounds::moe_second_bound(shape, cfg, &**cost),
            || moe::routed_ag_group_gemm_kernel(shape, cfg, cost, sample),
            || moe::routed_group_gemm_rs_kernel(shape, cfg, cost, sample),
        )
    }
}

impl CostOracle for MoeOracle {
    fn workload_key(&self) -> String {
        let base = format!(
            "moe/S{}-H{}-I{}-E{}-K{}",
            self.shape.tokens,
            self.shape.hidden,
            self.shape.intermediate,
            self.shape.experts,
            self.shape.top_k
        );
        match &self.routing {
            None => base,
            Some((spec, _)) => format!("{base}/rt={spec}"),
        }
    }

    fn cluster(&self) -> &ClusterSpec {
        self.memo.cost().cluster()
    }

    fn cost_revision(&self) -> String {
        self.memo.cost().revision()
    }

    fn objective(&self) -> Objective {
        self.objective
    }

    fn evaluate(&self, cfg: &OverlapConfig) -> tilelink::Result<OverlapReport> {
        let (shape, cost) = (&self.shape, self.memo.cost());
        let act = moe::activation_seconds(shape, &**cost);
        let Some(samples) = self.samples() else {
            return bounds::exact_layer(
                &self.memo,
                act,
                || moe::ag_group_gemm_kernel(shape, cfg, cost),
                || moe::group_gemm_rs_kernel(shape, cfg, cost),
            );
        };
        let report = |sample: &RoutingSample| {
            bounds::exact_layer(
                &self.memo,
                act,
                || moe::routed_ag_group_gemm_kernel(shape, cfg, cost, sample),
                || moe::routed_group_gemm_rs_kernel(shape, cfg, cost, sample),
            )
        };
        if self.objective == Objective::Mean {
            let reports = samples
                .iter()
                .map(report)
                .collect::<tilelink::Result<Vec<_>>>()?;
            return Ok(self.objective.fold_reports(&reports));
        }
        // A percentile or the worst case reports one sample: pick it by the
        // layer totals (read from the memo after a search; each sums as
        // `(first + second) + act`, the `total_s` of its exact report) and
        // price only its split.
        let totals = samples
            .iter()
            .map(|sample| Ok(self.routed_makespan(cfg, sample, f64::INFINITY)?.clock()))
            .collect::<tilelink::Result<Vec<_>>>()?;
        let picked = self.objective.picked_sample(&totals);
        report(&samples[picked.expect("a non-mean objective picks a sample")])
    }

    fn lower_bound(&self, cfg: &OverlapConfig) -> Option<f64> {
        // The per-sample layer bound is routing-invariant (every sample
        // conserves the dispatched row count and the AG traffic), so it
        // floors each sample's total and therefore every objective fold —
        // the mean, any percentile and the worst case alike.
        let cost = &**self.memo.cost();
        Some(
            bounds::moe_first_bound(&self.shape, cfg, cost)
                + bounds::moe_second_bound(&self.shape, cfg, cost)
                + moe::activation_seconds(&self.shape, cost),
        )
    }

    fn evaluate_bounded(&self, cfg: &OverlapConfig, cutoff: f64) -> tilelink::Result<BoundedEval> {
        let (shape, cost) = (&self.shape, self.memo.cost());
        let Some(samples) = self.samples() else {
            return bounds::compose_layer(
                &self.memo,
                cutoff,
                moe::activation_seconds(shape, &**cost),
                bounds::moe_second_bound(shape, cfg, &**cost),
                || moe::ag_group_gemm_kernel(shape, cfg, cost),
                || moe::group_gemm_rs_kernel(shape, cfg, cost),
            );
        };

        let n = samples.len();
        let mut totals = Vec::with_capacity(n);
        let Some(pick) = self.objective.sorted_pick_index(n) else {
            // Mean: sample i gets the budget that keeps the *mean* beatable:
            // n·cutoff minus the totals already simulated minus the
            // admissible per-sample bound for each sample still to come. An
            // abort therefore certifies mean > cutoff.
            let lb_sample = self
                .lower_bound(cfg)
                .expect("moe oracle always has a bound");
            let mut sum = 0.0;
            for (i, sample) in samples.iter().enumerate() {
                let remaining_lb = (n - 1 - i) as f64 * lb_sample;
                let budget = n as f64 * cutoff - sum - remaining_lb;
                match self.routed_makespan(cfg, sample, budget)? {
                    BoundedEval::Finished(total) => {
                        sum += total;
                        totals.push(total);
                    }
                    BoundedEval::Exceeded(clock) => {
                        return Ok(BoundedEval::Exceeded(
                            (sum + clock + remaining_lb) / n as f64,
                        ))
                    }
                }
            }
            return Ok(BoundedEval::Finished(self.objective.fold(&totals)));
        };
        // Percentile and worst case: the nearest-rank order statistic at
        // sorted index `pick`. Aborted samples (total > cutoff) sort strictly
        // above every finished one (total <= cutoff), so while at most
        // n - 1 - pick samples abort the pick falls inside the finished
        // prefix and is the unbounded fold's value bit for bit. One abort
        // more puts the folded value at or above an aborted sample's total,
        // which every aborted clock floors: stop there.
        let allowed_aborts = n - 1 - pick;
        let (mut aborts, mut aborted_floor) = (0, f64::INFINITY);
        for sample in samples {
            match self.routed_makespan(cfg, sample, cutoff)? {
                BoundedEval::Finished(total) => totals.push(total),
                BoundedEval::Exceeded(clock) => {
                    aborts += 1;
                    aborted_floor = aborted_floor.min(clock);
                    if aborts > allowed_aborts {
                        return Ok(BoundedEval::Exceeded(aborted_floor));
                    }
                }
            }
        }
        totals.sort_by(f64::total_cmp);
        Ok(BoundedEval::Finished(totals[pick]))
    }

    fn is_supported(&self, cfg: &OverlapConfig) -> bool {
        let world = self.cluster().world_size();
        comm::ring_supported(self.shape.tokens, world, cfg.compute_tile.m)
    }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A workload to tune: one catalog shape from Table 4, and for MoE the
/// routing its candidates are priced over.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A tensor-parallel MLP shape ("MLP-1".."MLP-6").
    Mlp(MlpShape),
    /// An MoE shape ("MoE-1".."MoE-6"), optionally priced over sampled
    /// routings.
    Moe {
        /// The shape to tune.
        shape: MoeShape,
        /// Routing distribution to sample; `None` prices expected uniform
        /// routing.
        routing: Option<RoutingSpec>,
    },
}

impl WorkloadSpec {
    /// The catalog name of the shape ("MLP-3", "MoE-1", …).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Mlp(shape) => shape.name,
            WorkloadSpec::Moe { shape, .. } => shape.name,
        }
    }

    /// The oracle that prices this workload with `cost`, on the provider's
    /// cluster, for `objective`: the one place a workload becomes an oracle.
    /// An MLP layer is deterministic, so it ignores `objective`.
    ///
    /// Building the oracle draws no routing sample, so the tuning daemon
    /// keys a request by [`TuneCache::oracle_prefix`] of this oracle before
    /// it decides whether to search.
    pub fn oracle(&self, cost: SharedCost, objective: Objective) -> Box<dyn CostOracle> {
        let cluster = cost.cluster().clone();
        match self {
            WorkloadSpec::Mlp(shape) => {
                Box::new(MlpOracle::new(shape.clone(), cluster).with_cost(cost))
            }
            WorkloadSpec::Moe { shape, routing } => {
                let oracle = MoeOracle::new(shape.clone(), cluster)
                    .with_cost(cost)
                    .with_objective(objective);
                match routing {
                    Some(spec) => Box::new(oracle.with_routing(*spec)),
                    None => Box::new(oracle),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tuned constructors
// ---------------------------------------------------------------------------

/// Options shared by the `tuned_*` constructors and [`run_tune`].
///
/// Every constructor searches [`SearchSpace::standard`] with the default
/// beam ([`Strategy::default`]) through [`run_tune`]; these options only
/// choose where results are cached, how candidates are priced and what the
/// search minimises. Call [`Tuner`] directly for a custom space, an
/// exhaustive search or another beam width.
#[derive(Debug, Clone, Default)]
pub struct TuneOptions {
    /// Persistent cache file; `None` keeps the cache in memory.
    pub cache_path: Option<PathBuf>,
    /// Cost provider pricing the candidates; `None` uses the analytic model
    /// for the constructor's cluster. The provider's revision becomes part of
    /// the tuning-cache key, so results tuned under different cost models
    /// never alias.
    pub cost: Option<SharedCost>,
    /// Routing distribution for MoE tuning; `None` prices the expected
    /// uniform routing (the historical behaviour). Ignored by the non-MoE
    /// constructors, whose mappings are static.
    pub routing: Option<RoutingSpec>,
    /// Statistic of the sampled makespans the search minimises (see
    /// [`Objective`]); folded into the tuning-cache key so mean-tuned and
    /// tail-tuned entries never collide. Only meaningful together with
    /// [`TuneOptions::routing`].
    pub objective: Objective,
    /// Prints per-beam-round search progress (round, best-so-far, evals) to
    /// stderr while tuning runs, then what pricing the winner cost. The
    /// round numbers are always available afterwards in
    /// [`tilelink_tune::TuneReport::rounds`].
    pub verbose: bool,
    /// Pins the pool candidates are evaluated on. `None` (the default)
    /// evaluates on [`SearchExecutor::global`], the one warm pool every
    /// search in the process shares. Results are bit-identical on any pool.
    pub executor: Option<Arc<SearchExecutor>>,
}

impl TuneOptions {
    /// Uses the process-wide default persistent cache (see
    /// [`TuneCache::default_path`]).
    pub fn with_default_cache(mut self) -> Self {
        self.cache_path = Some(TuneCache::default_path());
        self
    }

    /// Prices candidates with an explicit cost provider.
    pub fn with_cost(mut self, cost: SharedCost) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Prices MoE candidates over routings sampled from `spec`.
    pub fn with_routing(mut self, spec: RoutingSpec) -> Self {
        self.routing = Some(spec);
        self
    }

    /// Minimises `objective` over the sampled makespans.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Prints per-beam-round search progress to stderr.
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Evaluates candidates on `executor` instead of
    /// [`SearchExecutor::global`].
    pub fn with_executor(mut self, executor: Arc<SearchExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }
}

/// A tuned layer: the winning configuration, its simulated timing, and the
/// full search report.
#[derive(Debug, Clone)]
pub struct TunedLayer {
    /// The best configuration the search found.
    pub config: OverlapConfig,
    /// Simulated timing of the layer under [`TunedLayer::config`].
    pub layer: OverlapReport,
    /// The ranked search outcome (all candidates, statistics).
    pub search: TuneReport,
}

/// Tunes `spec` on `cluster`: the provider from `opts` (the analytic model
/// when it names none) prices the oracle [`WorkloadSpec::oracle`] builds,
/// and [`run_tune`] searches it.
///
/// # Panics
///
/// Panics if `opts.cost` is priced for a different cluster than `cluster` —
/// silently tuning against the provider's topology would return a winning
/// config (and cache entries) for hardware the caller did not ask about.
fn tuned_full(
    spec: &WorkloadSpec,
    cluster: &ClusterSpec,
    opts: &TuneOptions,
) -> tilelink_tune::Result<TunedLayer> {
    let cost = match &opts.cost {
        Some(cost) => {
            assert_eq!(
                cost.cluster(),
                cluster,
                "TuneOptions::cost is priced for a different cluster"
            );
            cost.clone()
        }
        None => analytic_cost(cluster),
    };
    run_tune(&*spec.oracle(cost, opts.objective), opts)
}

/// Searches `oracle` the one way every front end does: the default beam
/// ([`Strategy::default`]) over [`SearchSpace::standard`], through the
/// persistent cache at [`TuneOptions::cache_path`] when one is set. The
/// oracle fixes the workload, cluster, cost model, routing and objective,
/// so of `opts` only the cache, the pool and `verbose` apply here.
///
/// # Errors
///
/// Returns an error if the space prunes empty, every candidate fails, or
/// the persistent cache cannot be read or written.
pub fn run_tune(oracle: &dyn CostOracle, opts: &TuneOptions) -> tilelink_tune::Result<TunedLayer> {
    let mut tuner = Tuner::new(Strategy::default()).with_verbose(opts.verbose);
    if let Some(executor) = &opts.executor {
        tuner = tuner.with_executor(Arc::clone(executor));
    }
    if let Some(path) = &opts.cache_path {
        tuner = tuner.with_cache(TuneCache::open(path)?);
    }
    let search = tuner.tune(oracle, &SearchSpace::standard())?;
    Ok(TunedLayer {
        config: search.best.config,
        layer: search.best.report,
        search,
    })
}

/// Searches the overlap design space for the full MLP layer and returns the
/// tuned configuration (compare with [`mlp::timed_full_mlp`], which replays
/// the hand-picked defaults).
///
/// # Errors
///
/// Returns an error if the space prunes empty or every candidate fails.
pub fn tuned_full_mlp(
    shape: &MlpShape,
    cluster: &ClusterSpec,
    opts: &TuneOptions,
) -> tilelink_tune::Result<TunedLayer> {
    tuned_full(&WorkloadSpec::Mlp(shape.clone()), cluster, opts)
}

/// Searches the overlap design space for the full MoE layer.
///
/// With [`TuneOptions::routing`] set, candidates are priced over sampled
/// routings through the dynamic tile mapping and the search minimises
/// [`TuneOptions::objective`] instead of the expected-routing mean.
///
/// # Errors
///
/// Returns an error if the space prunes empty or every candidate fails.
pub fn tuned_full_moe(
    shape: &MoeShape,
    cluster: &ClusterSpec,
    opts: &TuneOptions,
) -> tilelink_tune::Result<TunedLayer> {
    let spec = WorkloadSpec::Moe {
        shape: shape.clone(),
        routing: opts.routing,
    };
    tuned_full(&spec, cluster, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilelink::TileShape;

    #[test]
    fn unsupported_tile_sizes_are_pruned_for_mlp() {
        let shape = crate::shapes::mlp_shapes()[0].clone();
        let cluster = ClusterSpec::h800_node(8);
        let oracle = MlpOracle::new(shape, cluster);
        // 8192 tokens over 8 ranks: 1024 rows per rank. A 384-row compute tile
        // does not divide the segment, so the ring RS indexing rejects it.
        let bad = OverlapConfig::default().with_compute_tile(TileShape::new(384, 256));
        assert!(!oracle.is_supported(&bad));
        let good = OverlapConfig::default().with_compute_tile(TileShape::new(256, 256));
        assert!(oracle.is_supported(&good));
    }

    #[test]
    fn clusters_whose_ring_rows_overflow_admit_no_config() {
        // `TUNE … cluster=h800x2x144115188075855873`: a world of 2^58 + 2
        // ranks, whose `world × tile_m` overflows `usize` for every tile.
        // Wrapped, 64-row tiles read 128 rows and divide every token count.
        let cluster = ClusterSpec::new(tilelink_sim::GpuSpec::h800(), 2, 144_115_188_075_855_873);
        let space = SearchSpace::standard();
        let spec = WorkloadSpec::Moe {
            shape: crate::shapes::moe_shapes()[0].clone(),
            routing: None,
        };
        for spec in [
            WorkloadSpec::Mlp(crate::shapes::mlp_shapes()[0].clone()),
            spec,
        ] {
            let oracle = spec.oracle(analytic_cost(&cluster), Objective::Mean);
            assert!(
                space.candidates(&*oracle).is_empty(),
                "{} admits configs on a 2^58-rank cluster",
                spec.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "different cluster")]
    fn mismatched_tune_options_cost_is_rejected() {
        let shape = crate::shapes::mlp_shapes()[0].clone();
        let opts = TuneOptions::default().with_cost(analytic_cost(&ClusterSpec::h800_node(4)));
        // Named cluster (8 GPUs) disagrees with the provider's (4 GPUs).
        let _ = tuned_full_mlp(&shape, &ClusterSpec::h800_node(8), &opts);
    }

    #[test]
    fn routed_moe_oracle_changes_key_and_prices_the_tail_higher() {
        let shape = crate::shapes::moe_shapes()[0].clone();
        let cluster = ClusterSpec::h800_node(8);
        let plain = MoeOracle::new(shape.clone(), cluster.clone());
        let spec = RoutingSpec {
            samples: 3,
            ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
        };
        let mean = MoeOracle::new(shape.clone(), cluster.clone()).with_routing(spec);
        let worst = MoeOracle::new(shape, cluster)
            .with_routing(spec)
            .with_objective(Objective::WorstCase);

        // Workload keys separate expected-routing and sampled-routing runs;
        // the objective is keyed separately (through CostOracle::objective).
        assert_ne!(plain.workload_key(), mean.workload_key());
        assert_eq!(mean.workload_key(), worst.workload_key());
        assert_eq!(plain.objective(), Objective::Mean);
        assert_eq!(worst.objective(), Objective::WorstCase);

        let cfg = OverlapConfig::default();
        let mean_report = mean.evaluate(&cfg).unwrap();
        let worst_report = worst.evaluate(&cfg).unwrap();
        assert!(
            worst_report.total_s >= mean_report.total_s,
            "worst case {} < mean {}",
            worst_report.total_s,
            mean_report.total_s
        );
        // Re-evaluation is bit-identical (fixed seed, deterministic sampler).
        assert_eq!(mean.evaluate(&cfg).unwrap(), mean_report);
    }

    #[test]
    fn tuned_full_moe_with_routing_produces_a_valid_winner() {
        let shape = crate::shapes::moe_shapes()[0].clone();
        let cluster = ClusterSpec::h800_node(8);
        let opts = TuneOptions::default()
            .with_routing(RoutingSpec {
                samples: 2,
                ..RoutingSpec::new(RoutingProfile::HotExpert { hot: 1 })
            })
            .with_objective(Objective::Percentile(95));
        let tuned = tuned_full_moe(&shape, &cluster, &opts).unwrap();
        tuned.config.validate(cluster.gpu.sm_count).unwrap();
        assert!(tuned.layer.total_s > 0.0);
        // Same options, same winner: the sampled path stays deterministic.
        let again = tuned_full_moe(&shape, &cluster, &opts).unwrap();
        assert_eq!(tuned.config, again.config);
        assert_eq!(tuned.layer, again.layer);
    }
}

//! Simulator-guided autotuning of the workload layers.
//!
//! This module connects the layers of this crate to the `tilelink-tune`
//! design-space search: the MLP and MoE layers each get a
//! [`tilelink_tune::CostOracle`] that compiles the candidate configuration
//! through the TileLink compiler and measures the simulated makespan, plus a
//! `tuned_*` constructor that runs the search and returns the best
//! configuration together with its timing.
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
/// Bounded evaluations price each half kernel through the oracle's own
/// [`MakespanMemo`], so every distinct kernel is simulated once however many
/// configs and searches compile to it; [`CostOracle::evaluate`] stays
/// memo-free.
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
            cost,
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
/// Like [`MlpOracle`], bounded evaluations price each half kernel (per
/// sample, when routed) through the oracle's own [`MakespanMemo`].
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
        let Some(samples) = self.samples() else {
            return bounds::exact_layer(
                cost,
                moe::activation_seconds(shape, &**cost),
                || moe::ag_group_gemm_kernel(shape, cfg, cost),
                || moe::group_gemm_rs_kernel(shape, cfg, cost),
            );
        };
        let reports = samples
            .iter()
            .map(|sample| moe::timed_routed_full_moe(shape, cfg, cost, sample))
            .collect::<tilelink::Result<Vec<_>>>()?;
        Ok(self.objective.fold_reports(&reports))
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
// Tuned constructors
// ---------------------------------------------------------------------------

/// Options shared by the `tuned_*` constructors.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Search strategy (default: beam, width 4, 3 sweeps).
    pub strategy: Strategy,
    /// Design space to explore (default: [`SearchSpace::standard`]).
    pub space: SearchSpace,
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
    /// stderr while tuning runs. The same numbers are always available
    /// afterwards in [`tilelink_tune::TuneReport::rounds`].
    pub verbose: bool,
    /// Evaluates candidates on a shared [`SearchExecutor`] instead of a
    /// private one per run (the default, `None`: one worker per CPU, capped
    /// at 16); `reproduce --tune` passes [`SearchExecutor::global`] so
    /// back-to-back searches share one warm pool. Results are bit-identical
    /// either way.
    pub executor: Option<Arc<SearchExecutor>>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            strategy: Strategy::default(),
            space: SearchSpace::standard(),
            cache_path: None,
            cost: None,
            routing: None,
            objective: Objective::Mean,
            verbose: false,
            executor: None,
        }
    }
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

    /// Evaluates candidates on `executor` (e.g. [`SearchExecutor::global`]).
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

/// The provider from `opts`, checked against the cluster the caller named.
///
/// # Panics
///
/// Panics if `opts.cost` is priced for a different cluster than `cluster` —
/// silently tuning against the provider's topology would return a winning
/// config (and cache entries) for hardware the caller did not ask about.
fn checked_cost(opts: &TuneOptions, cluster: &ClusterSpec) -> Option<SharedCost> {
    opts.cost.as_ref().map(|cost| {
        assert_eq!(
            cost.cluster(),
            cluster,
            "TuneOptions::cost is priced for a different cluster"
        );
        cost.clone()
    })
}

fn run_tune(oracle: &dyn CostOracle, opts: &TuneOptions) -> tilelink_tune::Result<TunedLayer> {
    let mut tuner = Tuner::new(opts.strategy).with_verbose(opts.verbose);
    if let Some(executor) = &opts.executor {
        tuner = tuner.with_executor(Arc::clone(executor));
    }
    if let Some(path) = &opts.cache_path {
        tuner = tuner.with_cache(TuneCache::open(path)?);
    }
    let search = tuner.tune(oracle, &opts.space)?;
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
    let mut oracle = MlpOracle::new(shape.clone(), cluster.clone());
    if let Some(cost) = checked_cost(opts, cluster) {
        oracle = oracle.with_cost(cost);
    }
    run_tune(&oracle, opts)
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
    let mut oracle = MoeOracle::new(shape.clone(), cluster.clone()).with_objective(opts.objective);
    if let Some(cost) = checked_cost(opts, cluster) {
        oracle = oracle.with_cost(cost);
    }
    if let Some(spec) = opts.routing {
        oracle = oracle.with_routing(spec);
    }
    run_tune(&oracle, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilelink::TileShape;

    /// A compact space that keeps test runtimes low while still exercising
    /// several axes.
    fn small_space() -> SearchSpace {
        SearchSpace::new()
            .with_comm_tiles([TileShape::new(128, 128), TileShape::new(256, 128)])
            .with_compute_tiles([TileShape::new(128, 256), TileShape::new(256, 256)])
            .with_mappings([
                tilelink::CommMapping::CopyEngine,
                tilelink::CommMapping::Sm { sms: 20 },
            ])
            .with_stages([2, 3])
    }

    #[test]
    fn beam_tuned_mlp_never_loses_to_the_default_config() {
        let shape = crate::shapes::mlp_shapes()[0].clone();
        let cluster = ClusterSpec::h800_node(8);
        let oracle = MlpOracle::new(shape.clone(), cluster.clone());
        let default_report = oracle.evaluate(&OverlapConfig::default()).unwrap();

        let opts = TuneOptions {
            strategy: Strategy::Beam {
                width: 2,
                sweeps: 2,
            },
            space: small_space(),
            ..TuneOptions::default()
        };
        let tuned = tuned_full_mlp(&shape, &cluster, &opts).unwrap();
        assert!(
            tuned.layer.total_s <= default_report.total_s,
            "tuned {} ms > default {} ms",
            tuned.layer.total_ms(),
            default_report.total_ms()
        );
    }

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
        let opts = TuneOptions {
            strategy: Strategy::Beam {
                width: 2,
                sweeps: 1,
            },
            space: small_space(),
            ..TuneOptions::default()
        }
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

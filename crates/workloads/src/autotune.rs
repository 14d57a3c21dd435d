//! Simulator-guided autotuning of the workload layers.
//!
//! This module connects the layers of this crate to the `tilelink-tune`
//! design-space search: every layer, MLP or MoE, routed or not, is priced by
//! one [`tilelink_tune::CostOracle`], the [`LayerOracle`], which compiles the
//! layer's two half kernels for the candidate configuration through the
//! TileLink compiler and measures the simulated makespan; a `tuned_*`
//! constructor runs the search and returns the best configuration together
//! with its timing.
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
use tilelink::{CompiledKernel, OverlapConfig, OverlapReport};
use tilelink_sim::{analytic_cost, ClusterSpec, SharedCost};
use tilelink_tune::{
    BoundedEval, CostOracle, Objective, SearchExecutor, SearchSpace, Strategy, TuneCache,
    TuneReport, Tuner,
};

use crate::moe::{RoutingProfile, RoutingSampler, RoutingTables};
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

impl From<MlpShape> for WorkloadSpec {
    fn from(shape: MlpShape) -> Self {
        WorkloadSpec::Mlp(shape)
    }
}

/// An MoE shape under the expected uniform routing.
impl From<MoeShape> for WorkloadSpec {
    fn from(shape: MoeShape) -> Self {
        WorkloadSpec::Moe {
            shape,
            routing: None,
        }
    }
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
    /// cluster, for `objective` (which an MLP layer ignores, see
    /// [`LayerOracle::with_objective`]): the one place a workload becomes an
    /// oracle.
    ///
    /// Building the oracle draws no routing sample, so the tuning daemon
    /// keys a request by [`TuneCache::oracle_prefix`] of this oracle before
    /// it decides whether to search.
    pub fn oracle(&self, cost: SharedCost, objective: Objective) -> LayerOracle {
        LayerOracle {
            workload: self.clone(),
            memo: MakespanMemo::new(cost),
            objective: Objective::Mean,
            samples: OnceLock::new(),
        }
        .with_objective(objective)
    }
}

// ---------------------------------------------------------------------------
// The layer oracle
// ---------------------------------------------------------------------------

/// Prices one config for the full layer of a [`WorkloadSpec`]: its two half
/// kernels, both compiled for the candidate config, with the activation
/// between them (compare [`mlp::timed_full_mlp`] and [`moe::timed_full_moe`],
/// which replay the hand-picked configs).
///
/// An MLP layer, and an MoE layer under the expected uniform routing, is
/// priced once. An MoE layer with a [`RoutingSpec`] is priced over every
/// sampled routing, each bound as a table to the routed kernels (compiled
/// once per config), and the per-sample prices are folded with the oracle's
/// [`Objective`]: tuning for the tail of the routing distribution rather
/// than the mean.
///
/// Both evaluations price each half kernel (per sample, when routed) through
/// the oracle's own [`MakespanMemo`], so every distinct kernel is simulated
/// once however many configs and searches compile to it. A search winner's
/// exact report ([`CostOracle::evaluate`]) reads each half's overlapped
/// makespan there and simulates only its comm-only and compute-only runs. A
/// routed percentile or worst-case report ranks the samples by their
/// memoised layer totals and prices the split of the one sample its
/// objective picks; the mean prices every sample's split.
#[derive(Debug, Clone)]
pub struct LayerOracle {
    workload: WorkloadSpec,
    memo: MakespanMemo,
    objective: Objective,
    /// The routings drawn from the workload's spec on first use, each with
    /// the block tables its kernels bind (built once per compute-tile rows).
    samples: OnceLock<Vec<RoutingTables>>,
}

/// [`LayerOracle`] under its older MLP name, which tunebench still builds
/// its MLP oracles by. This alias and [`MoeOracle`] go once tunebench builds
/// its oracles through [`WorkloadSpec::oracle`].
pub type MlpOracle = LayerOracle;

/// [`LayerOracle`] under its older MoE name (see [`MlpOracle`]).
pub type MoeOracle = LayerOracle;

/// One of the two kernels of a layer.
enum Half {
    /// AllGather + GEMM (MLP) or AllGather + Gather + GroupGEMM (MoE).
    First,
    /// GEMM + ReduceScatter (MLP) or GroupGEMM + Scatter + TopK-Reduce +
    /// ReduceScatter (MoE).
    Second,
}

impl LayerOracle {
    /// Creates the oracle for one workload on one cluster (analytic costs,
    /// mean objective); an MoE shape prices the expected uniform routing.
    pub fn new(workload: impl Into<WorkloadSpec>, cluster: ClusterSpec) -> Self {
        workload
            .into()
            .oracle(analytic_cost(&cluster), Objective::Mean)
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
    ///
    /// # Panics
    ///
    /// Panics on an MLP layer, which has no routing.
    pub fn with_routing(mut self, spec: RoutingSpec) -> Self {
        let WorkloadSpec::Moe { routing, .. } = &mut self.workload else {
            panic!("an MLP layer has no routing to sample");
        };
        *routing = Some(spec);
        self.samples = OnceLock::new();
        self
    }

    /// Replaces the statistic folding the per-sample prices (only meaningful
    /// together with [`LayerOracle::with_routing`]; a non-mean objective over
    /// a single evaluation is the identity). An MLP layer is deterministic,
    /// so it keeps the mean, and with it the cache key of every objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        if let WorkloadSpec::Moe { .. } = self.workload {
            self.objective = objective;
        }
        self
    }

    /// The sampled routings, drawn on the first call; `None` prices the
    /// expected routing (and every MLP layer).
    fn samples(&self) -> Option<&[RoutingTables]> {
        let WorkloadSpec::Moe {
            shape,
            routing: Some(spec),
        } = &self.workload
        else {
            return None;
        };
        Some(self.samples.get_or_init(|| {
            let samples = spec.sampler().samples_for(shape, spec.samples.max(1));
            samples.into_iter().map(RoutingTables::from).collect()
        }))
    }

    /// The `half` kernel of the layer compiled for `cfg`, under `sample` or
    /// (`None`) the expected routing.
    fn kernel(
        &self,
        half: Half,
        cfg: &OverlapConfig,
        sample: Option<&RoutingTables>,
    ) -> tilelink::Result<CompiledKernel> {
        let cost = self.memo.cost();
        match (&self.workload, half) {
            (WorkloadSpec::Mlp(shape), Half::First) => mlp::ag_gemm_kernel(shape, cfg, cost),
            (WorkloadSpec::Mlp(shape), Half::Second) => mlp::gemm_rs_kernel(shape, cfg, cost),
            (WorkloadSpec::Moe { shape, .. }, Half::First) => {
                moe::ag_group_gemm_kernel(shape, cfg, cost, sample)
            }
            (WorkloadSpec::Moe { shape, .. }, Half::Second) => {
                moe::group_gemm_rs_kernel(shape, cfg, cost, sample)
            }
        }
    }

    /// An admissible lower bound of the `half` kernel under any routing.
    fn bound(&self, half: Half, cfg: &OverlapConfig) -> f64 {
        let cost = &**self.memo.cost();
        match (&self.workload, half) {
            (WorkloadSpec::Mlp(shape), Half::First) => bounds::mlp_ag_gemm_bound(shape, cfg, cost),
            (WorkloadSpec::Mlp(shape), Half::Second) => bounds::mlp_gemm_rs_bound(shape, cfg, cost),
            (WorkloadSpec::Moe { shape, .. }, Half::First) => {
                bounds::moe_first_bound(shape, cfg, cost)
            }
            (WorkloadSpec::Moe { shape, .. }, Half::Second) => {
                bounds::moe_second_bound(shape, cfg, cost)
            }
        }
    }

    /// Seconds of the activation between the two halves.
    fn activation(&self) -> f64 {
        let cost = &**self.memo.cost();
        match &self.workload {
            WorkloadSpec::Mlp(shape) => mlp::activation_seconds(shape, cost),
            WorkloadSpec::Moe { shape, .. } => moe::activation_seconds(shape, cost),
        }
    }

    /// The exact report of the layer under `sample`: each half's full report
    /// from [`MakespanMemo::report`], summed by [`OverlapReport::layer`].
    fn layer_report(
        &self,
        cfg: &OverlapConfig,
        sample: Option<&RoutingTables>,
    ) -> tilelink::Result<OverlapReport> {
        let first = self.memo.report(&self.kernel(Half::First, cfg, sample)?)?;
        let second = self.memo.report(&self.kernel(Half::Second, cfg, sample)?)?;
        Ok(OverlapReport::layer(first, self.activation(), second))
    }

    /// The layer makespan under `sample`, cut off at `cutoff` on the layer
    /// total, each half priced through the memo within the budget it is
    /// handed. The first half may spend what the cutoff leaves after the
    /// activation and the second half's admissible bound; the second half
    /// what remains after the exactly priced first one. An `Exceeded` clock
    /// is therefore a certified lower bound on the layer total, and a
    /// `Finished` total sums as `(first + second) + act`, bit for bit the
    /// `total_s` of [`LayerOracle::layer_report`].
    fn layer_makespan(
        &self,
        cfg: &OverlapConfig,
        sample: Option<&RoutingTables>,
        cutoff: f64,
    ) -> tilelink::Result<BoundedEval> {
        let act = self.activation();
        let second_bound = self.bound(Half::Second, cfg);
        let first = self.kernel(Half::First, cfg, sample)?;
        let first = match self.memo.makespan(&first, cutoff - act - second_bound)? {
            BoundedEval::Finished(total) => total,
            BoundedEval::Exceeded(clock) => {
                return Ok(BoundedEval::Exceeded(clock + second_bound + act))
            }
        };
        // With the first half priced exactly, the second half's bound may
        // already certify the layer past the cutoff: skip its compile and
        // simulation.
        if first + second_bound + act > cutoff {
            return Ok(BoundedEval::Exceeded(first + second_bound + act));
        }
        let second = self.kernel(Half::Second, cfg, sample)?;
        match self.memo.makespan(&second, cutoff - act - first)? {
            BoundedEval::Finished(second) => Ok(BoundedEval::Finished(first + second + act)),
            BoundedEval::Exceeded(clock) => Ok(BoundedEval::Exceeded(first + clock + act)),
        }
    }
}

impl CostOracle for LayerOracle {
    fn workload_key(&self) -> String {
        match &self.workload {
            WorkloadSpec::Mlp(shape) => format!(
                "mlp/S{}-H{}-I{}",
                shape.tokens, shape.hidden, shape.intermediate
            ),
            WorkloadSpec::Moe { shape, routing } => {
                let base = format!(
                    "moe/S{}-H{}-I{}-E{}-K{}",
                    shape.tokens, shape.hidden, shape.intermediate, shape.experts, shape.top_k
                );
                match routing {
                    None => base,
                    Some(spec) => format!("{base}/rt={spec}"),
                }
            }
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
        let Some(samples) = self.samples() else {
            return self.layer_report(cfg, None);
        };
        if self.objective == Objective::Mean {
            let reports = samples
                .iter()
                .map(|sample| self.layer_report(cfg, Some(sample)))
                .collect::<tilelink::Result<Vec<_>>>()?;
            return Ok(self.objective.fold_reports(&reports));
        }
        // A percentile or the worst case reports one sample: pick it by the
        // layer totals (read from the memo after a search; each sums as
        // `(first + second) + act`, the `total_s` of its exact report) and
        // price only its split.
        let totals = samples
            .iter()
            .map(|sample| {
                Ok(self
                    .layer_makespan(cfg, Some(sample), f64::INFINITY)?
                    .clock())
            })
            .collect::<tilelink::Result<Vec<_>>>()?;
        let picked = self.objective.picked_sample(&totals);
        self.layer_report(
            cfg,
            Some(&samples[picked.expect("a non-mean objective picks a sample")]),
        )
    }

    fn lower_bound(&self, cfg: &OverlapConfig) -> Option<f64> {
        // The per-sample layer bound is routing-invariant (every sample
        // conserves the dispatched row count and the AG traffic), so it
        // floors each sample's total and therefore every objective fold —
        // the mean, any percentile and the worst case alike.
        Some(self.bound(Half::First, cfg) + self.bound(Half::Second, cfg) + self.activation())
    }

    fn evaluate_bounded(&self, cfg: &OverlapConfig, cutoff: f64) -> tilelink::Result<BoundedEval> {
        let Some(samples) = self.samples() else {
            return self.layer_makespan(cfg, None, cutoff);
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
                .expect("a layer oracle always has a bound");
            let mut sum = 0.0;
            for (i, sample) in samples.iter().enumerate() {
                let remaining_lb = (n - 1 - i) as f64 * lb_sample;
                let budget = n as f64 * cutoff - sum - remaining_lb;
                match self.layer_makespan(cfg, Some(sample), budget)? {
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
            match self.layer_makespan(cfg, Some(sample), cutoff)? {
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
        let tokens = match &self.workload {
            WorkloadSpec::Mlp(shape) => shape.tokens,
            WorkloadSpec::Moe { shape, .. } => shape.tokens,
        };
        comm::ring_supported(tokens, self.cluster().world_size(), cfg.compute_tile.m)
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
    run_tune(&spec.oracle(cost, opts.objective), opts)
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
        let oracle = LayerOracle::new(shape, cluster);
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
        for spec in [
            WorkloadSpec::from(crate::shapes::mlp_shapes()[0].clone()),
            WorkloadSpec::from(crate::shapes::moe_shapes()[0].clone()),
        ] {
            let oracle = spec.oracle(analytic_cost(&cluster), Objective::Mean);
            assert!(
                space.candidates(&oracle).is_empty(),
                "{} admits configs on a 2^58-rank cluster",
                spec.name()
            );
        }
    }

    #[test]
    fn mlp_layers_keep_the_mean_objective() {
        let shape = crate::shapes::mlp_shapes()[0].clone();
        let oracle =
            LayerOracle::new(shape, ClusterSpec::h800_node(8)).with_objective(Objective::WorstCase);
        assert_eq!(oracle.objective(), Objective::Mean);
    }

    #[test]
    #[should_panic(expected = "no routing")]
    fn routing_an_mlp_layer_is_rejected() {
        let shape = crate::shapes::mlp_shapes()[0].clone();
        let spec = RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 });
        let _ = LayerOracle::new(shape, ClusterSpec::h800_node(8)).with_routing(spec);
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
        let plain = LayerOracle::new(shape.clone(), cluster.clone());
        let spec = RoutingSpec {
            samples: 3,
            ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
        };
        let mean = LayerOracle::new(shape.clone(), cluster.clone()).with_routing(spec);
        let worst = LayerOracle::new(shape, cluster)
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

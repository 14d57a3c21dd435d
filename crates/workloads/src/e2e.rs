//! End-to-end model estimates (Figure 11).
//!
//! The per-layer building blocks (attention part, dense MLP or MoE part) are
//! combined for the eight models of Figure 11, once with PyTorch-style
//! non-overlapping execution and once with TileLink's overlapped kernels, on
//! one node (8 GPUs, batch 4 × sequence 8192) or two nodes (16 GPUs, batch 8).

use tilelink::OverlapConfig;
use tilelink_sim::{ClusterSpec, CostProvider, SharedCost};

use crate::autotune::{self, TuneOptions};
use crate::baselines;
use crate::mlp::BYTES_PER_ELEM;
use crate::shapes::{ModelConfig, E2E_TOKENS_SINGLE_NODE};
use crate::{MlpShape, MoeShape};

/// End-to-end timing of one model under one execution strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTiming {
    /// Model name.
    pub model: &'static str,
    /// Total forward time across all layers, in seconds.
    pub total_s: f64,
    /// Time spent in attention parts.
    pub attention_s: f64,
    /// Time spent in MLP / MoE parts.
    pub ffn_s: f64,
}

fn mlp_shape_of(model: &ModelConfig, tokens: usize) -> MlpShape {
    MlpShape {
        name: "e2e-mlp",
        tokens,
        hidden: model.hidden,
        intermediate: model.intermediate.max(1),
        source: model.name,
    }
}

fn moe_shape_of(model: &ModelConfig, tokens: usize) -> Option<MoeShape> {
    model.moe.map(|(experts, top_k, intermediate)| MoeShape {
        name: "e2e-moe",
        tokens,
        hidden: model.hidden,
        intermediate,
        experts,
        top_k,
    })
}

/// Attention-part time per layer (QKV projection, flash attention over the
/// local 8192-token context, output projection and the tensor-parallel
/// AllReduce of the projections). Identical math is used for both strategies;
/// only the exposed communication differs.
fn attention_part_seconds(
    model: &ModelConfig,
    tokens: usize,
    cost: &dyn CostProvider,
    overlapped: bool,
) -> f64 {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let h = model.hidden;
    let head_dim = (h / model.heads).max(1);
    let heads_local = (model.heads / world).max(1);
    // QKV and output projections, column/row parallel.
    let qkv = cost.gemm_seconds(tokens, 4 * h / world, h, 128, 256, cluster.gpu.sm_count);
    // flash attention over the per-sequence context (8192), batch folded into tokens
    let flops = 4.0 * heads_local as f64 * tokens as f64 * 8192.0 * head_dim as f64;
    let attn = flops / (cluster.gpu.peak_flops() * 0.6);
    // tensor-parallel collective on the output projection
    let comm_bytes = tokens as f64 * h as f64 * BYTES_PER_ELEM;
    let world_f = world as f64;
    // Ring AllReduce: 2(world-1) steps, each moving one comm_bytes/world
    // chunk — priced per chunk so a calibrated provider sees the real
    // per-message size, at the slowest hop of the ring so two-node setups pay
    // the InfiniBand node-crossing hop (single-node: identical to rank 0→1).
    let comm = 2.0
        * (world_f - 1.0)
        * tilelink_collectives::timed::ring_hop_seconds(cost, comm_bytes / world_f);
    let exposed_comm = if overlapped { comm * 0.4 } else { comm };
    qkv + attn + exposed_comm + 4.0 * cluster.gpu.kernel_launch_s()
}

/// FFN-part time per layer under the PyTorch (non-overlapping) strategy.
fn ffn_torch_seconds(model: &ModelConfig, tokens: usize, cost: &dyn CostProvider) -> f64 {
    let mut total = 0.0;
    if model.intermediate > 0 {
        total += baselines::non_overlap_full_mlp(&mlp_shape_of(model, tokens), cost).total_s;
    }
    if let Some(moe) = moe_shape_of(model, tokens) {
        // PyTorch-style execution of the MoE layer: grouped GEMM kernels with
        // unfused token shuffling and no overlap (the CUTLASS+NCCL column of
        // Figure 9 is the closest open implementation).
        total += baselines::cutlass_nccl_full_moe(&moe, cost).total_s;
    }
    total
}

/// FFN-part time per layer under the TileLink strategy.
///
/// # Errors
///
/// Returns an error if a TileLink kernel fails to compile or simulate.
fn ffn_tilelink_seconds(
    model: &ModelConfig,
    tokens: usize,
    cost: &SharedCost,
) -> tilelink::Result<f64> {
    let mut total = 0.0;
    if model.intermediate > 0 {
        total += crate::mlp::timed_full_mlp(&mlp_shape_of(model, tokens), cost)?.total_s;
    }
    if let Some(moe) = moe_shape_of(model, tokens) {
        total += crate::moe::timed_full_moe(&moe, cost)?.total_s;
    }
    Ok(total)
}

/// End-to-end PyTorch (non-overlapping) estimate for one model, priced by
/// `cost` (the cluster is the provider's).
pub fn torch_model_timing(
    model: &ModelConfig,
    tokens: usize,
    cost: &dyn CostProvider,
) -> ModelTiming {
    let attn = attention_part_seconds(model, tokens, cost, false);
    let ffn = ffn_torch_seconds(model, tokens, cost);
    ModelTiming {
        model: model.name,
        total_s: model.layers as f64 * (attn + ffn),
        attention_s: model.layers as f64 * attn,
        ffn_s: model.layers as f64 * ffn,
    }
}

/// End-to-end TileLink estimate for one model under the hand-picked layer
/// configurations, priced by `cost` (the cluster is the provider's).
///
/// # Errors
///
/// Returns an error if a TileLink kernel fails to compile or simulate.
pub fn tilelink_model_timing(
    model: &ModelConfig,
    tokens: usize,
    cost: &SharedCost,
) -> tilelink::Result<ModelTiming> {
    let attn = attention_part_seconds(model, tokens, &**cost, true);
    let ffn = ffn_tilelink_seconds(model, tokens, cost)?;
    Ok(ModelTiming {
        model: model.name,
        total_s: model.layers as f64 * (attn + ffn),
        attention_s: model.layers as f64 * attn,
        ffn_s: model.layers as f64 * ffn,
    })
}

/// Combined per-model comparison used by the Figure 11 harness.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eComparison {
    /// PyTorch baseline timing.
    pub torch: ModelTiming,
    /// TileLink timing.
    pub tilelink: ModelTiming,
}

impl E2eComparison {
    /// Speed-up of TileLink over the baseline.
    pub fn speedup(&self) -> f64 {
        self.torch.total_s / self.tilelink.total_s
    }
}

/// Runs the Figure 11 comparison for one model, priced by `cost` (the
/// cluster is the provider's).
///
/// # Errors
///
/// Returns an error if a TileLink kernel fails to compile or simulate.
pub fn compare_model(
    model: &ModelConfig,
    tokens: usize,
    cost: &SharedCost,
) -> tilelink::Result<E2eComparison> {
    Ok(E2eComparison {
        torch: torch_model_timing(model, tokens, &**cost),
        tilelink: tilelink_model_timing(model, tokens, cost)?,
    })
}

// ---------------------------------------------------------------------------
// Tuned Figure 11: searched per-layer configs instead of the hand-picked ones
// ---------------------------------------------------------------------------

/// End-to-end timing of one model under *searched* per-layer configurations,
/// plus the winning configs and the search-effort counters.
///
/// Produced by [`tuned_model_timing`]: the FFN parts replay the best
/// [`OverlapConfig`] the `tilelink-tune` search found per layer kind instead
/// of the hand-picked defaults of [`tilelink_model_timing`]. The
/// counters aggregate over both layer searches, so a rerun against a warm
/// persistent [`tilelink_tune::TuneCache`] reports zero `evaluations`.
#[derive(Debug, Clone)]
pub struct TunedModelTiming {
    /// Per-model timing under the tuned configurations.
    pub timing: ModelTiming,
    /// Winning config of the dense MLP part (`None` for pure-MoE layers).
    pub mlp_config: Option<OverlapConfig>,
    /// Winning config of the MoE part (`None` for dense models).
    pub moe_config: Option<OverlapConfig>,
    /// Ranked oracle pricings performed across the layer searches (see
    /// [`tilelink_tune::TuneReport::evaluations`]).
    pub evaluations: usize,
    /// Lookups served by the tuning cache instead of the simulator.
    pub cache_hits: usize,
}

/// End-to-end TileLink estimate for one model with per-layer configurations
/// pulled from the `tilelink-tune` search instead of the hand-picked defaults.
///
/// The dense MLP part runs [`autotune::tuned_full_mlp`] and the MoE part
/// [`autotune::tuned_full_moe`] on the model's e2e layer shapes; `opts`
/// carries the strategy, space, persistent-cache path and — for MoE layers —
/// the routing distribution and [`tilelink_tune::Objective`] the search
/// minimises. Any `opts.cost` is replaced by `cost` so the search always
/// prices against the caller's provider and cluster.
///
/// # Errors
///
/// Returns an error if a layer search prunes empty, every candidate fails, or
/// the persistent cache cannot be written.
pub fn tuned_model_timing(
    model: &ModelConfig,
    tokens: usize,
    cost: &SharedCost,
    opts: &TuneOptions,
) -> tilelink_tune::Result<TunedModelTiming> {
    let cluster = cost.cluster().clone();
    let opts = opts.clone().with_cost(cost.clone());
    let attn = attention_part_seconds(model, tokens, &**cost, true);
    let mut ffn = 0.0;
    let mut evaluations = 0;
    let mut cache_hits = 0;
    let mut mlp_config = None;
    let mut moe_config = None;
    if model.intermediate > 0 {
        let tuned = autotune::tuned_full_mlp(&mlp_shape_of(model, tokens), &cluster, &opts)?;
        ffn += tuned.layer.total_s;
        evaluations += tuned.search.evaluations;
        cache_hits += tuned.search.cache_hits;
        mlp_config = Some(tuned.config);
    }
    if let Some(moe) = moe_shape_of(model, tokens) {
        let tuned = autotune::tuned_full_moe(&moe, &cluster, &opts)?;
        ffn += tuned.layer.total_s;
        evaluations += tuned.search.evaluations;
        cache_hits += tuned.search.cache_hits;
        moe_config = Some(tuned.config);
    }
    Ok(TunedModelTiming {
        timing: ModelTiming {
            model: model.name,
            total_s: model.layers as f64 * (attn + ffn),
            attention_s: model.layers as f64 * attn,
            ffn_s: model.layers as f64 * ffn,
        },
        mlp_config,
        moe_config,
        evaluations,
        cache_hits,
    })
}

/// The Figure 11 comparison with the tuned TileLink column alongside the
/// default-config one.
#[derive(Debug, Clone)]
pub struct E2eTunedComparison {
    /// The default-config comparison (PyTorch baseline + TileLink defaults).
    pub base: E2eComparison,
    /// TileLink with searched per-layer configurations.
    pub tuned: TunedModelTiming,
}

impl E2eTunedComparison {
    /// Speed-up of default-config TileLink over the baseline.
    pub fn default_speedup(&self) -> f64 {
        self.base.speedup()
    }

    /// Speed-up of tuned TileLink over the baseline.
    pub fn tuned_speedup(&self) -> f64 {
        self.base.torch.total_s / self.tuned.timing.total_s
    }
}

/// Runs the Figure 11 comparison for one model with both the default-config
/// and the tuned TileLink estimates.
///
/// # Errors
///
/// Returns an error if a TileLink kernel fails to compile or simulate, or if
/// a layer search fails (see [`tuned_model_timing`]).
pub fn compare_model_tuned(
    model: &ModelConfig,
    tokens: usize,
    cost: &SharedCost,
    opts: &TuneOptions,
) -> tilelink_tune::Result<E2eTunedComparison> {
    let base = compare_model(model, tokens, cost).map_err(tilelink_tune::TuneError::from)?;
    let tuned = tuned_model_timing(model, tokens, cost, opts)?;
    Ok(E2eTunedComparison { base, tuned })
}

/// The default single-node setup of Figure 11 (8×H800, batch 4 × seq 8192).
pub fn single_node_setup() -> (ClusterSpec, usize) {
    (ClusterSpec::h800_node(8), E2E_TOKENS_SINGLE_NODE)
}

/// The two-node setup of Figure 11 (16×H800, data parallel across nodes with
/// tensor parallel inside each node, batch doubled). Per-GPU work matches the
/// single-node case; the additional inter-node gradient/activation exchange is
/// charged to the attention collective.
pub fn two_node_setup() -> (ClusterSpec, usize) {
    (ClusterSpec::h800_multi_node(2), 2 * E2E_TOKENS_SINGLE_NODE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::model_configs;
    use tilelink_sim::analytic_cost;

    fn speedup(model: &ModelConfig, (cluster, tokens): (ClusterSpec, usize)) -> f64 {
        compare_model(model, tokens, &analytic_cost(&cluster))
            .unwrap()
            .speedup()
    }

    #[test]
    fn dense_models_speed_up_in_the_papers_range() {
        // Use a smaller dense model to keep the test fast.
        let model = &model_configs()[1]; // LLaMA2-7B
        let s = speedup(model, single_node_setup());
        assert!(s > 1.05 && s < 1.8, "unexpected dense speedup {s:.2}");
    }

    #[test]
    fn moe_models_speed_up_at_least_as_much_as_dense() {
        let models = model_configs();
        let dense = speedup(&models[1], single_node_setup());
        let moe = speedup(&models[5], single_node_setup()); // Mixtral-8x7B
        assert!(moe > 1.0);
        assert!(moe > dense * 0.8, "moe {moe:.2} vs dense {dense:.2}");
    }

    #[test]
    fn timings_scale_with_layer_count() {
        let (cluster, tokens) = single_node_setup();
        let cost = analytic_cost(&cluster);
        let models = model_configs();
        let small = torch_model_timing(&models[1], tokens, &*cost); // 32 layers
        let large = torch_model_timing(&models[3], tokens, &*cost); // 80 layers
        assert!(large.total_s > small.total_s * 2.0);
    }

    #[test]
    fn comparison_struct_reports_speedup() {
        let (cluster, tokens) = single_node_setup();
        let cmp = compare_model(&model_configs()[7], tokens, &analytic_cost(&cluster)).unwrap(); // Qwen1.5 MoE
        assert!(cmp.speedup() > 1.0, "speedup {}", cmp.speedup());
        assert_eq!(cmp.torch.model, "Qwen1.5-2.7B");
    }

    #[test]
    fn setups_have_expected_world_sizes() {
        assert_eq!(single_node_setup().0.world_size(), 8);
        assert_eq!(two_node_setup().0.world_size(), 16);
        assert_eq!(two_node_setup().1, 2 * single_node_setup().1);
    }

    #[test]
    fn two_node_torch_baseline_pays_inter_node_pricing() {
        // The 16-GPU setup doubles the token count but per-GPU compute stays
        // put; only the collectives grow — and they must grow by more than the
        // token ratio, because the two-node ring drains at InfiniBand rate.
        let (c8, t8) = single_node_setup();
        let (c16, t16) = two_node_setup();
        let model = &model_configs()[1]; // LLaMA2-7B
        let torch8 = torch_model_timing(model, t8, &*analytic_cost(&c8));
        let cmp16 = compare_model(model, t16, &analytic_cost(&c16)).unwrap();
        let token_scale = (t16 / t8) as f64;
        assert!(
            cmp16.torch.total_s > token_scale * torch8.total_s,
            "two-node torch {} s must exceed single-node {} s x{token_scale}",
            cmp16.torch.total_s,
            torch8.total_s
        );
        // TileLink still wins on the two-node cluster.
        assert!(cmp16.speedup() > 1.0, "speedup {}", cmp16.speedup());
    }

    #[test]
    fn tuned_speedup_is_at_least_the_default_config_speedup() {
        // The quick subset of the tuned Figure 11 path: one dense and one MoE
        // model. Under the deterministic analytic model the searched config
        // matches or beats the hand-picked per-half defaults on every model,
        // so this pins that (empirical, deterministic) property; it is not a
        // structural invariant — the search cannot represent the defaults'
        // mixed per-half configuration.
        let (cluster, tokens) = single_node_setup();
        let cost = analytic_cost(&cluster);
        let opts = TuneOptions::default();
        let models = model_configs();
        for model in [&models[1], &models[5]] {
            // LLaMA2-7B, Mixtral-8x7B
            let cmp = compare_model_tuned(model, tokens, &cost, &opts).unwrap();
            assert!(
                cmp.tuned_speedup() >= cmp.default_speedup(),
                "{}: tuned {:.3}x < default {:.3}x",
                model.name,
                cmp.tuned_speedup(),
                cmp.default_speedup()
            );
            assert_eq!(model.intermediate > 0, cmp.tuned.mlp_config.is_some());
            assert_eq!(model.is_moe(), cmp.tuned.moe_config.is_some());
        }
    }

    #[test]
    fn two_node_tuned_rerun_hits_the_persistent_cache() {
        // A warm persistent TuneCache makes the two-node tuned estimate free:
        // the rerun answers every candidate from disk, zero simulations.
        let dir = std::env::temp_dir().join(format!("tilelink-e2e-tuned-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let _ = std::fs::remove_file(&path);

        let (cluster, tokens) = two_node_setup();
        let cost = analytic_cost(&cluster);
        let opts = TuneOptions {
            cache_path: Some(path.clone()),
            ..TuneOptions::default()
        };
        let model = &model_configs()[1]; // LLaMA2-7B
        let cold = tuned_model_timing(model, tokens, &cost, &opts).unwrap();
        assert!(cold.evaluations > 0, "cold search must simulate");

        let warm = tuned_model_timing(model, tokens, &cost, &opts).unwrap();
        assert_eq!(warm.evaluations, 0, "warm rerun must not simulate");
        assert!(warm.cache_hits > 0);
        assert_eq!(warm.timing, cold.timing);
        assert_eq!(warm.mlp_config, cold.mlp_config);
        let _ = std::fs::remove_file(&path);
    }
}

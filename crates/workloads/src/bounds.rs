//! Admissible closed-form lower bounds of the layer kernels, for the layer
//! oracle ([`crate::autotune::LayerOracle`]).
//!
//! The branch-and-bound tuner ([`tilelink_tune::CostOracle::lower_bound`])
//! prunes a candidate without compiling or simulating it when a cheap bound
//! on its makespan already meets the incumbent best. The bounds here are
//! resource-capacity arguments over the tile programs the workload builders
//! emit: every task of a kernel depends on its rank's launch task, compute
//! tasks drain through the rank's SM pool, and transfer tasks drain through
//! the rank's egress port (SM transfer lane) or DMA engines (copy-engine and
//! hybrid lanes). For any schedule, then,
//!
//! ```text
//! makespan >= launch + max(compute_drain, egress_drain)
//! compute_drain = total matmul flops / (peak_flops * tile_efficiency)
//! egress_drain  = total egress bytes / fastest_link_bw   (SM lane)
//!               = ... / (fastest_link_bw * dma_engines)  (copy-engine lanes)
//! ```
//!
//! Admissibility is what makes pruning safe: each bound *floors* the work the
//! program builders actually emit (partial-tile rounding always rounds the
//! bound down, α latency floors and HBM/elementwise tasks are dropped), so a
//! pruned candidate can never beat the incumbent and winners are bit-identical
//! to the unbounded search. The bounds are priced through the oracle's own
//! [`CostProvider`] — the same peak throughputs and tile-efficiency heuristic
//! the simulator charges — so they stay admissible under calibrated models
//! too (calibrated links only ever price *slower* than peak).
//!
//! The oracle spends them twice: the two halves' bounds plus the activation
//! are its layer bound, and the second half's bound leaves the first half
//! its residual budget when it prices a layer under a cutoff.

use tilelink::{CommMapping, OverlapConfig};
use tilelink_sim::{CostProvider, ResourceKind, Task, Work};

use crate::comm::{allgather_egress, ring_rs_egress};
use crate::{moe, MlpShape, MoeShape};

/// Closed-form totals of one compiled kernel, per rank: matmul flops on the
/// SM pool and bytes pushed out of the rank's egress lane.
struct PhaseTotals {
    /// Matmul flops charged to one rank's SMs (a floor of what the builder
    /// emits).
    flops_per_rank: f64,
    /// Bytes one rank pushes to peers (a floor; the busiest rank pushes at
    /// least the per-rank average used here).
    egress_bytes_per_rank: f64,
    /// The transfer lane the kernel compiles to, deciding which resource the
    /// egress drains through.
    mapping: CommMapping,
}

impl PhaseTotals {
    /// The capacity lower bound for this kernel: launch latency plus the
    /// slower of the compute and egress drains.
    fn lower_bound(&self, cfg: &OverlapConfig, cost: &dyn CostProvider) -> f64 {
        let cluster = cost.cluster();
        let gpu = &cluster.gpu;
        // Price the aggregate GEMM work through the provider's own formula at
        // full SM occupancy and the same tile efficiency the resource plan
        // derives, so calibrated providers price their own bound.
        let compute = if self.flops_per_rank > 0.0 {
            let efficiency =
                cost.gemm_tile_efficiency(cfg.compute_tile.m, cfg.compute_tile.n, 4096);
            let task = Task::new(
                "bound",
                0,
                ResourceKind::Sm,
                gpu.sm_count,
                Work::MatmulFlops {
                    flops: self.flops_per_rank,
                    efficiency,
                },
            );
            cost.duration(&task, gpu.sm_count)
        } else {
            0.0
        };
        let comm = if self.egress_bytes_per_rank > 0.0 {
            let world = cluster.world_size();
            // The fastest peak egress link any rank sees: dividing by it keeps
            // the bound under the true drain on every link class (and the α
            // floor is deliberately not applied — per-transfer sizes are
            // unknown here and α only ever makes real transfers slower).
            let bw = (1..world)
                .map(|dst| cluster.link_bytes_per_s(0, dst))
                .fold(0.0f64, f64::max);
            if bw > 0.0 {
                let engines = match self.mapping {
                    // SM-driven pushes drain the rank's egress port shares.
                    CommMapping::Sm { .. } => 1.0,
                    // Copy-engine and hybrid lanes drain transfers through the
                    // rank's DMA engines, each owning a full port.
                    CommMapping::CopyEngine | CommMapping::Hybrid { .. } => gpu.dma_engines as f64,
                };
                self.egress_bytes_per_rank / (bw * engines)
            } else {
                0.0
            }
        } else {
            0.0
        };
        gpu.kernel_launch_s() + compute.max(comm)
    }
}

/// Lower bound for [`crate::mlp::ag_gemm_kernel`] (AllGather + GEMM).
pub(crate) fn mlp_ag_gemm_bound(
    shape: &MlpShape,
    cfg: &OverlapConfig,
    cost: &dyn CostProvider,
) -> f64 {
    let world = cost.cluster().world_size();
    let n_local = 2 * shape.intermediate / world;
    PhaseTotals {
        // Each rank multiplies the full gathered [M, H] against its weight
        // shard: exactly M rows across the consumer blocks.
        flops_per_rank: 2.0 * shape.tokens as f64 * n_local as f64 * shape.hidden as f64,
        egress_bytes_per_rank: allgather_egress(world, shape.tokens, cfg.comm_tile.m, shape.hidden),
        mapping: cfg.comm_mapping,
    }
    .lower_bound(cfg, cost)
}

/// Lower bound for [`crate::mlp::gemm_rs_kernel`] (GEMM + ReduceScatter).
pub(crate) fn mlp_gemm_rs_bound(
    shape: &MlpShape,
    cfg: &OverlapConfig,
    cost: &dyn CostProvider,
) -> f64 {
    let world = cost.cluster().world_size();
    let k_local = shape.intermediate / world;
    PhaseTotals {
        // GEMM blocks cover every row tile of the [M, H] partial output.
        flops_per_rank: 2.0 * shape.tokens as f64 * shape.hidden as f64 * k_local as f64,
        egress_bytes_per_rank: ring_rs_egress(
            world,
            shape.tokens,
            cfg.compute_tile.m,
            shape.hidden,
        ),
        mapping: cfg.comm_mapping,
    }
    .lower_bound(cfg, cost)
}

/// Lower bound for the MoE first half (AG + GroupGEMM), valid for both the
/// expected-routing and the routed builders: routed samples conserve the
/// dispatched row count, so the aggregate GroupGEMM work is
/// routing-independent.
pub(crate) fn moe_first_bound(
    shape: &MoeShape,
    cfg: &OverlapConfig,
    cost: &dyn CostProvider,
) -> f64 {
    let world = cost.cluster().world_size();
    let i_local = shape.intermediate / world;
    let rows = moe::dispatched_rows(shape) as f64;
    PhaseTotals {
        flops_per_rank: 2.0 * rows * i_local as f64 * shape.hidden as f64,
        egress_bytes_per_rank: allgather_egress(world, shape.tokens, cfg.comm_tile.m, shape.hidden),
        mapping: cfg.comm_mapping,
    }
    .lower_bound(cfg, cost)
}

/// Lower bound for the MoE second half (GroupGEMM + RS). The second-half
/// kernel compiles onto `moe::SECOND_HALF_MAPPING` with or without a routing
/// sample, whatever the config says, so the bound drains through that lane
/// too.
pub(crate) fn moe_second_bound(
    shape: &MoeShape,
    cfg: &OverlapConfig,
    cost: &dyn CostProvider,
) -> f64 {
    let world = cost.cluster().world_size();
    let i_local = shape.intermediate / world;
    let rows = moe::dispatched_rows(shape);
    // Replicate the builder's per-tile floor division exactly: the dispatched
    // rows feeding each output tile are `tile_rows * rows / M`, summed over
    // the row tiles of the [M, H] output (both the expected-routing and the
    // routed builder emit at least this much GroupGEMM work).
    let tile_m = cfg.compute_tile.m;
    let num_tiles = shape.tokens.div_ceil(tile_m);
    let mut gemm_rows = 0usize;
    for tile in 0..num_tiles {
        let start = tile * tile_m;
        let len = (start + tile_m).min(shape.tokens) - start;
        gemm_rows += len * rows / shape.tokens;
    }
    PhaseTotals {
        flops_per_rank: 2.0 * gemm_rows as f64 * shape.hidden as f64 * i_local as f64,
        egress_bytes_per_rank: ring_rs_egress(world, shape.tokens, tile_m, shape.hidden),
        mapping: moe::SECOND_HALF_MAPPING,
    }
    .lower_bound(cfg, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilelink::exec::simulate_report;
    use tilelink_sim::{analytic_cost, ClusterSpec};

    fn shape() -> MlpShape {
        crate::shapes::mlp_shapes()[0].clone()
    }

    /// The bound must floor the simulated makespan for the default config —
    /// the full admissibility property is exercised across random sub-spaces
    /// in `tests/admissibility.rs`.
    #[test]
    fn mlp_bounds_floor_the_simulated_phase_times() {
        let cluster = ClusterSpec::h800_node(8);
        let cost = analytic_cost(&cluster);
        let cfg = OverlapConfig::default();
        let kernel = crate::mlp::ag_gemm_kernel(&shape(), &cfg, &cost).unwrap();
        let ag = simulate_report(&kernel, &cost).unwrap();
        let lb = mlp_ag_gemm_bound(&shape(), &cfg, &*cost);
        assert!(lb > 0.0);
        assert!(lb <= ag.total_s, "AG bound {lb} > simulated {}", ag.total_s);
        let kernel = crate::mlp::gemm_rs_kernel(&shape(), &cfg, &cost).unwrap();
        let rs = simulate_report(&kernel, &cost).unwrap();
        let lb = mlp_gemm_rs_bound(&shape(), &cfg, &*cost);
        assert!(lb > 0.0);
        assert!(lb <= rs.total_s, "RS bound {lb} > simulated {}", rs.total_s);
    }

    #[test]
    fn moe_bounds_floor_the_simulated_phase_times() {
        let shape = crate::shapes::moe_shapes()[0].clone();
        let cluster = ClusterSpec::h800_node(8);
        let cost = analytic_cost(&cluster);
        let cfg = OverlapConfig::default();
        let kernel = crate::moe::ag_group_gemm_kernel(&shape, &cfg, &cost, None).unwrap();
        let first = simulate_report(&kernel, &cost).unwrap();
        let lb = moe_first_bound(&shape, &cfg, &*cost);
        assert!(lb > 0.0);
        assert!(
            lb <= first.total_s,
            "first-half bound {lb} > {}",
            first.total_s
        );
        let kernel = crate::moe::group_gemm_rs_kernel(&shape, &cfg, &cost, None).unwrap();
        let second = simulate_report(&kernel, &cost).unwrap();
        let lb = moe_second_bound(&shape, &cfg, &*cost);
        assert!(lb > 0.0);
        assert!(
            lb <= second.total_s,
            "second-half bound {lb} > {}",
            second.total_s
        );
    }

    /// Single-GPU "clusters" have no links: the bound degrades to compute
    /// plus launch instead of dividing by a zero bandwidth.
    #[test]
    fn single_rank_bound_has_no_comm_term() {
        let cluster = ClusterSpec::h800_node(1);
        let cost = analytic_cost(&cluster);
        let cfg = OverlapConfig::default();
        let lb = mlp_ag_gemm_bound(&shape(), &cfg, &*cost);
        assert!(lb.is_finite() && lb > 0.0);
    }
}

//! Admissible closed-form lower bounds for the workload cost oracles.
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
//! [`compose_layer`] spends the bounds: it prices a two-half layer's makespan
//! under one cutoff, handing each half the residual budget the other leaves.
//! It prices each half through the oracle's [`MakespanMemo`], so a half
//! kernel the search already priced (the same kernel compiled from another
//! config) costs a lookup, not a graph build and a simulation; the memo
//! answers every cutoff exactly as a fresh simulation would classify it.
//! [`exact_layer`] is its exact sibling: the same two halves, each priced
//! with its comm/compute split by [`MakespanMemo::report`]. A half whose
//! full graph finished in a bounded evaluation is read from the memo, so a
//! search winner costs only its comm-only and compute-only runs; the figures
//! pass a fresh memo and simulate all three runs of each half.

use tilelink::exec::MakespanMemo;
use tilelink::{CommMapping, CompiledKernel, OverlapConfig, OverlapReport};
use tilelink_sim::{BoundedMakespan, CostProvider, ResourceKind, Task, Work};

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

/// Lower bound for the MoE second half (GroupGEMM + RS). Both second-half
/// kernels compile onto `moe::SECOND_HALF_MAPPING` whatever the config says,
/// so the bound drains through that lane too.
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

/// Prices a layer of two kernel halves with an activation of `act` seconds
/// between them exactly: each half's full [`OverlapReport`] from
/// [`MakespanMemo::report`], summed by [`OverlapReport::layer`]. It takes the
/// closures [`compose_layer`] takes, so a layer's exact and bounded prices
/// compile the same kernels and agree on `total_s` bit for bit.
///
/// # Errors
///
/// Returns the first error either half reports.
pub(crate) fn exact_layer(
    memo: &MakespanMemo,
    act: f64,
    first: impl FnOnce() -> tilelink::Result<CompiledKernel>,
    second: impl FnOnce() -> tilelink::Result<CompiledKernel>,
) -> tilelink::Result<OverlapReport> {
    let first = memo.report(&first()?)?;
    let second = memo.report(&second()?)?;
    Ok(OverlapReport::layer(first, act, second))
}

/// Prices the makespan of a layer of two kernel halves with an activation
/// between them under one cutoff on the layer total: the residual-budget
/// composition every layer oracle's bounded evaluation shares.
///
/// `first` and `second` compile one half each, and each half's makespan is
/// priced through `memo` within the budget it is handed. The first half may
/// spend what the cutoff leaves after the activation `act` and
/// `second_bound`, an admissible lower bound of the second half; the second
/// half what remains after the exactly priced first one. An `Exceeded` clock
/// is therefore a certified lower bound on the layer total, and a `Finished`
/// total sums as `(first + second) + act`, bit for bit the `total_s` of
/// [`exact_layer`].
///
/// # Errors
///
/// Returns the first error either half reports.
pub(crate) fn compose_layer(
    memo: &MakespanMemo,
    cutoff: f64,
    act: f64,
    second_bound: f64,
    first: impl FnOnce() -> tilelink::Result<CompiledKernel>,
    second: impl FnOnce() -> tilelink::Result<CompiledKernel>,
) -> tilelink::Result<BoundedMakespan> {
    let first = match memo.makespan(&first()?, cutoff - act - second_bound)? {
        BoundedMakespan::Finished(total) => total,
        BoundedMakespan::Exceeded(clock) => {
            return Ok(BoundedMakespan::Exceeded(clock + second_bound + act))
        }
    };
    // With the first half priced exactly, the second half's bound may already
    // certify the layer past the cutoff: skip its compile and simulation.
    if first + second_bound + act > cutoff {
        return Ok(BoundedMakespan::Exceeded(first + second_bound + act));
    }
    match memo.makespan(&second()?, cutoff - act - first)? {
        BoundedMakespan::Finished(second) => Ok(BoundedMakespan::Finished(first + second + act)),
        BoundedMakespan::Exceeded(clock) => Ok(BoundedMakespan::Exceeded(first + clock + act)),
    }
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
        let kernel = crate::moe::ag_group_gemm_kernel(&shape, &cfg, &cost).unwrap();
        let first = simulate_report(&kernel, &cost).unwrap();
        let lb = moe_first_bound(&shape, &cfg, &*cost);
        assert!(lb > 0.0);
        assert!(
            lb <= first.total_s,
            "first-half bound {lb} > {}",
            first.total_s
        );
        let kernel = crate::moe::group_gemm_rs_kernel(&shape, &cfg, &cost).unwrap();
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

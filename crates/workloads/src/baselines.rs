//! The baselines of the paper's evaluation, as analytic cost models on the
//! same simulated hardware.
//!
//! Every baseline uses the *same* cost ingredients as the TileLink timed path
//! (the `tilelink-sim` cost provider: tensor-core roofline, tile efficiency,
//! wave quantisation, link bandwidth, kernel-launch and host-sync latencies),
//! so the comparisons in the benchmark harness measure the overlap *strategy*,
//! not a different hardware model. Every baseline is priced by the
//! [`CostProvider`] it is handed (the analytic `CostModel` or, e.g., the
//! calibrated model), so a `--cost-model` switch reprices baselines and
//! TileLink kernels consistently. The strategies are:
//!
//! * **cuBLAS + NCCL (non-overlap)** — collective, then compute, serially;
//! * **Async-TP (decomposition)** — the operators are split into `world`
//!   chunks pipelined on two streams with host-driven synchronisation between
//!   chunks (Section 2.2's decomposition approach);
//! * **FLUX (fusion)** — a tightly-coupled fused kernel: excellent for
//!   AllGather + GEMM, sub-optimal for GEMM + ReduceScatter where the coupled
//!   tile size compromises the GEMM (Section 7.2);
//! * **CUTLASS + NCCL / vLLM-Op** — the MoE-specific baselines of Figure 9
//!   (unfused vs fused gather/scatter, no overlap);
//! * **Torch / RingAttention** — the attention baselines of Figure 10
//!   (materialised-score attention, and ring-scheduled blockwise attention).

use tilelink::OverlapReport;
use tilelink_sim::CostProvider;

use crate::mlp::BYTES_PER_ELEM;
use crate::moe::dispatched_rows;
use crate::{AttnShape, MlpShape, MoeShape};

/// Seconds for a ring AllGather / ReduceScatter where every rank ends up
/// sending `(world-1)/world` of `total_bytes` through its link, priced step
/// by step so a calibrated provider sees the real per-message chunk size.
///
/// Hops are priced through the shared
/// [`tilelink_collectives::timed::ring_collective_seconds`] estimator:
/// every pipeline step drains at the *slowest* hop of the ring, so on
/// multi-node rings the baselines pay the InfiniBand node-crossing hop (and,
/// via [`CostProvider::link_seconds`], the per-message α floor) exactly like
/// the collectives crate's own closed form.
fn ring_collective_seconds(cost: &dyn CostProvider, total_bytes: f64) -> f64 {
    let cluster = cost.cluster();
    let world = cluster.world_size() as f64;
    if world <= 1.0 {
        return 0.0;
    }
    let per_rank = total_bytes / world;
    tilelink_collectives::timed::ring_collective_seconds(cost, per_rank)
        + cluster.gpu.kernel_launch_s()
}

/// Bytes of the gathered `[tokens, hidden]` activation an MLP or MoE layer's
/// collectives move.
fn gathered_bytes(tokens: usize, hidden: usize) -> f64 {
    tokens as f64 * hidden as f64 * BYTES_PER_ELEM
}

// ---------------------------------------------------------------------------
// MLP: cuBLAS+NCCL, Async-TP, FLUX
// ---------------------------------------------------------------------------

/// cuBLAS + NCCL AllGather + GEMM: collective then GEMM, no overlap.
pub fn non_overlap_ag_gemm(shape: &MlpShape, cost: &dyn CostProvider) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let comm = ring_collective_seconds(cost, gathered_bytes(shape.tokens, shape.hidden));
    let n_local = 2 * shape.intermediate / world;
    let comp = cost.gemm_seconds(
        shape.tokens,
        n_local,
        shape.hidden,
        128,
        256,
        cluster.gpu.sm_count,
    ) + cluster.gpu.kernel_launch_s();
    OverlapReport::new(comm + comp, comm, comp)
}

/// cuBLAS + NCCL GEMM + ReduceScatter: GEMM then collective, no overlap.
pub fn non_overlap_gemm_rs(shape: &MlpShape, cost: &dyn CostProvider) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let comm = ring_collective_seconds(cost, gathered_bytes(shape.tokens, shape.hidden));
    let k_local = shape.intermediate / world;
    let comp = cost.gemm_seconds(
        shape.tokens,
        shape.hidden,
        k_local,
        128,
        256,
        cluster.gpu.sm_count,
    ) + cluster.gpu.kernel_launch_s();
    OverlapReport::new(comm + comp, comm, comp)
}

/// cuBLAS + NCCL full MLP (both halves plus the activation).
pub fn non_overlap_full_mlp(shape: &MlpShape, cost: &dyn CostProvider) -> OverlapReport {
    let a = non_overlap_ag_gemm(shape, cost);
    let b = non_overlap_gemm_rs(shape, cost);
    OverlapReport::layer(a, crate::mlp::activation_seconds(shape, cost), b)
}

/// Async-TP style decomposition: the M dimension is split into `world` chunks,
/// each chunk's copy and GEMM run on separate streams with host
/// synchronisation between them.
pub fn decompose_ag_gemm(shape: &MlpShape, cost: &dyn CostProvider) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let chunks = world.max(2);
    let n_local = 2 * shape.intermediate / world;
    let chunk_rows = shape.tokens / chunks;
    // Each chunk's copy circulates around the same ring as the collective, so
    // it drains at the slowest (on multi-node rings: InfiniBand) hop.
    let chunk_comm = tilelink_collectives::timed::ring_hop_seconds(
        cost,
        gathered_bytes(shape.tokens, shape.hidden) / chunks as f64,
    );
    // The decomposed GEMM loses efficiency from wave quantisation on the small chunk.
    let chunk_comp = cost.gemm_seconds(
        chunk_rows,
        n_local,
        shape.hidden,
        128,
        256,
        cluster.gpu.sm_count,
    );
    // Per chunk: a copy launch, a GEMM launch and two host synchronisations to
    // order the streams (the host intervention the paper blames for Async-TP's
    // overhead).
    let per_chunk_overhead = 2.0 * cluster.gpu.kernel_launch_s() + 2.0 * cluster.gpu.host_sync_s();
    let steady = (chunks as f64) * chunk_comm.max(chunk_comp);
    let total = chunk_comm + steady + chunks as f64 * per_chunk_overhead;
    let comm = chunks as f64 * chunk_comm;
    let comp = chunks as f64 * chunk_comp;
    OverlapReport::new(total, comm, comp)
}

/// Async-TP style decomposition of GEMM + ReduceScatter.
pub fn decompose_gemm_rs(shape: &MlpShape, cost: &dyn CostProvider) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let chunks = world.max(2);
    let k_local = shape.intermediate / world;
    let chunk_rows = shape.tokens / chunks;
    let chunk_comm = tilelink_collectives::timed::ring_hop_seconds(
        cost,
        gathered_bytes(shape.tokens, shape.hidden) / chunks as f64,
    );
    let chunk_comp = cost.gemm_seconds(
        chunk_rows,
        shape.hidden,
        k_local,
        128,
        256,
        cluster.gpu.sm_count,
    );
    let per_chunk_overhead = 2.0 * cluster.gpu.kernel_launch_s() + 2.0 * cluster.gpu.host_sync_s();
    let steady = (chunks as f64) * chunk_comm.max(chunk_comp);
    let total = chunk_comp + steady + chunks as f64 * per_chunk_overhead;
    OverlapReport::new(
        total,
        chunks as f64 * chunk_comm,
        chunks as f64 * chunk_comp,
    )
}

/// FLUX-style fused AllGather + GEMM: the communication is almost entirely
/// hidden beneath a highly-tuned GEMM (the best result in Figure 8's first
/// panel).
pub fn flux_ag_gemm(shape: &MlpShape, cost: &dyn CostProvider) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let comm = ring_collective_seconds(cost, gathered_bytes(shape.tokens, shape.hidden));
    let n_local = 2 * shape.intermediate / world;
    let comp = cost.gemm_seconds(
        shape.tokens,
        n_local,
        shape.hidden,
        128,
        256,
        cluster.gpu.sm_count,
    );
    // A hand-tuned fused kernel: tiny exposed communication prologue plus the GEMM.
    let exposed = comm / world as f64;
    OverlapReport::new(
        comp.max(comm) + exposed + cluster.gpu.kernel_launch_s(),
        comm,
        comp,
    )
}

/// FLUX-style fused GEMM + ReduceScatter: the tightly-coupled tile choice
/// penalises the GEMM and leaves part of the scatter exposed (the paper finds
/// it slower than the non-overlapped baseline here).
pub fn flux_gemm_rs(shape: &MlpShape, cost: &dyn CostProvider) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let comm = ring_collective_seconds(cost, gathered_bytes(shape.tokens, shape.hidden));
    let k_local = shape.intermediate / world;
    // Coupled tile: the GEMM must adopt the communication tile (128x128) and
    // runs its reduction epilogue on the same CTAs, costing efficiency.
    let comp = cost.gemm_seconds(
        shape.tokens,
        shape.hidden,
        k_local,
        128,
        128,
        cluster.gpu.sm_count,
    ) * 1.15;
    let exposed = 0.35 * comm;
    OverlapReport::new(
        comp.max(comm) + exposed + cluster.gpu.kernel_launch_s(),
        comm,
        comp,
    )
}

/// FLUX-style full MLP.
pub fn flux_full_mlp(shape: &MlpShape, cost: &dyn CostProvider) -> OverlapReport {
    let a = flux_ag_gemm(shape, cost);
    let b = flux_gemm_rs(shape, cost);
    OverlapReport::layer(a, crate::mlp::activation_seconds(shape, cost), b)
}

/// Async-TP full MLP.
pub fn decompose_full_mlp(shape: &MlpShape, cost: &dyn CostProvider) -> OverlapReport {
    let a = decompose_ag_gemm(shape, cost);
    let b = decompose_gemm_rs(shape, cost);
    OverlapReport::layer(a, crate::mlp::activation_seconds(shape, cost), b)
}

// ---------------------------------------------------------------------------
// MoE: cuBLAS+NCCL, CUTLASS+NCCL, vLLM-Op
// ---------------------------------------------------------------------------

/// Time of an *unfused* gather (or scatter) that materialises the dispatched
/// token matrix in HBM.
fn unfused_shuffle_seconds(shape: &MoeShape, cost: &dyn CostProvider, width: usize) -> f64 {
    let bytes = (shape.tokens + 2 * dispatched_rows(shape)) as f64 * width as f64 * BYTES_PER_ELEM;
    cost.hbm_seconds(bytes) + cost.cluster().gpu.kernel_launch_s()
}

/// First MoE half with cuBLAS + NCCL: AllGather, unfused gather, one GEMM per
/// expert (each paying a launch and running far below peak).
pub fn cublas_nccl_moe_first(shape: &MoeShape, cost: &dyn CostProvider) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let comm = ring_collective_seconds(cost, gathered_bytes(shape.tokens, shape.hidden));
    let gather = unfused_shuffle_seconds(shape, cost, shape.hidden);
    let rows_per_expert = (dispatched_rows(shape) / shape.experts).max(1);
    let i_local = shape.intermediate / world;
    let per_expert = cost.gemm_seconds(
        rows_per_expert,
        i_local,
        shape.hidden,
        64,
        64,
        cluster.gpu.sm_count,
    ) + cluster.gpu.kernel_launch_s();
    let comp = gather + shape.experts as f64 * per_expert;
    OverlapReport::new(comm + comp, comm, comp)
}

/// First MoE half with CUTLASS + NCCL: unfused gather, one grouped GEMM.
pub fn cutlass_nccl_moe_first(shape: &MoeShape, cost: &dyn CostProvider) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let comm = ring_collective_seconds(cost, gathered_bytes(shape.tokens, shape.hidden));
    let gather = unfused_shuffle_seconds(shape, cost, shape.hidden);
    let i_local = shape.intermediate / world;
    let group_gemm = cost.gemm_seconds(
        dispatched_rows(shape),
        i_local,
        shape.hidden,
        128,
        128,
        cluster.gpu.sm_count,
    ) + cluster.gpu.kernel_launch_s();
    let comp = gather + group_gemm;
    OverlapReport::new(comm + comp, comm, comp)
}

/// First MoE half with vLLM's fused gather + grouped GEMM (no overlap with the
/// AllGather).
pub fn vllm_moe_first(shape: &MoeShape, cost: &dyn CostProvider) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let comm = ring_collective_seconds(cost, gathered_bytes(shape.tokens, shape.hidden));
    let i_local = shape.intermediate / world;
    let fused = cost.gemm_seconds(
        dispatched_rows(shape),
        i_local,
        shape.hidden,
        128,
        128,
        cluster.gpu.sm_count,
    ) + cluster.gpu.kernel_launch_s();
    OverlapReport::new(comm + fused, comm, fused)
}

/// Second MoE half (GroupGEMM + Scatter + TopK-Reduce + RS) under the three
/// baselines; `fused_epilogue` distinguishes vLLM (true) from cuBLAS/CUTLASS
/// (false), and `per_expert_launches` distinguishes cuBLAS (true) from the rest.
fn moe_second_baseline(
    shape: &MoeShape,
    cost: &dyn CostProvider,
    fused_epilogue: bool,
    per_expert_launches: bool,
) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let i_local = shape.intermediate / world;
    let comm = ring_collective_seconds(cost, gathered_bytes(shape.tokens, shape.hidden));
    let gemm_rows = dispatched_rows(shape);
    let mut comp = if per_expert_launches {
        let rows_per_expert = (gemm_rows / shape.experts).max(1);
        shape.experts as f64
            * (cost.gemm_seconds(
                rows_per_expert,
                shape.hidden,
                i_local,
                64,
                64,
                cluster.gpu.sm_count,
            ) + cluster.gpu.kernel_launch_s())
    } else {
        cost.gemm_seconds(
            gemm_rows,
            shape.hidden,
            i_local,
            128,
            128,
            cluster.gpu.sm_count,
        ) + cluster.gpu.kernel_launch_s()
    };
    if !fused_epilogue {
        comp += unfused_shuffle_seconds(shape, cost, shape.hidden);
    }
    // top-k reduce epilogue (memory bound)
    comp += cost
        .hbm_seconds(dispatched_rows(shape) as f64 * shape.hidden as f64 * BYTES_PER_ELEM * 3.0);
    OverlapReport::new(comm + comp, comm, comp)
}

/// Second MoE half with cuBLAS + NCCL.
pub fn cublas_nccl_moe_second(shape: &MoeShape, cost: &dyn CostProvider) -> OverlapReport {
    moe_second_baseline(shape, cost, false, true)
}

/// Second MoE half with CUTLASS + NCCL.
pub fn cutlass_nccl_moe_second(shape: &MoeShape, cost: &dyn CostProvider) -> OverlapReport {
    moe_second_baseline(shape, cost, false, false)
}

/// Second MoE half with vLLM's fused scatter kernels.
pub fn vllm_moe_second(shape: &MoeShape, cost: &dyn CostProvider) -> OverlapReport {
    moe_second_baseline(shape, cost, true, false)
}

fn combine_moe(
    first: OverlapReport,
    second: OverlapReport,
    shape: &MoeShape,
    cost: &dyn CostProvider,
) -> OverlapReport {
    OverlapReport::layer(first, crate::moe::activation_seconds(shape, cost), second)
}

/// Full MoE layer with cuBLAS + NCCL.
pub fn cublas_nccl_full_moe(shape: &MoeShape, cost: &dyn CostProvider) -> OverlapReport {
    combine_moe(
        cublas_nccl_moe_first(shape, cost),
        cublas_nccl_moe_second(shape, cost),
        shape,
        cost,
    )
}

/// Full MoE layer with CUTLASS + NCCL.
pub fn cutlass_nccl_full_moe(shape: &MoeShape, cost: &dyn CostProvider) -> OverlapReport {
    combine_moe(
        cutlass_nccl_moe_first(shape, cost),
        cutlass_nccl_moe_second(shape, cost),
        shape,
        cost,
    )
}

/// Full MoE layer with vLLM's fused operators.
pub fn vllm_full_moe(shape: &MoeShape, cost: &dyn CostProvider) -> OverlapReport {
    combine_moe(
        vllm_moe_first(shape, cost),
        vllm_moe_second(shape, cost),
        shape,
        cost,
    )
}

// ---------------------------------------------------------------------------
// Attention: Torch (non-flash, non-overlap) and RingAttention
// ---------------------------------------------------------------------------

fn kv_allgather_seconds(shape: &AttnShape, seq_len: usize, cost: &dyn CostProvider) -> f64 {
    let total = 2.0 * shape.heads as f64 * seq_len as f64 * shape.head_dim as f64 * BYTES_PER_ELEM;
    ring_collective_seconds(cost, total)
}

/// Flash-attention compute time for one rank's query shard against the full
/// sequence, at `efficiency` of peak.
fn flash_seconds(
    shape: &AttnShape,
    seq_len: usize,
    cost: &dyn CostProvider,
    efficiency: f64,
) -> f64 {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let q_rows = seq_len / world;
    let flops = 4.0 * shape.heads as f64 * q_rows as f64 * seq_len as f64 * shape.head_dim as f64;
    flops / (cluster.gpu.peak_flops() * efficiency)
}

/// The "Torch" baseline of Figure 10: NCCL AllGather of the KV cache followed
/// by attention with materialised score matrices (two batched GEMMs plus a
/// softmax over the `S_q × S_kv` matrix).
pub fn torch_attention(
    shape: &AttnShape,
    seq_len: usize,
    cost: &dyn CostProvider,
) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let comm = kv_allgather_seconds(shape, seq_len, cost);
    let q_rows = seq_len / world;
    // materialised scores: written and re-read around the softmax (4 passes)
    let score_bytes = 4.0 * shape.heads as f64 * q_rows as f64 * seq_len as f64 * BYTES_PER_ELEM;
    let softmax = cost.hbm_seconds(score_bytes);
    let gemms = flash_seconds(shape, seq_len, cost, 0.45);
    let comp = softmax + gemms + 3.0 * cluster.gpu.kernel_launch_s();
    OverlapReport::new(comm + comp, comm, comp)
}

/// RingAttention: blockwise flash attention scheduled around the ring; each of
/// the `world` steps waits for its KV block before computing, so the first
/// transfer is exposed and the blockwise rescaling costs efficiency.
pub fn ring_attention(shape: &AttnShape, seq_len: usize, cost: &dyn CostProvider) -> OverlapReport {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let comm = kv_allgather_seconds(shape, seq_len, cost);
    let comp = flash_seconds(shape, seq_len, cost, 0.35);
    let step_comm = comm / (world as f64 - 1.0).max(1.0);
    let step_comp = comp / world as f64;
    let per_step_sync = cluster.gpu.host_sync_s();
    let total = step_comm
        + world as f64 * (step_comm.max(step_comp) + per_step_sync)
        + cluster.gpu.kernel_launch_s();
    OverlapReport::new(total, comm, comp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{attn_shapes, mlp_shapes, moe_shapes};
    use tilelink_sim::{CalibratedCostModel, ClusterSpec, CostModel};

    fn cluster() -> ClusterSpec {
        ClusterSpec::h800_node(8)
    }

    fn analytic(cluster: &ClusterSpec) -> CostModel {
        CostModel::new(cluster.clone())
    }

    /// Figure 10's TileLink point: the compiled SP-attention kernel, priced
    /// by the simulator under the analytic model.
    fn sp_attention_report(shape: &AttnShape, seq_len: usize) -> OverlapReport {
        use crate::attention::{attention_config, sp_attention_kernel};

        let cost = tilelink_sim::analytic_cost(&cluster());
        let kernel = sp_attention_kernel(shape, seq_len, &attention_config(), &cost).unwrap();
        tilelink::exec::simulate_report(&kernel, &cost).unwrap()
    }

    #[test]
    fn table2_non_overlap_magnitudes() {
        // Table 2 reports 0.676 ms and 0.541 ms for the two MLP-1 halves; the
        // simulated substrate should land in the same regime (hundreds of µs).
        let shape = &mlp_shapes()[0];
        let ag = non_overlap_ag_gemm(shape, &analytic(&cluster()));
        let rs = non_overlap_gemm_rs(shape, &analytic(&cluster()));
        assert!(ag.total_ms() > 0.1 && ag.total_ms() < 3.0, "{ag}");
        assert!(rs.total_ms() > 0.1 && rs.total_ms() < 3.0, "{rs}");
    }

    #[test]
    fn decomposition_is_slower_than_non_overlap() {
        // The paper's motivational example: Async-TP is slower than the
        // non-overlapping baseline for both halves.
        let shape = &mlp_shapes()[0];
        let c = analytic(&cluster());
        assert!(decompose_ag_gemm(shape, &c).total_s > non_overlap_ag_gemm(shape, &c).total_s);
        assert!(decompose_gemm_rs(shape, &c).total_s > non_overlap_gemm_rs(shape, &c).total_s);
    }

    #[test]
    fn flux_wins_ag_gemm_but_not_gemm_rs() {
        let shape = &mlp_shapes()[0];
        let c = analytic(&cluster());
        assert!(flux_ag_gemm(shape, &c).total_s < non_overlap_ag_gemm(shape, &c).total_s);
        // FLUX GEMM+RS is not better than the plain baseline (Figure 8, middle).
        assert!(flux_gemm_rs(shape, &c).total_s >= non_overlap_gemm_rs(shape, &c).total_s * 0.95);
    }

    #[test]
    fn vllm_fusion_crushes_unfused_moe_baselines() {
        // Figure 9: fusing gather/scatter into the Group GEMM gives vLLM a large
        // advantage over the unfused cuBLAS baseline, biggest for many experts.
        let c = analytic(&cluster());
        for shape in moe_shapes() {
            let cublas = cublas_nccl_full_moe(&shape, &c);
            let vllm = vllm_full_moe(&shape, &c);
            let speedup = vllm.speedup_over(&cublas);
            let floor = if shape.experts >= 32 { 1.8 } else { 1.3 };
            assert!(
                speedup > floor,
                "{}: vLLM speedup only {speedup:.2} (expected > {floor})",
                shape.name
            );
        }
    }

    #[test]
    fn cutlass_sits_between_cublas_and_vllm() {
        let c = analytic(&cluster());
        let shape = &moe_shapes()[2]; // 32 experts: many small per-expert GEMMs
        let cublas = cublas_nccl_full_moe(shape, &c).total_s;
        let cutlass = cutlass_nccl_full_moe(shape, &c).total_s;
        let vllm = vllm_full_moe(shape, &c).total_s;
        assert!(cutlass < cublas);
        assert!(vllm < cutlass);
    }

    #[test]
    fn torch_attention_is_much_slower_than_overlapped_flash() {
        let shape = &attn_shapes()[0];
        let c = analytic(&cluster());
        for &s in &shape.seq_lens {
            let torch = torch_attention(shape, s, &c);
            let tl = sp_attention_report(shape, s);
            let speedup = tl.speedup_over(&torch);
            assert!(speedup > 2.0, "seq {s}: speedup {speedup:.2}");
        }
    }

    #[test]
    fn ring_attention_beats_torch_but_loses_to_overlap() {
        let shape = &attn_shapes()[1];
        let c = analytic(&cluster());
        let s = 65_536;
        let torch = torch_attention(shape, s, &c).total_s;
        let ring = ring_attention(shape, s, &c).total_s;
        let tl = sp_attention_report(shape, s).total_s;
        assert!(ring < torch);
        assert!(tl < ring);
    }

    #[test]
    fn attention_times_grow_with_sequence_length() {
        let shape = &attn_shapes()[0];
        let c = analytic(&cluster());
        let t16 = torch_attention(shape, 16_384, &c).total_s;
        let t128 = torch_attention(shape, 131_072, &c).total_s;
        assert!(t128 > 4.0 * t16);
    }

    #[test]
    fn two_node_ring_baseline_pays_inter_node_pricing() {
        // At equal per-rank bytes, the 16-GPU two-node ring has 15 pipeline
        // steps draining at InfiniBand rate vs the 8-GPU single-node ring's 7
        // NVLink steps — strictly slower under both cost models.
        let one = cluster();
        let two = ClusterSpec::h800_multi_node(2);
        let per_rank = 8e6;
        for (label, cost_one, cost_two) in [
            (
                "analytic",
                Box::new(analytic(&one)) as Box<dyn CostProvider>,
                Box::new(analytic(&two)) as Box<dyn CostProvider>,
            ),
            (
                "calibrated",
                Box::new(CalibratedCostModel::h800_defaults(one.clone())),
                Box::new(CalibratedCostModel::h800_defaults(two.clone())),
            ),
        ] {
            let t8 = ring_collective_seconds(&*cost_one, per_rank * 8.0);
            let t16 = ring_collective_seconds(&*cost_two, per_rank * 16.0);
            // Strictly slower than the single-node ring even after accounting
            // for the extra hops alone: the bottleneck hop is IB.
            assert!(
                t16 > t8 * 15.0 / 7.0,
                "{label}: t8={t8} t16={t16} (two-node ring must pay IB)"
            );
        }
    }

    #[test]
    fn calibrated_provider_raises_baseline_communication_costs() {
        // The calibrated table never credits more than 95% of peak bandwidth,
        // so every baseline's comm phase is strictly slower than analytic.
        let calibrated = CalibratedCostModel::h800_defaults(cluster());
        let shape = &mlp_shapes()[0];
        let a = non_overlap_ag_gemm(shape, &analytic(&cluster()));
        let m = non_overlap_ag_gemm(shape, &calibrated);
        assert!(m.comm_only_s > a.comm_only_s);
        assert!(m.total_s > a.total_s);
    }
}

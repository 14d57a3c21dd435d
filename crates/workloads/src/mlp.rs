//! Tensor-parallel MLP: AllGather + GEMM and GEMM + ReduceScatter.
//!
//! The layer follows Figure 1 of the paper: token activations are sharded by
//! rows, the two weight matrices are sharded across ranks, so the first half is
//! `AllGather + GEMM` and the second half is `GEMM + ReduceScatter`, with a
//! gated activation in between.
//!
//! Two implementations are provided for each half:
//!
//! * **functional** ([`ag_gemm_functional`], [`gemm_rs_functional`]) — the
//!   overlapped kernels written with the tile-centric primitives, executed on
//!   real data with one thread per block; unit tests check them against the
//!   unoverlapped collective + GEMM reference;
//! * **timed** ([`ag_gemm_kernel`], [`gemm_rs_kernel`], [`timed_full_mlp`]) —
//!   the same kernels expressed as tile programs, compiled by the TileLink
//!   compiler and executed on the cluster simulator; these produce the
//!   TileLink bars of Figure 8 and Table 2. Each half has one entry point
//!   taking the shape, the config and the cost provider and returning the
//!   compiled kernel, which `tilelink::exec` prices exactly or under a
//!   cutoff on its makespan.
//!
//! The timed builders emit the GEMM halves themselves; the AllGather
//! producers and the ring ReduceScatter come from the crate's one
//! communication module, which the MoE builders share.

use tilelink::config::{CommMapping, OverlapConfig, TileShape};
use tilelink::exec::{run_comm_compute, simulate_report};
use tilelink::ir::{BlockDesc, BlockRole, ComputeKind, NamePattern, Symbol, TileOp, TileProgram};
use tilelink::primitives::{NotifyScope, PushTarget};
use tilelink::tile::{read_tile, write_tile, TileRect};
use tilelink::{
    BlockChannel, CacheSite, CompiledKernel, Compiler, DeviceHandle, OverlapReport, StaticMapping,
    TileMapping,
};
use tilelink_compute::gemm::matmul;
use tilelink_compute::Tensor;
use tilelink_shmem::ProcessGroup;
use tilelink_sim::{CostProvider, SharedCost};

use crate::comm;

/// Bytes per element on the paper's hardware (BF16).
pub const BYTES_PER_ELEM: f64 = 2.0;

/// Recommended configuration for the AllGather + GEMM half: communication on
/// the copy engine (as the paper reports TileLink chooses), large compute tiles.
pub fn ag_gemm_config() -> OverlapConfig {
    OverlapConfig {
        comm_tile: TileShape::new(128, 128),
        compute_tile: TileShape::new(128, 256),
        comm_mapping: CommMapping::CopyEngine,
        ..OverlapConfig::default()
    }
}

/// Recommended configuration for the GEMM + ReduceScatter half: hybrid mapping
/// (scatter on the copy engine, reduction on a few SMs), ring tile order.
pub fn gemm_rs_config() -> OverlapConfig {
    OverlapConfig {
        comm_tile: TileShape::new(128, 128),
        compute_tile: TileShape::new(128, 256),
        comm_mapping: CommMapping::Hybrid { sms: 20 },
        order: tilelink::TileOrder::Ring,
        mode: tilelink::TransferMode::Push,
        ..OverlapConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Functional kernels
// ---------------------------------------------------------------------------

/// Overlapped AllGather + GEMM on real data.
///
/// * `tokens`: the full `[M, K]` token matrix (each rank owns rows
///   `rank*M/world .. (rank+1)*M/world`);
/// * `weight_shards[r]`: rank `r`'s `[K, N_r]` weight shard.
///
/// Returns each rank's `[M, N_r]` output, which must equal
/// `matmul(tokens, weight_shards[r])`.
///
/// # Panics
///
/// Panics if `M` is not divisible by `world * comm_tile_m`.
pub fn ag_gemm_functional(
    world: usize,
    tokens: &Tensor,
    weight_shards: &[Tensor],
    comm_tile_m: usize,
    compute_tile_m: usize,
) -> Vec<Tensor> {
    let m = tokens.shape()[0];
    let k = tokens.shape()[1];
    let m_per_rank = m / world;
    assert_eq!(
        m % (world * comm_tile_m),
        0,
        "M must divide evenly for this kernel"
    );
    let mapping = StaticMapping::new(m, comm_tile_m, world, 2);

    ProcessGroup::launch(world, |ctx| {
        let rank = ctx.rank();
        let n_local = weight_shards[rank].shape()[1];
        // Symmetric buffers: the local token shard and the gathered matrix.
        let src = ctx.alloc("mlp/ag_src", m_per_rank * k);
        src.write_slice(
            0,
            tokens
                .slice_rows(rank * m_per_rank..(rank + 1) * m_per_rank)
                .data(),
        );
        ctx.alloc("mlp/ag_gathered", m * k);
        let bc = BlockChannel::derive(
            rank,
            world,
            &mapping,
            mapping.num_tiles() / world,
            m / compute_tile_m,
        );
        let dev = DeviceHandle::new(&ctx, "mlp_ag_gemm", bc, 0);
        dev.barrier_all();

        let own_tiles = mapping.tiles_of_rank(rank);
        let weight = weight_shards[rank].clone();
        let num_compute_blocks = m.div_ceil(compute_tile_m);

        let (_, compute_results) = run_comm_compute(
            own_tiles.len(),
            num_compute_blocks,
            // communication blocks: push this rank's tiles to every peer
            |b| {
                let tile = own_tiles[b];
                let rows = mapping.rows_of(tile).expect("tile in range");
                let local_rows = (rows.start - rank * m_per_rank)..(rows.end - rank * m_per_rank);
                let data = read_tile(&src, k, &TileRect::full_rows(local_rows, k));
                dev.tile_push_data(
                    "mlp/ag_gathered",
                    &mapping,
                    tile,
                    k,
                    &data,
                    PushTarget::Broadcast,
                );
                dev.producer_tile_notify(&mapping, tile, NotifyScope::Broadcast);
            },
            // computation blocks: wait for the rows they need, then GEMM
            |b| {
                let rows = b * compute_tile_m..((b + 1) * compute_tile_m).min(m);
                dev.consumer_rows_wait(&mapping, rows.clone());
                let gathered = dev.buffer_on(rank, "mlp/ag_gathered");
                let a = Tensor::from_vec(
                    read_tile(&gathered, k, &TileRect::full_rows(rows.clone(), k)),
                    &[rows.len(), k],
                );
                (rows, matmul(&a, &weight))
            },
        );

        // Assemble the per-block row stripes into the rank's [M, N_r] output.
        let mut out = Tensor::zeros(&[m, n_local]);
        for (rows, tile) in compute_results {
            for (i, r) in rows.enumerate() {
                for c in 0..n_local {
                    out.set(&[r, c], tile.at(&[i, c]));
                }
            }
        }
        out
    })
}

/// Overlapped GEMM + ring ReduceScatter on real data (the kernel of Figure 4).
///
/// * `act_shards[r]`: rank `r`'s `[M, K_r]` activation shard;
/// * `weight_shards[r]`: rank `r`'s `[K_r, N]` weight shard.
///
/// Each rank returns its `[M/world, N]` shard of
/// `sum_r act_shards[r] @ weight_shards[r]`.
///
/// # Panics
///
/// Panics if `M` is not divisible by `world * tile_m`.
pub fn gemm_rs_functional(
    world: usize,
    act_shards: &[Tensor],
    weight_shards: &[Tensor],
    tile_m: usize,
) -> Vec<Tensor> {
    let m = act_shards[0].shape()[0];
    let n = weight_shards[0].shape()[1];
    let m_per_rank = m / world;
    assert_eq!(
        m % (world * tile_m),
        0,
        "M must divide evenly for this kernel"
    );
    let mapping = StaticMapping::new(m, tile_m, world, 2);
    let tiles_per_segment = m_per_rank / tile_m;
    let num_tiles = mapping.num_tiles();

    ProcessGroup::launch(world, |ctx| {
        let rank = ctx.rank();
        // Symmetric buffers: the local partial GEMM output and the landing
        // buffer for partial sums pushed by the next rank in the ring.
        ctx.alloc("mlp/rs_gemm_out", m * n);
        ctx.alloc("mlp/rs_partial", m * n);
        let bc = BlockChannel::derive(rank, world, &mapping, tiles_per_segment, num_tiles);
        let dev = DeviceHandle::new(&ctx, "mlp_gemm_rs", bc, num_tiles);
        dev.barrier_all();

        let act = act_shards[rank].clone();
        let weight = weight_shards[rank].clone();
        let to_rank = (rank + world - 1) % world;

        let (_, reduce_results) = run_comm_compute(
            num_tiles,
            tiles_per_segment,
            // GEMM producer blocks: one per output row tile
            |tile| {
                let rows = mapping.rows_of(tile).expect("tile in range");
                let a = act.slice_rows(rows.clone());
                let partial = matmul(&a, &weight);
                let gemm_out = dev.buffer_on(rank, "mlp/rs_gemm_out");
                write_tile(&gemm_out, n, &TileRect::full_rows(rows, n), partial.data());
                dev.producer_tile_notify(&mapping, tile, NotifyScope::Local);
            },
            // ring ReduceScatter blocks: one per tile of this rank's segment
            |tid_m| {
                let mut data: Vec<f32> = Vec::new();
                let mut final_rows = 0..0;
                for stage in 0..world {
                    let seg = (rank + stage + 1) % world;
                    let tile_global = seg * tiles_per_segment + tid_m;
                    let rows = mapping.rows_of(tile_global).expect("tile in range");
                    // wait for the local GEMM to produce this tile
                    dev.consumer_tile_wait(&mapping, tile_global);
                    let gemm_out = dev.buffer_on(rank, "mlp/rs_gemm_out");
                    data = read_tile(&gemm_out, n, &TileRect::full_rows(rows.clone(), n));
                    if stage != 0 {
                        // fold in the partial sum pushed by the next rank
                        dev.peer_tile_wait(tile_global, 1);
                        let partial = dev.buffer_on(rank, "mlp/rs_partial");
                        let incoming =
                            read_tile(&partial, n, &TileRect::full_rows(rows.clone(), n));
                        for (d, p) in data.iter_mut().zip(incoming) {
                            *d += p;
                        }
                    }
                    if stage == world - 1 {
                        final_rows = rows;
                    } else {
                        // pass the partial sum to the previous rank in the ring
                        dev.tile_push_rect(
                            "mlp/rs_partial",
                            n,
                            &TileRect::full_rows(rows, n),
                            &data,
                            to_rank,
                        );
                        dev.peer_tile_notify(tile_global, to_rank);
                    }
                }
                (final_rows, data)
            },
        );

        // Assemble this rank's [M/world, N] shard.
        let mut out = Tensor::zeros(&[m_per_rank, n]);
        for (rows, data) in reduce_results {
            let base = rank * m_per_rank;
            for (i, r) in rows.enumerate() {
                for c in 0..n {
                    out.set(&[r - base, c], data[i * n + c]);
                }
            }
        }
        out
    })
}

// ---------------------------------------------------------------------------
// Timed kernels (tile programs → compiler → simulator)
// ---------------------------------------------------------------------------

/// Builds the AllGather + GEMM tile program for one MLP shape.
///
/// The first GEMM of the MLP computes both the gate and up projections, so the
/// local output width is `2 * I / world`.
pub fn ag_gemm_program(
    tokens: usize,
    hidden: usize,
    intermediate: usize,
    world: usize,
    cfg: &OverlapConfig,
) -> (TileProgram, StaticMapping) {
    let _span = tilelink_probe::span("compile.build");
    let mapping = StaticMapping::new(tokens, cfg.comm_tile.m, world, cfg.channels_per_rank);
    let comm_m = mapping.tile_rows();
    let n_local = 2 * intermediate / world;
    // Buffer names and block name patterns are interned once per build, not
    // once per op or block (see `moe::ag_group_gemm_program`).
    let gathered = Symbol::intern("gathered");
    let intermediate_buf = Symbol::intern("intermediate");
    let gemm = NamePattern::new("gemm/r{}/b{}");
    let mut program = TileProgram::new("mlp_ag_gemm", world);
    for rank in 0..world {
        // Communication: push this rank's token tiles to every peer.
        comm::allgather_blocks(&mut program, rank, &mapping, hidden);
        // Computation: one block per compute row tile, covering the full local N.
        let compute_tiles = tokens.div_ceil(cfg.compute_tile.m);
        for b in 0..compute_tiles {
            let rows = b * cfg.compute_tile.m..((b + 1) * cfg.compute_tile.m).min(tokens);
            let mut block = BlockDesc::new(gemm.name([rank, b]), rank, BlockRole::Consumer);
            // Comm tile `t` covers rows `t * comm_m..(t + 1) * comm_m`.
            for tile in rows.start / comm_m..rows.end.div_ceil(comm_m) {
                block = block.op(TileOp::ConsumerWait { tile });
            }
            block = block
                .op(TileOp::LoadTile {
                    buffer: gathered,
                    bytes: rows.len() as f64 * hidden as f64 * BYTES_PER_ELEM,
                    tile: None,
                })
                .op(TileOp::Compute(ComputeKind::MatmulTile {
                    m: rows.len(),
                    n: n_local,
                    k: hidden,
                }))
                .op(TileOp::StoreTile {
                    buffer: intermediate_buf,
                    bytes: rows.len() as f64 * n_local as f64 * BYTES_PER_ELEM,
                    tile: None,
                });
            program.add_block(block);
        }
    }
    (program, mapping)
}

/// Builds the GEMM + ring ReduceScatter tile program for one MLP shape.
pub fn gemm_rs_program(
    tokens: usize,
    hidden: usize,
    intermediate: usize,
    world: usize,
    cfg: &OverlapConfig,
) -> (TileProgram, StaticMapping) {
    let _span = tilelink_probe::span("compile.build");
    let tile_m = cfg.compute_tile.m;
    let mapping = StaticMapping::new(tokens, tile_m, world, cfg.channels_per_rank);
    let k_local = intermediate / world;
    let tile_out_bytes = tile_m as f64 * hidden as f64 * BYTES_PER_ELEM;
    // Interned once per build, not once per op (see ag_gemm_program).
    let act = Symbol::intern("act");
    let gemm_out = Symbol::intern("gemm_out");
    let gemm = NamePattern::new("gemm/r{}/t{}");
    let mut program = TileProgram::new("mlp_gemm_rs", world);
    for rank in 0..world {
        // GEMM blocks produce partial-sum tiles of the full [M, H] output.
        for tile in 0..mapping.num_tiles() {
            let rows = mapping.rows_of(tile).expect("tile in range");
            program.add_block(
                BlockDesc::new(gemm.name([rank, tile]), rank, BlockRole::Consumer)
                    .op(TileOp::LoadTile {
                        buffer: act,
                        bytes: rows.len() as f64 * k_local as f64 * BYTES_PER_ELEM,
                        tile: None,
                    })
                    .op(TileOp::Compute(ComputeKind::MatmulTile {
                        m: rows.len(),
                        n: hidden,
                        k: k_local,
                    }))
                    .op(TileOp::StoreTile {
                        buffer: gemm_out,
                        bytes: tile_out_bytes,
                        tile: Some(tile),
                    })
                    .op(TileOp::ProducerNotify {
                        tile,
                        scope: NotifyScope::Local,
                    }),
            );
        }
        // Ring ReduceScatter blocks: one per tile of this rank's segment.
        comm::ring_reduce_scatter_blocks(&mut program, rank, world, tokens, tile_m, hidden);
    }
    (program, mapping)
}

/// Compile-cache site of one MLP half: the shape, the cluster size and
/// `cfg_inputs`, the config values the half's builder reads.
fn mlp_site(
    site: &'static str,
    shape: &crate::MlpShape,
    world: usize,
    cfg_inputs: impl IntoIterator<Item = usize>,
) -> CacheSite {
    CacheSite::new(
        site,
        [shape.tokens, shape.hidden, shape.intermediate, world]
            .into_iter()
            .chain(cfg_inputs),
    )
}

/// The TileLink AllGather + GEMM kernel for one MLP shape, compiled for `cfg`
/// on the cluster `cost` prices. Price it exactly with
/// [`tilelink::exec::simulate_report`], or its makespan under a cutoff with
/// [`tilelink::exec::simulate_makespan`].
///
/// # Errors
///
/// Returns an error if compilation fails.
pub fn ag_gemm_kernel(
    shape: &crate::MlpShape,
    cfg: &OverlapConfig,
    cost: &SharedCost,
) -> tilelink::Result<CompiledKernel> {
    let world = cost.cluster().world_size();
    let site = mlp_site(
        "mlp.ag_gemm",
        shape,
        world,
        comm::allgather_config_inputs(cfg),
    );
    Compiler::new(*cfg, cost).compile_cached(site, || {
        Ok(ag_gemm_program(
            shape.tokens,
            shape.hidden,
            shape.intermediate,
            world,
            cfg,
        ))
    })
}

/// The TileLink GEMM + ReduceScatter kernel for one MLP shape, compiled the
/// same way as [`ag_gemm_kernel`].
///
/// # Errors
///
/// Returns an error if compilation fails.
pub fn gemm_rs_kernel(
    shape: &crate::MlpShape,
    cfg: &OverlapConfig,
    cost: &SharedCost,
) -> tilelink::Result<CompiledKernel> {
    let world = cost.cluster().world_size();
    let site = mlp_site(
        "mlp.gemm_rs",
        shape,
        world,
        comm::reduce_scatter_config_inputs(cfg),
    );
    Compiler::new(*cfg, cost).compile_cached(site, || {
        Ok(gemm_rs_program(
            shape.tokens,
            shape.hidden,
            shape.intermediate,
            world,
            cfg,
        ))
    })
}

/// Simulates the full TileLink MLP layer (AG+GEMM, activation, GEMM+RS) under
/// the recommended per-half configurations, priced exactly by `cost`.
///
/// # Errors
///
/// Returns an error if either half fails to compile or simulate.
pub fn timed_full_mlp(
    shape: &crate::MlpShape,
    cost: &SharedCost,
) -> tilelink::Result<OverlapReport> {
    let first = simulate_report(&ag_gemm_kernel(shape, &ag_gemm_config(), cost)?, cost)?;
    let second = simulate_report(&gemm_rs_kernel(shape, &gemm_rs_config(), cost)?, cost)?;
    Ok(OverlapReport::layer(
        first,
        activation_seconds(shape, &**cost),
        second,
    ))
}

/// Time of the SiLU-mul activation between the two MLP halves (memory bound).
pub fn activation_seconds(shape: &crate::MlpShape, cost: &dyn CostProvider) -> f64 {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let elems = shape.tokens as f64 * (shape.intermediate / world) as f64;
    // read gate + up, write result
    cost.hbm_seconds(3.0 * elems * BYTES_PER_ELEM) + cluster.gpu.kernel_launch_s()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilelink_collectives::Comm;
    use tilelink_sim::{analytic_cost, ClusterSpec};

    fn cost() -> SharedCost {
        analytic_cost(&ClusterSpec::h800_node(8))
    }

    fn reference_ag_gemm(tokens: &Tensor, weight_shards: &[Tensor]) -> Vec<Tensor> {
        weight_shards.iter().map(|w| matmul(tokens, w)).collect()
    }

    #[test]
    fn functional_ag_gemm_matches_reference() {
        let world = 4;
        let (m, k, n_local) = (32, 12, 6);
        let tokens = Tensor::random(&[m, k], 1);
        let weights: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[k, n_local], 100 + r as u64))
            .collect();
        let got = ag_gemm_functional(world, &tokens, &weights, 4, 8);
        let expected = reference_ag_gemm(&tokens, &weights);
        for (g, e) in got.iter().zip(&expected) {
            assert!(g.allclose(e, 1e-4), "diff {}", g.max_abs_diff(e));
        }
    }

    #[test]
    fn functional_ag_gemm_with_different_tile_sizes() {
        // comm tile 2 rows, compute tile 8 rows: the decoupled-tile-size case.
        let world = 2;
        let tokens = Tensor::random(&[16, 8], 3);
        let weights: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[8, 4], 7 + r as u64))
            .collect();
        let got = ag_gemm_functional(world, &tokens, &weights, 2, 8);
        let expected = reference_ag_gemm(&tokens, &weights);
        for (g, e) in got.iter().zip(&expected) {
            assert!(g.allclose(e, 1e-4));
        }
    }

    #[test]
    fn functional_gemm_rs_matches_collective_reference() {
        let world = 4;
        let (m, k_local, n) = (32, 6, 10);
        let acts: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[m, k_local], 11 + r as u64))
            .collect();
        let weights: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[k_local, n], 23 + r as u64))
            .collect();
        let got = gemm_rs_functional(world, &acts, &weights, 4);

        // reference: full sum then slice rows per rank
        let mut full = Tensor::zeros(&[m, n]);
        for r in 0..world {
            let p = matmul(&acts[r], &weights[r]);
            full = full.add(&p);
        }
        for (r, g) in got.iter().enumerate() {
            let expected = full.slice_rows(r * m / world..(r + 1) * m / world);
            assert!(
                g.allclose(&expected, 1e-3),
                "rank {r} diff {}",
                g.max_abs_diff(&expected)
            );
        }
    }

    #[test]
    fn functional_gemm_rs_agrees_with_nccl_style_reduce_scatter() {
        // cross-check against the collectives crate: GEMM locally, then
        // reduce_scatter of the flattened partial outputs.
        let world = 2;
        let (m, k_local, n) = (8, 3, 4);
        let acts: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[m, k_local], 31 + r as u64))
            .collect();
        let weights: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[k_local, n], 41 + r as u64))
            .collect();
        let overlapped = gemm_rs_functional(world, &acts, &weights, 2);

        let acts2 = acts.clone();
        let weights2 = weights.clone();
        let reference = ProcessGroup::launch(world, move |ctx| {
            let mut comm = Comm::new(ctx);
            let partial = matmul(&acts2[comm.rank()], &weights2[comm.rank()]);
            comm.reduce_scatter(partial.data())
        });
        for (r, (got, expect)) in overlapped.iter().zip(&reference).enumerate() {
            let expect = Tensor::from_vec(expect.clone(), &[m / world, n]);
            assert!(got.allclose(&expect, 1e-3), "rank {r}");
        }
    }

    #[test]
    fn timed_ag_gemm_overlaps_and_beats_serial() {
        let shape = crate::shapes::mlp_shapes()[0].clone();
        let cost = cost();
        let kernel = ag_gemm_kernel(&shape, &ag_gemm_config(), &cost).unwrap();
        let report = simulate_report(&kernel, &cost).unwrap();
        assert!(report.total_s > 0.0);
        assert!(report.total_s < report.comm_only_s + report.comp_only_s);
        // Table 2 magnitude check: the overlapped AG+GEMM of MLP-1 is a few
        // hundred microseconds to a millisecond on 8 GPUs.
        assert!(
            report.total_ms() > 0.05 && report.total_ms() < 5.0,
            "{report}"
        );
    }

    #[test]
    fn timed_gemm_rs_overlaps() {
        // The ring ReduceScatter is latency-bound (each partial sum must walk
        // the whole ring), so the achievable overlap is modest — the paper's
        // own Table 2 shows only a 1.07x gain for this half. We require the
        // overlapped total to beat the serial sum and to stay in the Table 2
        // regime of a few hundred microseconds.
        let shape = crate::shapes::mlp_shapes()[0].clone();
        let cost = cost();
        let kernel = gemm_rs_kernel(&shape, &gemm_rs_config(), &cost).unwrap();
        let report = simulate_report(&kernel, &cost).unwrap();
        assert!(report.total_s < report.comm_only_s + report.comp_only_s);
        assert!(
            report.total_ms() > 0.05 && report.total_ms() < 2.0,
            "{report}"
        );
    }

    #[test]
    fn timed_full_mlp_is_sum_of_parts_plus_activation() {
        let shape = crate::shapes::mlp_shapes()[0].clone();
        let cost = cost();
        let ag = simulate_report(
            &ag_gemm_kernel(&shape, &ag_gemm_config(), &cost).unwrap(),
            &cost,
        )
        .unwrap();
        let rs = simulate_report(
            &gemm_rs_kernel(&shape, &gemm_rs_config(), &cost).unwrap(),
            &cost,
        )
        .unwrap();
        let full = timed_full_mlp(&shape, &cost).unwrap();
        assert!(full.total_s > ag.total_s + rs.total_s);
        assert!(full.total_s < (ag.total_s + rs.total_s) * 1.2);
    }

    #[test]
    fn bigger_mlp_shapes_take_longer() {
        let shapes = crate::shapes::mlp_shapes();
        let small = timed_full_mlp(&shapes[0], &cost()).unwrap();
        let large = timed_full_mlp(&shapes[4], &cost()).unwrap();
        assert!(large.total_s > small.total_s);
    }
}

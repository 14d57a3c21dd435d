//! Sequence-parallel self-attention: AllGather-KV overlapped with flash attention.
//!
//! The kernel follows Figure 6 of the paper: the KV cache is sharded across
//! ranks along the sequence dimension; host-side `rank_copy_data` calls stream
//! each remote shard into the local contiguous KV buffer on the copy engine
//! while the attention kernel consumes KV tiles with `consumer_tile_wait` as
//! soon as they arrive, folding them into a flash-attention accumulator (which
//! is order-invariant, so tiles may arrive in any rank order).

use tilelink::config::{CommMapping, OverlapConfig, TileShape};
use tilelink::exec::run_comm_compute;
use tilelink::ir::{BlockDesc, BlockRole, ComputeKind, NamePattern, Symbol, TileOp, TileProgram};
use tilelink::primitives::NotifyScope;
use tilelink::tile::{read_tile, TileRect};
use tilelink::{
    BlockChannel, CacheSite, CompiledKernel, Compiler, DeviceHandle, StaticMapping, TileMapping,
};
use tilelink_compute::{FlashAccumulator, Tensor};
use tilelink_shmem::ProcessGroup;
use tilelink_sim::SharedCost;

use crate::mlp::BYTES_PER_ELEM;
use crate::AttnShape;

/// Recommended configuration: KV AllGather on the copy engine, per-rank KV
/// segments as communication tiles.
pub fn attention_config() -> OverlapConfig {
    OverlapConfig {
        comm_tile: TileShape::new(128, 128),
        compute_tile: TileShape::new(128, 128),
        comm_mapping: CommMapping::CopyEngine,
        ..OverlapConfig::default()
    }
}

/// Overlapped AllGather-KV + flash attention on real data, for one head.
///
/// * `q_shards[r]`: rank `r`'s `[S/world, D]` query shard;
/// * `k_shards[r]`, `v_shards[r]`: rank `r`'s KV shards.
///
/// Each rank returns the attention output for its own query shard against the
/// **full** gathered KV, which must equal the single-device reference.
///
/// # Panics
///
/// Panics if the shard lengths are inconsistent.
pub fn sp_attention_functional(
    world: usize,
    q_shards: &[Tensor],
    k_shards: &[Tensor],
    v_shards: &[Tensor],
    kv_tile_rows: usize,
) -> Vec<Tensor> {
    let s_per_rank = k_shards[0].shape()[0];
    let d = k_shards[0].shape()[1];
    let s = s_per_rank * world;
    assert_eq!(
        s_per_rank % kv_tile_rows,
        0,
        "KV tile must divide the shard length"
    );
    // one communication tile per kv_tile_rows rows of the gathered sequence
    let mapping = StaticMapping::new(s, kv_tile_rows, world, 1);

    ProcessGroup::launch(world, |ctx| {
        let rank = ctx.rank();
        // Symmetric buffers: local KV shards (sources) and the gathered KV.
        let k_src = ctx.alloc("attn/k_src", s_per_rank * d);
        let v_src = ctx.alloc("attn/v_src", s_per_rank * d);
        k_src.write_slice(0, k_shards[rank].data());
        v_src.write_slice(0, v_shards[rank].data());
        ctx.alloc("attn/k", s * d);
        ctx.alloc("attn/v", s * d);
        let bc = BlockChannel::derive(rank, world, &mapping, 1, 1);
        let dev = DeviceHandle::new(&ctx, "sp_attention", bc, 0);
        dev.barrier_all();

        let q = q_shards[rank].clone();
        let (_, mut outputs) = run_comm_compute(
            1,
            1,
            // host-style communication block: copy every rank's KV shard into the
            // local gathered buffers with the copy engine, own shard first.
            |_| {
                for step in 0..world {
                    let src_rank = (rank + step) % world;
                    let dst_off = src_rank * s_per_rank * d;
                    dev.rank_copy_data(
                        src_rank,
                        "attn/k_src",
                        0,
                        rank,
                        "attn/k",
                        dst_off,
                        s_per_rank * d,
                    );
                    dev.rank_copy_data(
                        src_rank,
                        "attn/v_src",
                        0,
                        rank,
                        "attn/v",
                        dst_off,
                        s_per_rank * d,
                    );
                    // host notify: every KV tile of this segment is now ready
                    dev.rank_segment_ready(&mapping, src_rank);
                }
            },
            // flash-attention block: consume KV tiles as they become ready
            |_| {
                let mut acc = FlashAccumulator::new(&q);
                let k_buf = dev.buffer_on(rank, "attn/k");
                let v_buf = dev.buffer_on(rank, "attn/v");
                // iterate tiles in arrival order (own segment first, then ring order)
                for step in 0..world {
                    let src_rank = (rank + step) % world;
                    for tile in mapping.tiles_of_rank(src_rank) {
                        dev.consumer_tile_wait(&mapping, tile);
                        let rows = mapping.rows_of(tile).expect("tile in range");
                        let k_tile = Tensor::from_vec(
                            read_tile(&k_buf, d, &TileRect::full_rows(rows.clone(), d)),
                            &[rows.len(), d],
                        );
                        let v_tile = Tensor::from_vec(
                            read_tile(&v_buf, d, &TileRect::full_rows(rows.clone(), d)),
                            &[rows.len(), d],
                        );
                        acc.update(&k_tile, &v_tile);
                    }
                }
                acc.finalize()
            },
        );
        outputs.remove(0)
    })
}

// ---------------------------------------------------------------------------
// Timed kernel
// ---------------------------------------------------------------------------

/// Builds the AG-KV + flash attention tile program for one head-count /
/// sequence-length point.
pub fn sp_attention_program(
    heads: usize,
    head_dim: usize,
    seq_len: usize,
    world: usize,
    _cfg: &OverlapConfig,
) -> (TileProgram, StaticMapping) {
    let _span = tilelink_probe::span("compile.build");
    let s_per_rank = seq_len / world;
    // Communication tiles cover one rank's KV shard per host copy.
    let mapping = StaticMapping::new(seq_len, s_per_rank, world, 1);
    // 2 (K and V) tensors per head
    let shard_bytes = 2.0 * heads as f64 * s_per_rank as f64 * head_dim as f64 * BYTES_PER_ELEM;
    // Buffer names and block name patterns are interned once per build, not
    // once per op or block.
    let kv = Symbol::intern("kv");
    let out = Symbol::intern("out");
    let agkv = NamePattern::new("agkv/r{}");
    let fa = NamePattern::new("fa/r{}/b{}");
    let mut program = TileProgram::new("sp_attention", world);
    for rank in 0..world {
        // Host communication block: one copy per remote rank.
        let mut comm = BlockDesc::new(agkv.name([rank]), rank, BlockRole::Producer);
        for step in 0..world {
            let src_rank = (rank + step) % world;
            let tile = mapping.tiles_of_rank(src_rank)[0];
            if src_rank != rank {
                comm = comm.op(TileOp::HostCopy {
                    bytes: shard_bytes,
                    src_rank,
                });
            } else {
                comm = comm.op(TileOp::StoreTile {
                    buffer: kv,
                    bytes: shard_bytes,
                    tile: Some(tile),
                });
            }
            comm = comm.op(TileOp::ProducerNotify {
                tile,
                scope: NotifyScope::Local,
            });
        }
        program.add_block(comm);
        // Flash attention consumer blocks: split query rows across blocks.
        let q_blocks = 16usize;
        let q_rows = (s_per_rank / q_blocks).max(1);
        for b in 0..q_blocks {
            let mut block = BlockDesc::new(fa.name([rank, b]), rank, BlockRole::Consumer);
            for step in 0..world {
                let src_rank = (rank + step) % world;
                let tile = mapping.tiles_of_rank(src_rank)[0];
                block = block
                    .op(TileOp::ConsumerWait { tile })
                    .op(TileOp::LoadTile {
                        buffer: kv,
                        bytes: shard_bytes / q_blocks as f64,
                        tile: Some(tile),
                    })
                    .op(TileOp::Compute(ComputeKind::FlashAttnTile {
                        q_rows: q_rows * heads,
                        kv_rows: s_per_rank,
                        head_dim,
                    }));
            }
            block = block.op(TileOp::StoreTile {
                buffer: out,
                bytes: q_rows as f64 * heads as f64 * head_dim as f64 * BYTES_PER_ELEM,
                tile: None,
            });
            program.add_block(block);
        }
    }
    (program, mapping)
}

/// The TileLink sequence-parallel attention kernel at one sequence length,
/// compiled for `cfg` on the cluster `cost` prices. Price it exactly with
/// [`tilelink::exec::simulate_report`], or its makespan under a cutoff with
/// [`tilelink::exec::simulate_makespan`].
///
/// # Errors
///
/// Returns an error if compilation fails.
pub fn sp_attention_kernel(
    shape: &AttnShape,
    seq_len: usize,
    cfg: &OverlapConfig,
    cost: &SharedCost,
) -> tilelink::Result<CompiledKernel> {
    let world = cost.cluster().world_size();
    // The builder reads no config value.
    let site = CacheSite::new(
        "attn.sp_attention",
        [shape.heads, shape.head_dim, seq_len, world],
    );
    Compiler::new(*cfg, cost).compile_cached(site, || {
        Ok(sp_attention_program(
            shape.heads,
            shape.head_dim,
            seq_len,
            world,
            cfg,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilelink_compute::attention::attention_reference;
    use tilelink_sim::{analytic_cost, ClusterSpec};

    #[test]
    fn functional_sp_attention_matches_reference() {
        let world = 4;
        let (s_per_rank, d) = (8, 4);
        let s = s_per_rank * world;
        let q_shards: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[s_per_rank, d], r as u64))
            .collect();
        let k_shards: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[s_per_rank, d], 10 + r as u64))
            .collect();
        let v_shards: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[s_per_rank, d], 20 + r as u64))
            .collect();
        let k_full = Tensor::concat_rows(&k_shards);
        let v_full = Tensor::concat_rows(&v_shards);
        assert_eq!(k_full.shape(), &[s, d]);

        let outputs = sp_attention_functional(world, &q_shards, &k_shards, &v_shards, 4);
        for (rank, out) in outputs.iter().enumerate() {
            let expected = attention_reference(&q_shards[rank], &k_full, &v_full);
            assert!(
                out.allclose(&expected, 1e-3),
                "rank {rank} diff {}",
                out.max_abs_diff(&expected)
            );
        }
    }

    #[test]
    fn functional_sp_attention_with_coarse_tiles() {
        // KV tile equal to a full shard (one tile per rank).
        let world = 2;
        let (s_per_rank, d) = (6, 3);
        let q: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[s_per_rank, d], 30 + r as u64))
            .collect();
        let k: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[s_per_rank, d], 40 + r as u64))
            .collect();
        let v: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[s_per_rank, d], 50 + r as u64))
            .collect();
        let outputs = sp_attention_functional(world, &q, &k, &v, 6);
        let expected =
            attention_reference(&q[1], &Tensor::concat_rows(&k), &Tensor::concat_rows(&v));
        assert!(outputs[1].allclose(&expected, 1e-3));
    }

    #[test]
    fn timed_attention_overlaps_and_scales_with_sequence() {
        let shape = crate::shapes::attn_shapes()[0].clone();
        let cost = analytic_cost(&ClusterSpec::h800_node(8));
        let price = |seq_len| {
            let kernel = sp_attention_kernel(&shape, seq_len, &attention_config(), &cost).unwrap();
            tilelink::exec::simulate_report(&kernel, &cost).unwrap()
        };
        let (short, long) = (price(16_384), price(65_536));
        assert!(short.total_s < long.total_s);
        assert!(short.total_s < short.comm_only_s + short.comp_only_s);
        assert!(long.overlap_ratio() > 0.2, "{long}");
    }
}

//! The communication halves of the MLP, MoE and routed MoE kernels, each
//! emitted once.
//!
//! TileLink links a fused kernel's communication to its computation only
//! through tile-centric signals (Section 3), so the three layers' program
//! builders emit their compute halves and call [`allgather_blocks`] and
//! [`ring_reduce_scatter_blocks`] for the rest. The rules that follow from
//! these two formats live here too: the egress each half pushes (which the
//! lower bounds drain), the ring's divisibility rule (which the oracles
//! prune by), and the config values each kind of kernel's builder reads
//! (which key its compiled program).

use tilelink::ir::{BlockDesc, BlockRole, ComputeKind, NamePattern, Symbol, TileOp, TileProgram};
use tilelink::primitives::{NotifyScope, PushTarget};
use tilelink::{OverlapConfig, StaticMapping};

use crate::mlp::BYTES_PER_ELEM;

/// Bytes of one `tile_m`-row tile of a `hidden`-wide activation.
fn tile_bytes(tile_m: usize, hidden: usize) -> f64 {
    tile_m as f64 * hidden as f64 * BYTES_PER_ELEM
}

/// Tiles in each of the ring's `world` segments: the ring indexes its tiles
/// as `segment * tiles_per_segment + tid`.
fn tiles_per_segment(world: usize, tokens: usize, tile_m: usize) -> usize {
    ((tokens / world) / tile_m).max(1)
}

/// Whether the ring ReduceScatter indexes every tile: the token count must
/// split evenly into `world` segments of whole `tile_m`-row tiles. A
/// `world × tile_m` past `usize` exceeds any token count, so it splits
/// nothing.
pub(crate) fn ring_supported(tokens: usize, world: usize, tile_m: usize) -> bool {
    world
        .checked_mul(tile_m)
        .is_some_and(|rows| tokens.is_multiple_of(rows))
}

/// The config values the builder of an AllGather kernel (MLP, MoE or routed
/// MoE) reads, which its compile-cache site must name: the AllGather
/// mapping's tile rows and channel count, and the compute half's tile rows.
pub(crate) fn allgather_config_inputs(cfg: &OverlapConfig) -> [usize; 3] {
    [cfg.comm_tile.m, cfg.compute_tile.m, cfg.channels_per_rank]
}

/// The config values the builder of a GEMM + ReduceScatter kernel reads:
/// the compute tile rows, which also tile the ring, and the channel count of
/// its mapping. No such builder reads `comm_tile`.
pub(crate) fn reduce_scatter_config_inputs(cfg: &OverlapConfig) -> [usize; 2] {
    [cfg.compute_tile.m, cfg.channels_per_rank]
}

/// Emits rank `rank`'s AllGather producer blocks `ag/r{rank}/b{i}`, one per
/// token tile of `mapping` the rank owns: a broadcast `PushTile` of the
/// tile's `hidden`-wide rows into `gathered`, then a broadcast
/// `ProducerNotify`.
pub(crate) fn allgather_blocks(
    program: &mut TileProgram,
    rank: usize,
    mapping: &StaticMapping,
    hidden: usize,
) {
    let gathered = Symbol::intern("gathered");
    let ag = NamePattern::new("ag/r{}/b{}");
    let bytes = tile_bytes(mapping.tile_rows(), hidden);
    for (i, tile) in mapping.tiles_of_rank(rank).into_iter().enumerate() {
        program.add_block(
            BlockDesc::new(ag.name([rank, i]), rank, BlockRole::Producer)
                .op(TileOp::PushTile {
                    buffer: gathered,
                    bytes,
                    tile,
                    target: PushTarget::Broadcast,
                })
                .op(TileOp::ProducerNotify {
                    tile,
                    scope: NotifyScope::Broadcast,
                }),
        );
    }
}

/// Emits rank `rank`'s ring ReduceScatter blocks `rs/r{rank}/t{tid}`, one
/// per tile of its segment of the `[tokens, hidden]` output tiled by
/// `tile_m` rows.
///
/// Stage `s` of block `tid` handles segment `(rank + s + 1) % world`: it
/// waits for the compute half's `Local` notify of that tile, loads it from
/// `gemm_out`, and (after the first stage) waits for the partial sum the
/// next rank pushed and reduces it in. The last stage stores the rank's
/// reduced tile to `out`; every earlier one pushes the running sum to the
/// previous rank and notifies it on the tile's peer slot.
pub(crate) fn ring_reduce_scatter_blocks(
    program: &mut TileProgram,
    rank: usize,
    world: usize,
    tokens: usize,
    tile_m: usize,
    hidden: usize,
) {
    let gemm_out = Symbol::intern("gemm_out");
    let out = Symbol::intern("out");
    let partial = Symbol::intern("partial");
    let rs = NamePattern::new("rs/r{}/t{}");
    let tiles_per_segment = tiles_per_segment(world, tokens, tile_m);
    let bytes = tile_bytes(tile_m, hidden);
    let to_rank = (rank + world - 1) % world;
    for tid_m in 0..tiles_per_segment {
        let mut block = BlockDesc::new(rs.name([rank, tid_m]), rank, BlockRole::Producer);
        for stage in 0..world {
            let seg = (rank + stage + 1) % world;
            let tile_global = seg * tiles_per_segment + tid_m;
            block = block
                .op(TileOp::ConsumerWait { tile: tile_global })
                .op(TileOp::LoadTile {
                    buffer: gemm_out,
                    bytes,
                    tile: Some(tile_global),
                });
            if stage != 0 {
                block = block
                    .op(TileOp::PeerWait {
                        slot: tile_global,
                        expected: 1,
                    })
                    .op(TileOp::Compute(ComputeKind::Reduction {
                        elems: tile_m * hidden,
                    }));
            }
            if stage == world - 1 {
                block = block.op(TileOp::StoreTile {
                    buffer: out,
                    bytes,
                    tile: None,
                });
            } else {
                block = block
                    .op(TileOp::PushTile {
                        buffer: partial,
                        bytes,
                        tile: tile_global,
                        target: PushTarget::Rank(to_rank),
                    })
                    .op(TileOp::PeerNotify {
                        slot: tile_global,
                        dst_rank: to_rank,
                    });
            }
        }
        program.add_block(block);
    }
}

/// Per-rank AllGather egress: every rank broadcasts its token tiles to the
/// other `world - 1` ranks. Uses the per-rank *average* tile count (the
/// busiest rank owns at least that many tiles).
pub(crate) fn allgather_egress(
    world: usize,
    tokens: usize,
    comm_tile_m: usize,
    hidden: usize,
) -> f64 {
    if world < 2 {
        return 0.0;
    }
    let num_tiles = tokens.div_ceil(comm_tile_m) as f64;
    num_tiles * tile_bytes(comm_tile_m, hidden) * (world as f64 - 1.0) / world as f64
}

/// Per-rank ring ReduceScatter egress: each of the rank's segment blocks
/// pushes `world - 1` partial tiles to its ring neighbour (exactly what
/// [`ring_reduce_scatter_blocks`] emits).
pub(crate) fn ring_rs_egress(world: usize, tokens: usize, tile_m: usize, hidden: usize) -> f64 {
    if world < 2 {
        return 0.0;
    }
    tiles_per_segment(world, tokens, tile_m) as f64
        * (world as f64 - 1.0)
        * tile_bytes(tile_m, hidden)
}

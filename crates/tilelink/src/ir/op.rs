//! Tile-granular operations.

use super::Symbol;
use crate::primitives::{NotifyScope, PushTarget};

/// A tile-granular compute step with enough shape information to cost it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComputeKind {
    /// One output tile of a GEMM: `m × n` accumulated over `k`.
    MatmulTile {
        /// Output tile rows.
        m: usize,
        /// Output tile columns.
        n: usize,
        /// Reduction depth.
        k: usize,
    },
    /// One flash-attention update: `q_rows` queries against `kv_rows` keys/values.
    FlashAttnTile {
        /// Number of query rows.
        q_rows: usize,
        /// Number of key/value rows folded in.
        kv_rows: usize,
        /// Head dimension.
        head_dim: usize,
    },
    /// A memory-bound elementwise step over `elems` values (activations,
    /// scatter, top-k combine...).
    Elementwise {
        /// Number of elements read, combined and written.
        elems: usize,
    },
    /// A memory-bound reduction over `elems` values (partial-sum adds).
    Reduction {
        /// Number of elements reduced.
        elems: usize,
    },
}

impl ComputeKind {
    /// Floating-point operations performed by this step.
    pub fn flops(&self) -> f64 {
        match *self {
            ComputeKind::MatmulTile { m, n, k } => 2.0 * m as f64 * n as f64 * k as f64,
            ComputeKind::FlashAttnTile {
                q_rows,
                kv_rows,
                head_dim,
            } => 4.0 * q_rows as f64 * kv_rows as f64 * head_dim as f64,
            ComputeKind::Elementwise { elems } => elems as f64,
            ComputeKind::Reduction { elems } => elems as f64,
        }
    }

    /// Bytes moved through HBM by this step (f32 elements were f16/bf16 on the
    /// paper's hardware; 2 bytes per element keeps the ratio to flops honest).
    pub fn hbm_bytes(&self) -> f64 {
        match *self {
            ComputeKind::MatmulTile { m, n, k } => 2.0 * (m * k + k * n + m * n) as f64,
            ComputeKind::FlashAttnTile {
                q_rows,
                kv_rows,
                head_dim,
            } => 2.0 * ((q_rows + 2 * kv_rows) * head_dim) as f64,
            ComputeKind::Elementwise { elems } => 2.0 * 3.0 * elems as f64,
            ComputeKind::Reduction { elems } => 2.0 * 3.0 * elems as f64,
        }
    }

    /// Returns `true` if the step is tensor-core bound rather than
    /// bandwidth-bound.
    pub fn is_matmul_like(&self) -> bool {
        matches!(
            self,
            ComputeKind::MatmulTile { .. } | ComputeKind::FlashAttnTile { .. }
        )
    }
}

/// One tile-granular operation inside a block.
///
/// Ops are plain `Copy` data: buffer names are interned [`Symbol`]s, so moving
/// an op through the lowering and pipelining passes never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TileOp {
    /// `consumer_tile_wait(tile_id)` — block until the tile's channel is complete.
    ConsumerWait {
        /// Producer tile id being waited for.
        tile: usize,
    },
    /// `producer_tile_notify(tile_id, mode)` — mark a producer tile done.
    ProducerNotify {
        /// Producer tile id.
        tile: usize,
        /// Which rank(s) get notified.
        scope: NotifyScope,
    },
    /// `peer_tile_wait(tile_id, rank)` — wait for a peer tile on this rank.
    PeerWait {
        /// Peer barrier slot.
        slot: usize,
        /// Number of notifications to wait for.
        expected: u64,
    },
    /// `peer_tile_notify(tile_id, rank)` — notify a peer tile on another rank.
    PeerNotify {
        /// Peer barrier slot.
        slot: usize,
        /// Destination rank.
        dst_rank: usize,
    },
    /// A local load of tile data from a named buffer.
    LoadTile {
        /// Buffer name (for diagnostics and consistency checking).
        buffer: Symbol,
        /// Bytes read.
        bytes: f64,
        /// Producer tile this load consumes, if it consumes remote-produced data.
        tile: Option<usize>,
    },
    /// A local store of tile data to a named buffer.
    StoreTile {
        /// Buffer name.
        buffer: Symbol,
        /// Bytes written.
        bytes: f64,
        /// Producer tile this store completes, if it feeds a notify.
        tile: Option<usize>,
    },
    /// `tile_push_data` — write a tile into one or more remote ranks.
    PushTile {
        /// Destination buffer name.
        buffer: Symbol,
        /// Bytes transferred per destination.
        bytes: f64,
        /// Producer tile id being pushed.
        tile: usize,
        /// Destination selection.
        target: PushTarget,
    },
    /// `tile_pull_data` — read a tile from the owning remote rank.
    PullTile {
        /// Source buffer name.
        buffer: Symbol,
        /// Bytes transferred.
        bytes: f64,
        /// Producer tile id being pulled.
        tile: usize,
    },
    /// A tile-granular compute step.
    Compute(ComputeKind),
    /// `rank_copy_data` issued from the host onto the copy engine.
    HostCopy {
        /// Bytes copied.
        bytes: f64,
        /// Rank the data is read from.
        src_rank: usize,
    },
    /// Host-side `rank_notify` marking a whole segment (one rank's shard) ready.
    RankNotifySegment {
        /// Rank whose shard became ready locally.
        segment: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_and_bytes() {
        let k = ComputeKind::MatmulTile {
            m: 128,
            n: 256,
            k: 64,
        };
        assert_eq!(k.flops(), 2.0 * 128.0 * 256.0 * 64.0);
        assert!(k.hbm_bytes() > 0.0);
        assert!(k.is_matmul_like());
    }

    #[test]
    fn flash_attention_flops_scale_with_kv() {
        let small = ComputeKind::FlashAttnTile {
            q_rows: 64,
            kv_rows: 64,
            head_dim: 128,
        };
        let large = ComputeKind::FlashAttnTile {
            q_rows: 64,
            kv_rows: 128,
            head_dim: 128,
        };
        assert!(large.flops() > small.flops());
    }

    #[test]
    fn elementwise_is_not_matmul_like() {
        assert!(!ComputeKind::Elementwise { elems: 10 }.is_matmul_like());
        assert!(!ComputeKind::Reduction { elems: 10 }.is_matmul_like());
    }
}

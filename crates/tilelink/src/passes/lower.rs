//! Lowering: resolve tile ids through the tile-centric mapping.

use crate::ir::{BlockRole, Symbol, TileOp, TileProgram};
use crate::mapping::TileMapping;
use crate::primitives::PushTarget;
use crate::Result;

/// Destination rank(s) of a lowered op, resolved through `f_R`.
///
/// Every pattern the lowering pass emits is either no target, a single rank,
/// or a broadcast to the whole world, so this stays `Copy` instead of carrying
/// a per-op `Vec<usize>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Targets {
    /// No destination ranks.
    None,
    /// A single destination rank.
    One(usize),
    /// Every rank in the world (`0..world_size`).
    All,
}

impl Targets {
    /// Iterates the destination ranks, given the program's world size.
    pub fn iter(self, world_size: usize) -> impl Iterator<Item = usize> {
        match self {
            Targets::None => 0..0,
            Targets::One(r) => r..r + 1,
            Targets::All => 0..world_size,
        }
    }

    /// The first destination rank, if any (`All` starts at rank 0).
    pub fn first(self) -> Option<usize> {
        match self {
            Targets::None => None,
            Targets::One(r) => Some(r),
            Targets::All => Some(0),
        }
    }

    /// Number of destination ranks, given the program's world size.
    pub fn len(self, world_size: usize) -> usize {
        match self {
            Targets::None => 0,
            Targets::One(_) => 1,
            Targets::All => world_size,
        }
    }

    /// Returns `true` if there are no destination ranks.
    pub fn is_empty(self) -> bool {
        matches!(self, Targets::None)
    }
}

/// A [`TileOp`] annotated with the mapping results it needs at runtime.
///
/// `Copy`, so pipelining reorders ops by swapping plain values and cloning a
/// lowered program is a flat memcpy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoweredOp {
    /// The original operation.
    pub op: TileOp,
    /// Barrier channel resolved through `f_C` (for waits and notifies).
    pub channel: Option<usize>,
    /// Producer threshold of that channel (for waits).
    pub threshold: Option<u64>,
    /// Destination rank(s) resolved through `f_R` (for notifies and pushes).
    pub targets: Targets,
}

/// Block metadata inside a [`LoweredProgram`]: a name/rank/role plus the index
/// range of the block's ops in the program's flat op table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockInfo {
    /// Block name.
    pub name: Symbol,
    /// Rank the block runs on.
    pub rank: usize,
    /// Producer / consumer / host role.
    pub role: BlockRole,
    /// First op of the block in the flat op table.
    pub start: u32,
    /// One past the last op of the block.
    pub end: u32,
}

/// A whole lowered program as two flat tables: one of ops, one of block
/// ranges. Lowering performs exactly two heap allocations (one per table)
/// instead of one per block plus one per op-with-destinations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoweredProgram {
    /// All lowered ops, in block order.
    pub ops: Vec<LoweredOp>,
    /// Per-block metadata and op ranges.
    pub blocks: Vec<BlockInfo>,
}

/// A view of one block of a [`LoweredProgram`].
#[derive(Debug, Clone, Copy)]
pub struct LoweredBlockRef<'a> {
    /// Block name.
    pub name: Symbol,
    /// Rank the block runs on.
    pub rank: usize,
    /// Producer / consumer / host role.
    pub role: BlockRole,
    /// The block's lowered ops, in program order.
    pub ops: &'a [LoweredOp],
}

impl LoweredBlockRef<'_> {
    /// Total flops of the block's compute steps.
    pub fn total_flops(&self) -> f64 {
        self.ops
            .iter()
            .filter_map(|o| match &o.op {
                TileOp::Compute(kind) => Some(kind.flops()),
                _ => None,
            })
            .sum()
    }
}

impl LoweredProgram {
    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The `idx`-th block as a view over the flat op table.
    pub fn block(&self, idx: usize) -> LoweredBlockRef<'_> {
        let info = &self.blocks[idx];
        LoweredBlockRef {
            name: info.name,
            rank: info.rank,
            role: info.role,
            ops: &self.ops[info.start as usize..info.end as usize],
        }
    }

    /// Iterates all blocks as views.
    pub fn iter_blocks(&self) -> impl Iterator<Item = LoweredBlockRef<'_>> {
        (0..self.blocks.len()).map(|i| self.block(i))
    }

    /// The mutable op slice of the `idx`-th block.
    pub fn block_ops_mut(&mut self, idx: usize) -> &mut [LoweredOp] {
        let info = &self.blocks[idx];
        &mut self.ops[info.start as usize..info.end as usize]
    }
}

fn lower_op(op: &TileOp, block_rank: usize, mapping: &dyn TileMapping) -> Result<LoweredOp> {
    let lowered = match op {
        TileOp::ConsumerWait { tile } => {
            let channel = mapping.channel_of(*tile)?;
            LoweredOp {
                op: *op,
                channel: Some(channel),
                threshold: Some(mapping.channel_threshold(channel)),
                targets: Targets::None,
            }
        }
        TileOp::ProducerNotify { tile, scope } => {
            let channel = mapping.channel_of(*tile)?;
            let targets = match scope {
                crate::primitives::NotifyScope::Local => Targets::One(block_rank),
                crate::primitives::NotifyScope::Owner => Targets::One(mapping.rank_of(*tile)?),
                crate::primitives::NotifyScope::Broadcast => Targets::All,
            };
            LoweredOp {
                op: *op,
                channel: Some(channel),
                threshold: None,
                targets,
            }
        }
        TileOp::PushTile { tile, target, .. } => {
            let targets = match target {
                PushTarget::Owner => Targets::One(mapping.rank_of(*tile)?),
                PushTarget::Rank(r) => Targets::One(*r),
                PushTarget::Broadcast => Targets::All,
            };
            LoweredOp {
                op: *op,
                channel: None,
                threshold: None,
                targets,
            }
        }
        TileOp::PullTile { tile, .. } => LoweredOp {
            op: *op,
            channel: None,
            threshold: None,
            targets: Targets::One(mapping.rank_of(*tile)?),
        },
        TileOp::LoadTile { tile, .. } | TileOp::StoreTile { tile, .. } => {
            let channel = match tile {
                Some(t) => Some(mapping.channel_of(*t)?),
                None => None,
            };
            LoweredOp {
                op: *op,
                channel,
                threshold: None,
                targets: Targets::None,
            }
        }
        TileOp::RankNotifySegment { segment } => LoweredOp {
            op: *op,
            channel: None,
            threshold: None,
            targets: Targets::One(*segment),
        },
        TileOp::PeerWait { .. }
        | TileOp::PeerNotify { .. }
        | TileOp::Compute(_)
        | TileOp::HostCopy { .. } => LoweredOp {
            op: *op,
            channel: None,
            threshold: None,
            targets: Targets::None,
        },
    };
    Ok(lowered)
}

/// Lowers every block of `program` through `mapping`.
///
/// # Errors
///
/// Returns an error if any tile id is outside the mapping or a dynamic mapping
/// has not been filled for a referenced tile.
pub fn lower(program: &TileProgram, mapping: &dyn TileMapping) -> Result<LoweredProgram> {
    let mut out = LoweredProgram {
        ops: Vec::with_capacity(program.blocks.iter().map(|b| b.ops.len()).sum()),
        blocks: Vec::with_capacity(program.blocks.len()),
    };
    for block in &program.blocks {
        let start = u32::try_from(out.ops.len()).expect("op table overflow");
        for op in &block.ops {
            out.ops.push(lower_op(op, block.rank, mapping)?);
        }
        let end = u32::try_from(out.ops.len()).expect("op table overflow");
        out.blocks.push(BlockInfo {
            name: block.name,
            rank: block.rank,
            role: block.role,
            start,
            end,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockDesc, ComputeKind};
    use crate::mapping::{DynamicMapping, StaticMapping};
    use crate::primitives::NotifyScope;
    use crate::TileLinkError;

    fn program() -> TileProgram {
        let mut p = TileProgram::new("p", 2);
        p.add_block(
            BlockDesc::new("comm", 0, BlockRole::Producer)
                .op(TileOp::PushTile {
                    buffer: "t".into(),
                    bytes: 64.0,
                    tile: 1,
                    target: PushTarget::Owner,
                })
                .op(TileOp::ProducerNotify {
                    tile: 1,
                    scope: NotifyScope::Owner,
                }),
        );
        p.add_block(
            BlockDesc::new("gemm", 1, BlockRole::Consumer)
                .op(TileOp::ConsumerWait { tile: 1 })
                .op(TileOp::LoadTile {
                    buffer: "t".into(),
                    bytes: 64.0,
                    tile: Some(1),
                })
                .op(TileOp::Compute(ComputeKind::MatmulTile {
                    m: 8,
                    n: 8,
                    k: 8,
                })),
        );
        p
    }

    #[test]
    fn lowering_resolves_channels_and_ranks() {
        let mapping = StaticMapping::new(4, 2, 2, 1);
        let lowered = lower(&program(), &mapping).unwrap();
        assert_eq!(lowered.block_count(), 2);
        // tile 1 → rows 2..4 → rank 1, channel 1
        let comm = lowered.block(0);
        let notify = &comm.ops[1];
        assert_eq!(notify.channel, Some(1));
        assert_eq!(notify.targets, Targets::One(1));
        let gemm = lowered.block(1);
        let wait = &gemm.ops[0];
        assert_eq!(wait.channel, Some(1));
        assert_eq!(wait.threshold, Some(1));
        assert!(gemm.total_flops() > 0.0);
    }

    #[test]
    fn broadcast_notify_targets_every_rank() {
        let mapping = StaticMapping::new(4, 2, 2, 1);
        let mut p = TileProgram::new("p", 4);
        p.add_block(
            BlockDesc::new("c", 0, BlockRole::Producer).op(TileOp::ProducerNotify {
                tile: 0,
                scope: NotifyScope::Broadcast,
            }),
        );
        let lowered = lower(&p, &mapping).unwrap();
        let notify = lowered.block(0).ops[0];
        assert_eq!(notify.targets, Targets::All);
        assert_eq!(notify.targets.iter(4).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(notify.targets.len(4), 4);
        assert_eq!(notify.targets.first(), Some(0));
    }

    #[test]
    fn lowering_is_two_flat_tables() {
        let mapping = StaticMapping::new(4, 2, 2, 1);
        let lowered = lower(&program(), &mapping).unwrap();
        assert_eq!(lowered.ops.len(), 5);
        assert_eq!(lowered.blocks[0].start, 0);
        assert_eq!(lowered.blocks[0].end, 2);
        assert_eq!(lowered.blocks[1].start, 2);
        assert_eq!(lowered.blocks[1].end, 5);
    }

    #[test]
    fn out_of_range_tile_fails_lowering() {
        let mapping = StaticMapping::new(4, 2, 2, 1);
        let mut p = TileProgram::new("p", 2);
        p.add_block(
            BlockDesc::new("c", 0, BlockRole::Consumer).op(TileOp::ConsumerWait { tile: 99 }),
        );
        assert!(matches!(
            lower(&p, &mapping),
            Err(TileLinkError::TileOutOfRange { .. })
        ));
    }

    #[test]
    fn unfilled_dynamic_mapping_fails_lowering() {
        let mapping = DynamicMapping::new(4, 4);
        assert!(matches!(
            lower(&program(), &mapping),
            Err(TileLinkError::MappingNotFilled { .. })
        ));
        // after filling, lowering succeeds
        for t in 0..4 {
            mapping.fill(t, t * 2..(t + 1) * 2, t % 2, t).unwrap();
        }
        assert!(lower(&program(), &mapping).is_ok());
    }
}

//! Tile programs: per-rank blocks of tile operations.

use super::{BlockName, BlockTemplate, Symbol, TileOp};

/// Whether a block belongs to the communication (producer) or computation
/// (consumer) side of the fused kernel.
///
/// The distinction drives resource mapping: the paper dedicates a fixed number
/// of SMs (20 in Figures 4 and 5) to the communication blocks, or maps them to
/// the DMA copy engine entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockRole {
    /// Communication / producer block.
    Producer,
    /// Computation / consumer block.
    Consumer,
    /// Host-driven block (copy-engine transfers triggered from the CPU).
    Host,
}

/// One block of a fused kernel on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDesc {
    /// Human-readable name used in traces and diagnostics.
    pub name: BlockName,
    /// Rank the block runs on.
    pub rank: usize,
    /// Producer / consumer / host role.
    pub role: BlockRole,
    /// Straight-line operation sequence.
    pub ops: Vec<TileOp>,
}

impl BlockDesc {
    /// Creates a block.
    pub fn new(name: impl Into<BlockName>, rank: usize, role: BlockRole) -> Self {
        Self {
            name: name.into(),
            rank,
            role,
            ops: Vec::new(),
        }
    }

    /// Appends an operation and returns `self` for chaining.
    pub fn op(mut self, op: TileOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Appends several operations.
    pub fn ops(mut self, ops: impl IntoIterator<Item = TileOp>) -> Self {
        self.ops.extend(ops);
        self
    }

    /// Total floating-point work of the block's compute steps.
    pub fn total_flops(&self) -> f64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                TileOp::Compute(kind) => Some(kind.flops()),
                _ => None,
            })
            .sum()
    }

    /// Total bytes the block moves across ranks.
    pub fn total_transfer_bytes(&self) -> f64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                TileOp::PushTile { bytes, .. }
                | TileOp::PullTile { bytes, .. }
                | TileOp::HostCopy { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }
}

/// A fused kernel: blocks for every rank.
#[derive(Debug, Clone, PartialEq)]
pub struct TileProgram {
    /// Kernel name (interned).
    pub name: Symbol,
    /// Number of ranks the kernel runs on.
    pub world_size: usize,
    /// All blocks, across all ranks.
    pub blocks: Vec<BlockDesc>,
    /// Template blocks, each with the number of blocks added before it: in
    /// block order a template's instances come right after those blocks.
    /// The counters and totals below cover `blocks` only.
    pub templates: Vec<(usize, BlockTemplate)>,
}

impl TileProgram {
    /// Creates an empty program.
    pub fn new(name: impl Into<Symbol>, world_size: usize) -> Self {
        Self {
            name: name.into(),
            world_size,
            blocks: Vec::new(),
            templates: Vec::new(),
        }
    }

    /// Adds a block.
    pub fn add_block(&mut self, block: BlockDesc) {
        self.blocks.push(block);
    }

    /// Adds a template block after the blocks added so far.
    pub fn add_template(&mut self, template: BlockTemplate) {
        self.templates.push((self.blocks.len(), template));
    }

    /// Blocks that run on `rank`.
    pub fn blocks_of_rank(&self, rank: usize) -> impl Iterator<Item = &BlockDesc> {
        self.blocks.iter().filter(move |b| b.rank == rank)
    }

    /// Number of blocks with a given role on a given rank.
    pub fn block_count(&self, rank: usize, role: BlockRole) -> usize {
        self.blocks_of_rank(rank).filter(|b| b.role == role).count()
    }

    /// Total floating-point work across all blocks.
    pub fn total_flops(&self) -> f64 {
        self.blocks.iter().map(BlockDesc::total_flops).sum()
    }

    /// Total bytes moved across ranks by all blocks.
    pub fn total_transfer_bytes(&self) -> f64 {
        self.blocks
            .iter()
            .map(BlockDesc::total_transfer_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ComputeKind;
    use crate::primitives::{NotifyScope, PushTarget};

    fn sample_program() -> TileProgram {
        let mut p = TileProgram::new("sample", 2);
        for rank in 0..2 {
            p.add_block(
                BlockDesc::new(format!("comm/r{rank}"), rank, BlockRole::Producer)
                    .op(TileOp::PushTile {
                        buffer: "tokens".into(),
                        bytes: 1024.0,
                        tile: rank,
                        target: PushTarget::Broadcast,
                    })
                    .op(TileOp::ProducerNotify {
                        tile: rank,
                        scope: NotifyScope::Broadcast,
                    }),
            );
            p.add_block(
                BlockDesc::new(format!("gemm/r{rank}"), rank, BlockRole::Consumer)
                    .op(TileOp::ConsumerWait { tile: rank })
                    .op(TileOp::Compute(ComputeKind::MatmulTile {
                        m: 64,
                        n: 64,
                        k: 64,
                    })),
            );
        }
        p
    }

    #[test]
    fn block_builders_and_counters() {
        let p = sample_program();
        assert_eq!(p.blocks.len(), 4);
        assert_eq!(p.block_count(0, BlockRole::Producer), 1);
        assert_eq!(p.block_count(1, BlockRole::Consumer), 1);
        assert_eq!(p.blocks_of_rank(0).count(), 2);
        assert_eq!(p.total_flops(), 2.0 * 2.0 * 64.0 * 64.0 * 64.0);
        assert_eq!(p.total_transfer_bytes(), 2048.0);
    }

    #[test]
    fn block_totals() {
        let b = BlockDesc::new("b", 0, BlockRole::Consumer)
            .op(TileOp::Compute(ComputeKind::Elementwise { elems: 100 }))
            .op(TileOp::Compute(ComputeKind::Reduction { elems: 50 }));
        assert_eq!(b.total_flops(), 150.0);
        assert_eq!(b.total_transfer_bytes(), 0.0);
    }
}

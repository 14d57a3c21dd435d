//! Lowering: resolve tile ids through the tile-centric mapping.
//!
//! A template block ([`crate::ir::BlockTemplate`]) is lowered once: its
//! fixed ops are resolved here, and so is each per-tile run, at every tile
//! of its share, through the program's mapping. The tiles an instance takes
//! from its table entry pick the run's tiles, and an entry's own tile is
//! resolved when a [`BlockWalk`] lays out the instance.

use std::ops::Range;

use crate::ir::{
    BlockName, BlockRole, BlockTable, BlockTemplate, NamePattern, ShareRanges, TemplateOp,
    TemplateStep, TileOp, TileProgram, TileShare,
};
use crate::mapping::TileMapping;
use crate::primitives::{NotifyScope, PushTarget};
use crate::{Result, TileLinkError};

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
    One(u32),
    /// Every rank in the world (`0..world_size`).
    All,
}

impl Targets {
    /// Iterates the destination ranks, given the program's world size.
    pub fn iter(self, world_size: usize) -> impl Iterator<Item = usize> {
        match self {
            Targets::None => 0..0,
            Targets::One(r) => r as usize..r as usize + 1,
            Targets::All => 0..world_size,
        }
    }

    /// The first destination rank, if any (`All` starts at rank 0).
    pub fn first(self) -> Option<usize> {
        match self {
            Targets::None => None,
            Targets::One(r) => Some(r as usize),
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
/// lowered program is a flat memcpy. The compile cache keeps every op of
/// every cached program, so the channel and the single target rank are
/// stored in 32 bits. A wait keeps no threshold: the timed executor resolves
/// it to every notifier of its channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoweredOp {
    /// The original operation.
    pub op: TileOp,
    /// Barrier channel resolved through `f_C` (for waits and notifies).
    pub channel: Option<u32>,
    /// Destination rank(s) resolved through `f_R` (for notifies and pushes).
    pub targets: Targets,
}

/// Block metadata inside a [`LoweredProgram`]: a name/rank/role plus the index
/// range of the block's ops in the program's flat op table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockInfo {
    /// Block name.
    pub name: BlockName,
    /// Rank the block runs on.
    pub rank: usize,
    /// Producer / consumer / host role.
    pub role: BlockRole,
    /// First op of the block in the flat op table.
    pub start: u32,
    /// One past the last op of the block.
    pub end: u32,
}

/// A whole lowered program as two flat tables, one of ops and one of block
/// ranges, plus its lowered templates. A program without templates lowers in
/// exactly two heap allocations (one per table) instead of one per block
/// plus one per op-with-destinations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoweredProgram {
    /// All lowered ops of the fixed blocks, in block order.
    pub ops: Vec<LoweredOp>,
    /// Per-block metadata and op ranges of the fixed blocks.
    pub blocks: Vec<BlockInfo>,
    /// Template blocks, in block order.
    pub templates: Vec<LoweredTemplate>,
}

/// A template op after lowering: resolved, an entry-tile op at a
/// placeholder resolution whose tile-resolved fields each instance sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoweredTemplateOp {
    /// The op, lowered.
    pub op: LoweredOp,
    /// Whether its extent is given per row.
    pub per_row: bool,
    /// Whether its tile is the entry's own.
    pub entry_tile: bool,
    /// Whether an entry-tile op's channel is the entry tile's (`f_C`).
    pub entry_channel: bool,
    /// Whether an entry-tile op's destination is the entry tile's owner
    /// (`f_R`).
    pub entry_owner: bool,
}

/// A lowered [`TemplateStep`].
#[derive(Debug, Clone, PartialEq)]
pub enum LoweredStep {
    /// One op.
    Op(LoweredTemplateOp),
    /// A run of ops repeated once per tile of the entry's share.
    EachTile {
        /// The tiles the run covers.
        share: TileShare,
        /// The run's ops, as written.
        ops: Vec<TileOp>,
        /// The run laid out at every tile of the share and resolved through
        /// the program's mapping: tile `t`'s ops are `placed[t·n..(t+1)·n]`
        /// for the run's `n` ops, so an instance copies one slice.
        placed: Vec<LoweredOp>,
    },
}

/// A [`BlockTemplate`] after lowering and consistency checking.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredTemplate {
    /// Fixed blocks before it in block order.
    pub at: usize,
    /// The instances' name pattern (rank, group and maybe entry index).
    pub name: NamePattern,
    /// Rank the instances run on.
    pub rank: usize,
    /// The channels entry tiles signal, round robin.
    pub entry_channels: Range<u32>,
    /// The lowered steps.
    pub steps: Vec<LoweredStep>,
}

/// The channel and owner rank of the one tile an instance's op is moved
/// to.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    channel: u32,
    rank: u32,
}

impl LoweredTemplateOp {
    /// The op of one instance: its extent scaled by `rows` if it is given
    /// per row, and an entry-tile op moved `offset` tiles past its
    /// as-written tile and resolved there as `at`.
    #[inline]
    fn place(&self, rows: usize, offset: usize, at: Resolved) -> LoweredOp {
        let mut lop = self.op;
        if self.per_row {
            lop.op = lop.op.scaled(rows);
        }
        if self.entry_tile {
            let tile = lop.op.tile().expect("an entry-tile op names a tile") + offset;
            lop.op = lop.op.with_tile(tile);
            if self.entry_channel {
                lop.channel = Some(at.channel);
            }
            if self.entry_owner {
                lop.targets = Targets::One(at.rank);
            }
        }
        lop
    }
}

impl LoweredTemplate {
    /// The one instance the consistency pass checks: one row, and the
    /// entry's tile and each per-tile run's (once, at one tile per distinct
    /// share) past every fixed op's tile and channel, so an op that only an
    /// op at another share's (or the entry's) tile orders is a violation.
    pub(crate) fn representative(&self) -> Vec<LoweredOp> {
        let mut shares: Vec<TileShare> = Vec::new();
        let (mut tile, mut channel) = (0, 0);
        for step in &self.steps {
            match step {
                LoweredStep::Op(top) => {
                    tile = tile.max(top.op.op.tile().unwrap_or(0));
                    if !top.entry_tile {
                        channel = channel.max(top.op.channel.unwrap_or(0));
                    }
                }
                LoweredStep::EachTile { share, .. } => {
                    if !shares.contains(share) {
                        shares.push(*share);
                    }
                }
            }
        }
        let sentinel = |k: usize| {
            let at = Resolved {
                channel: channel + 1 + k as u32,
                rank: 0,
            };
            (tile + 1 + k, at)
        };
        let mut out = Vec::new();
        for step in &self.steps {
            match step {
                LoweredStep::Op(top) => {
                    // An entry-tile op lands on the entry's sentinel tile.
                    let (entry, at) = sentinel(0);
                    let offset = entry - top.op.op.tile().unwrap_or(0);
                    out.push(top.place(1, offset, at));
                }
                LoweredStep::EachTile { share, ops, .. } => {
                    let k = shares.iter().position(|s| s == share).expect("collected");
                    let (tile, at) = sentinel(1 + k);
                    out.extend(ops.iter().map(|op| {
                        lower_op(&op.with_tile(tile), self.rank, &at)
                            .expect("a resolved tile lowers")
                    }));
                }
            }
        }
        out
    }
}

/// A walk over a lowered program's blocks in block order, each template
/// instantiated once per entry of the kernel's table into one reused op
/// buffer ([`LoweredProgram::walk`]): the walk the timed executor builds
/// every graph of a kernel by.
///
/// Instance `i` of a template lays out its ops for entry `i`: per-row ops
/// scaled by the entry's row count, entry-tile ops at their as-written tile
/// plus `i`, and each per-tile run at the tiles of the entry's share
/// ([`TileShare::ranges`]), copied from the run's lowered layout.
pub struct BlockWalk<'p, 'b, F> {
    program: &'p LoweredProgram,
    table: Option<&'p BlockTable>,
    buffer: &'b mut Vec<LoweredOp>,
    include: F,
    /// The next fixed block.
    block: usize,
    /// The next template.
    template: usize,
    /// The template being instantiated.
    instances: Option<Instances<'p>>,
}

/// Where a walk is in instantiating one template.
struct Instances<'p> {
    template: &'p LoweredTemplate,
    table: &'p BlockTable,
    /// The next entry.
    entry: usize,
    /// The next entry's entry channel, past the first.
    lane: u32,
    /// Each per-tile run's ranges.
    runs: Vec<ShareRanges<'p>>,
}

impl<'p> Instances<'p> {
    fn new(template: &'p LoweredTemplate, table: &'p BlockTable) -> Self {
        let runs = (template.steps.iter())
            .filter_map(|step| match step {
                LoweredStep::EachTile { share, .. } => Some(share.ranges(table)),
                LoweredStep::Op(_) => None,
            })
            .collect();
        Self {
            template,
            table,
            entry: 0,
            lane: 0,
            runs,
        }
    }

    /// Lays out the next entry's instance in `out` (cleared first).
    fn lay_out<'o>(&mut self, out: &'o mut Vec<LoweredOp>) -> LoweredBlockRef<'o> {
        let (template, index) = (self.template, self.entry);
        let entry = &self.table.entries()[index];
        let rows = entry.rows.len();
        let at = Resolved {
            channel: template.entry_channels.start + self.lane,
            rank: entry.group as u32,
        };
        out.clear();
        let mut runs = self.runs.iter_mut();
        for step in &template.steps {
            match step {
                LoweredStep::Op(top) => out.push(top.place(rows, index, at)),
                LoweredStep::EachTile { ops, placed, .. } => {
                    let tiles =
                        (runs.next().and_then(Iterator::next)).expect("one range per entry");
                    let n = ops.len();
                    out.extend_from_slice(&placed[tiles.start * n..tiles.end * n]);
                }
            }
        }
        self.entry += 1;
        self.lane += 1;
        if self.lane >= template.entry_channels.len() as u32 {
            self.lane = 0;
        }
        let name = match template.name.placeholders() {
            3 => template.name.name([template.rank, entry.group, index]),
            _ => template.name.name([template.rank, entry.group]),
        };
        LoweredBlockRef {
            name,
            rank: template.rank,
            role: BlockRole::Consumer,
            ops: out,
        }
    }
}

impl<F: Fn(BlockRole) -> bool> BlockWalk<'_, '_, F> {
    /// The next block whose role the walk's filter accepts, or `None` past
    /// the last. A template's instances are consumer blocks; a filter that
    /// rejects consumers skips them without laying them out.
    ///
    /// # Panics
    ///
    /// Panics on a template when the walk has no table.
    pub fn next_block(&mut self) -> Option<LoweredBlockRef<'_>> {
        let program = self.program;
        loop {
            if let Some(instances) = &self.instances {
                if instances.entry < instances.table.len() {
                    let instances = self.instances.as_mut().expect("checked above");
                    return Some(instances.lay_out(self.buffer));
                }
                self.instances = None;
            }
            if let Some(template) =
                (program.templates.get(self.template)).filter(|t| t.at == self.block)
            {
                self.template += 1;
                if (self.include)(BlockRole::Consumer) {
                    let table = self
                        .table
                        .expect("a program with templates is walked with a table");
                    self.instances = Some(Instances::new(template, table));
                }
                continue;
            }
            let block = self.block;
            if block == program.blocks.len() {
                return None;
            }
            self.block += 1;
            let block = program.block(block);
            if (self.include)(block.role) {
                return Some(block);
            }
        }
    }
}

/// A view of one block of a [`LoweredProgram`].
#[derive(Debug, Clone, Copy)]
pub struct LoweredBlockRef<'a> {
    /// Block name.
    pub name: BlockName,
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

    /// A walk over the program's blocks in block order whose role `include`
    /// accepts: each fixed block as lowered, and each template once per
    /// entry of `table`, laid out in `buffer` ([`BlockWalk`]).
    pub fn walk<'p, 'b, F: Fn(BlockRole) -> bool>(
        &'p self,
        table: Option<&'p BlockTable>,
        buffer: &'b mut Vec<LoweredOp>,
        include: F,
    ) -> BlockWalk<'p, 'b, F> {
        BlockWalk {
            program: self,
            table,
            buffer,
            include,
            block: 0,
            template: 0,
            instances: None,
        }
    }
}

/// `value` (a channel or a rank, named by `what`) in the 32 bits a
/// [`LoweredOp`] stores it in.
fn narrow(value: usize, what: &str) -> Result<u32> {
    u32::try_from(value).map_err(|_| TileLinkError::InvalidConfig {
        reason: format!("{what} {value} does not fit a lowered op's 32 bits"),
    })
}

/// Where lowering looks a tile's channel (`f_C`) and owner rank (`f_R`)
/// up: the program's mapping, or the one tile an instance's op was moved to.
trait Resolve {
    fn channel(&self, tile: usize) -> Result<usize>;
    fn owner(&self, tile: usize) -> Result<usize>;
}

impl Resolve for dyn TileMapping + '_ {
    fn channel(&self, tile: usize) -> Result<usize> {
        self.channel_of(tile)
    }

    fn owner(&self, tile: usize) -> Result<usize> {
        self.rank_of(tile)
    }
}

impl Resolve for Resolved {
    fn channel(&self, _: usize) -> Result<usize> {
        Ok(self.channel as usize)
    }

    fn owner(&self, _: usize) -> Result<usize> {
        Ok(self.rank as usize)
    }
}

fn channel_of<R: Resolve + ?Sized>(mapping: &R, tile: usize) -> Result<u32> {
    narrow(mapping.channel(tile)?, "channel")
}

fn one_rank(rank: usize) -> Result<Targets> {
    narrow(rank, "rank").map(Targets::One)
}

fn lower_op<R: Resolve + ?Sized>(op: &TileOp, block_rank: usize, mapping: &R) -> Result<LoweredOp> {
    let (channel, targets) = match op {
        TileOp::ConsumerWait { tile } => (Some(channel_of(mapping, *tile)?), Targets::None),
        TileOp::ProducerNotify { tile, scope } => {
            let channel = channel_of(mapping, *tile)?;
            let targets = match scope {
                NotifyScope::Local => one_rank(block_rank)?,
                NotifyScope::Owner => one_rank(mapping.owner(*tile)?)?,
                NotifyScope::Broadcast => Targets::All,
            };
            (Some(channel), targets)
        }
        TileOp::PushTile { tile, target, .. } => {
            let targets = match target {
                PushTarget::Owner => one_rank(mapping.owner(*tile)?)?,
                PushTarget::Rank(r) => one_rank(*r)?,
                PushTarget::Broadcast => Targets::All,
            };
            (None, targets)
        }
        TileOp::PullTile { tile, .. } => (None, one_rank(mapping.owner(*tile)?)?),
        TileOp::LoadTile { tile, .. } | TileOp::StoreTile { tile, .. } => {
            let channel = match tile {
                Some(t) => Some(channel_of(mapping, *t)?),
                None => None,
            };
            (channel, Targets::None)
        }
        TileOp::RankNotifySegment { segment } => (None, one_rank(*segment)?),
        TileOp::PeerWait { .. }
        | TileOp::PeerNotify { .. }
        | TileOp::Compute(_)
        | TileOp::HostCopy { .. } => (None, Targets::None),
    };
    Ok(LoweredOp {
        op: *op,
        channel,
        targets,
    })
}

fn invalid_template(template: &BlockTemplate, what: &str) -> TileLinkError {
    TileLinkError::InvalidConfig {
        reason: format!("template `{}`: {what}", template.name.as_str()),
    }
}

/// Lowers `template`, which follows the first `at` fixed blocks: resolves
/// its fixed ops and lays out its per-tile runs through `mapping`, and
/// checks that its ops can be laid out for any entry without pipelining
/// moving one of them.
fn lower_template(
    at: usize,
    template: &BlockTemplate,
    mapping: &dyn TileMapping,
) -> Result<LoweredTemplate> {
    let rank = template.rank;
    // A load behind a compute step in some instance would make the
    // instance's pipelining depend on the entry: a run repeats, so it
    // counts twice.
    let mut computed = false;
    for step in &template.steps {
        let ops: Vec<TileOp> = match step {
            TemplateStep::Op(op) => vec![op.op],
            TemplateStep::EachTile { ops, .. } => ops.iter().chain(ops).copied().collect(),
        };
        for op in ops {
            match op {
                TileOp::Compute(_) => computed = true,
                TileOp::LoadTile { .. } if computed => {
                    return Err(invalid_template(template, "a load follows a compute step"))
                }
                _ => {}
            }
        }
    }
    let lower_one = |top: &TemplateOp| -> Result<LoweredTemplateOp> {
        let placed = |n| {
            lower_op(
                &top.op,
                rank,
                &Resolved {
                    channel: n,
                    rank: n,
                },
            )
        };
        let (op, entry_channel, entry_owner) = if !top.entry_tile {
            (lower_op(&top.op, rank, mapping)?, false, false)
        } else if top.op.tile().is_none() {
            return Err(invalid_template(
                template,
                "an entry tile on an op with no tile",
            ));
        } else if template.entry_channels.is_empty() {
            return Err(invalid_template(
                template,
                "an entry tile without entry channels",
            ));
        } else {
            // The fields the tile resolves are those two resolutions of it
            // lower differently.
            let (a, b) = (placed(0)?, placed(1)?);
            (a, a.channel != b.channel, a.targets != b.targets)
        };
        Ok(LoweredTemplateOp {
            op,
            per_row: top.per_row,
            entry_tile: top.entry_tile,
            entry_channel,
            entry_owner,
        })
    };
    let steps = template
        .steps
        .iter()
        .map(|step| {
            Ok(match step {
                TemplateStep::Op(op) => LoweredStep::Op(lower_one(op)?),
                TemplateStep::EachTile { share, ops } => LoweredStep::EachTile {
                    share: *share,
                    ops: ops.clone(),
                    placed: (0..share.tiles())
                        .flat_map(|tile| ops.iter().map(move |op| op.with_tile(tile)))
                        .map(|op| lower_op(&op, rank, mapping))
                        .collect::<Result<_>>()?,
                },
            })
        })
        .collect::<Result<_>>()?;
    Ok(LoweredTemplate {
        at,
        name: template.name,
        rank,
        entry_channels: narrow(template.entry_channels.start, "channel")?
            ..narrow(template.entry_channels.end, "channel")?,
        steps,
    })
}

/// Lowers every block and template of `program` through `mapping`.
///
/// # Errors
///
/// Returns an error if any tile id (a per-tile run's included) is outside
/// the mapping, a dynamic mapping has not been filled for a referenced
/// tile, a resolved channel or rank exceeds `u32::MAX`, or a template is
/// malformed (an entry tile on an op that names none or without entry
/// channels, or a load behind a compute step).
pub fn lower(program: &TileProgram, mapping: &dyn TileMapping) -> Result<LoweredProgram> {
    let templates = program
        .templates
        .iter()
        .map(|(at, template)| lower_template(*at, template, mapping))
        .collect::<Result<Vec<_>>>()?;
    let mut out = LoweredProgram {
        ops: Vec::with_capacity(program.blocks.iter().map(|b| b.ops.len()).sum()),
        blocks: Vec::with_capacity(program.blocks.len()),
        templates,
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
    use crate::ir::{BlockDesc, ComputeKind, TableEntry};
    use crate::mapping::{DynamicMapping, StaticMapping};
    use crate::passes::check_consistency;

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
        assert!(gemm.total_flops() > 0.0);
    }

    #[test]
    fn lowered_ops_stay_compact() {
        // The compile cache keeps every op of every cached program.
        assert!(std::mem::size_of::<LoweredOp>() <= 56);
    }

    #[test]
    fn ranks_past_u32_fail_lowering() {
        let mapping = StaticMapping::new(4, 2, 2, 1);
        let mut p = TileProgram::new("p", 2);
        p.add_block(
            BlockDesc::new("c", 0, BlockRole::Producer).op(TileOp::PushTile {
                buffer: "t".into(),
                bytes: 64.0,
                tile: 0,
                target: PushTarget::Rank(1 << 40),
            }),
        );
        assert!(matches!(
            lower(&p, &mapping),
            Err(TileLinkError::InvalidConfig { reason }) if reason.contains("rank 1099511627776")
        ));
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

    /// A table of `(rows, group)` slices, in order.
    fn table(slices: &[(usize, usize)]) -> BlockTable {
        let mut start = 0;
        BlockTable::new(
            slices
                .iter()
                .map(|&(rows, group)| {
                    start += rows;
                    TableEntry {
                        rows: start - rows..start,
                        group,
                    }
                })
                .collect(),
        )
    }

    /// One fixed producer block per rank, then a consumer template that
    /// waits on its share of the 4 tiles, computes its rows and stores its
    /// entry tile (tile 4 + i, on channel 4 or 5).
    fn templated() -> TileProgram {
        let mut p = TileProgram::new("t", 2);
        let pattern = crate::ir::NamePattern::new("g/r{}/e{}/d{}");
        for rank in 0..2 {
            p.add_block(
                BlockDesc::new(format!("comm/r{rank}"), rank, BlockRole::Producer)
                    .op(TileOp::PushTile {
                        buffer: "t".into(),
                        bytes: 64.0,
                        tile: rank,
                        target: PushTarget::Broadcast,
                    })
                    .op(TileOp::ProducerNotify {
                        tile: rank,
                        scope: NotifyScope::Broadcast,
                    }),
            );
            p.add_template(
                BlockTemplate::new(pattern, rank)
                    .entry_channels(4..6)
                    .each_tile(
                        TileShare::ByIndex { tiles: 4 },
                        [TileOp::ConsumerWait { tile: 0 }],
                    )
                    .per_row(TileOp::Compute(ComputeKind::MatmulTile {
                        m: 1,
                        n: 8,
                        k: 8,
                    }))
                    .step(TemplateOp {
                        op: TileOp::StoreTile {
                            buffer: "o".into(),
                            bytes: 2.0,
                            tile: Some(4),
                        },
                        per_row: true,
                        entry_tile: true,
                    }),
            );
        }
        p
    }

    fn walked(lowered: &LoweredProgram, table: &BlockTable) -> Vec<(String, Vec<LoweredOp>)> {
        let (mut out, mut buffer) = (Vec::new(), Vec::new());
        let mut walk = lowered.walk(Some(table), &mut buffer, |_| true);
        while let Some(block) = walk.next_block() {
            out.push((block.name.to_string(), block.ops.to_vec()));
        }
        out
    }

    #[test]
    fn templates_are_instantiated_in_block_order_per_entry() {
        let mapping = StaticMapping::new(8, 2, 2, 2);
        let lowered = lower(&templated(), &mapping).unwrap();
        check_consistency(&lowered).unwrap();
        let table = table(&[(3, 7), (5, 2), (1, 7)]);
        let blocks = walked(&lowered, &table);
        let names: Vec<&str> = blocks.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "comm/r0",
                "g/r0/e7/d0",
                "g/r0/e2/d1",
                "g/r0/e7/d2",
                "comm/r1",
                "g/r1/e7/d0",
                "g/r1/e2/d1",
                "g/r1/e7/d2"
            ]
        );
        // Entry 1 of 3 waits on tile 1 of 4, multiplies its 5 rows and
        // stores entry tile 5 on the second entry channel.
        let ops = &blocks[2].1;
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].op, TileOp::ConsumerWait { tile: 1 });
        assert_eq!(ops[0].channel, Some(mapping.channel_of(1).unwrap() as u32));
        assert_eq!(
            ops[1].op,
            TileOp::Compute(ComputeKind::MatmulTile { m: 5, n: 8, k: 8 })
        );
        assert_eq!(
            ops[2].op,
            TileOp::StoreTile {
                buffer: "o".into(),
                bytes: 10.0,
                tile: Some(5),
            }
        );
        assert_eq!(ops[2].channel, Some(5));
        // Entries 0 and 2 wait on tiles 4·0/3..4·1/3 = 0..1 and 2..4.
        let waits = |b: usize| {
            blocks[b]
                .1
                .iter()
                .filter(|o| matches!(o.op, TileOp::ConsumerWait { .. }))
                .count()
        };
        assert_eq!((waits(1), waits(3)), (1, 2));
        // A walk that rejects consumers lays out no instance.
        let mut buffer = Vec::new();
        let mut walk = lowered.walk(Some(&table), &mut buffer, |role| {
            role != BlockRole::Consumer
        });
        let mut count = 0;
        while walk.next_block().is_some() {
            count += 1;
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn malformed_templates_fail_lowering() {
        let mapping = StaticMapping::new(8, 2, 2, 2);
        let pattern = crate::ir::NamePattern::new("g/r{}/e{}");
        let lower_one = |template: BlockTemplate| {
            let mut p = TileProgram::new("t", 2);
            p.add_template(template);
            lower(&p, &mapping)
        };
        let load = TileOp::LoadTile {
            buffer: "a".into(),
            bytes: 1.0,
            tile: None,
        };
        let compute = TileOp::Compute(ComputeKind::Elementwise { elems: 1 });
        let store = TemplateOp {
            op: TileOp::StoreTile {
                buffer: "o".into(),
                bytes: 1.0,
                tile: Some(4),
            },
            per_row: false,
            entry_tile: true,
        };
        for (template, why) in [
            (
                BlockTemplate::new(pattern, 0)
                    .per_row(compute)
                    .per_row(load),
                "a load follows a compute step",
            ),
            (
                BlockTemplate::new(pattern, 0)
                    .each_tile(TileShare::ByRows { tiles: 2 }, [load, compute]),
                "a load follows a compute step",
            ),
            (
                BlockTemplate::new(pattern, 0).step(store),
                "an entry tile without entry channels",
            ),
        ] {
            assert!(
                matches!(lower_one(template), Err(TileLinkError::InvalidConfig { reason }) if reason.contains(why)),
                "{why}"
            );
        }
        // A run past the mapping's tiles fails like any out-of-range tile.
        let wide = BlockTemplate::new(pattern, 0).each_tile(
            TileShare::ByIndex { tiles: 5 },
            [TileOp::ConsumerWait { tile: 0 }],
        );
        assert!(matches!(
            lower_one(wide),
            Err(TileLinkError::TileOutOfRange { tile: 4, .. })
        ));
    }

    #[test]
    fn a_template_is_consistency_checked_once() {
        let mapping = StaticMapping::new(8, 2, 2, 2);
        let pattern = crate::ir::NamePattern::new("g/r{}/e{}");
        let check = |template: BlockTemplate| {
            let mut p = TileProgram::new("t", 2);
            p.add_template(template);
            check_consistency(&lower(&p, &mapping).unwrap())
        };
        let store = TileOp::StoreTile {
            buffer: "o".into(),
            bytes: 1.0,
            tile: Some(0),
        };
        let notify = TileOp::ProducerNotify {
            tile: 0,
            scope: NotifyScope::Local,
        };
        let by_rows = TileShare::ByRows { tiles: 4 };
        // Each tile is stored before it is notified.
        assert!(check(BlockTemplate::new(pattern, 0).each_tile(by_rows, [store, notify])).is_ok());
        // Tiles of one share stored by one run and notified by the next.
        assert!(check(
            BlockTemplate::new(pattern, 0)
                .each_tile(by_rows, [store])
                .each_tile(by_rows, [notify])
        )
        .is_ok());
        // Another share's tiles are not this share's.
        let by_index = TileShare::ByIndex { tiles: 4 };
        assert!(matches!(
            check(
                BlockTemplate::new(pattern, 0)
                    .each_tile(by_index, [store])
                    .each_tile(by_rows, [notify])
            ),
            Err(TileLinkError::ConsistencyViolation { block, .. }) if block == "g/r{}/e{}"
        ));
    }
}

//! Template blocks: a consumer block written once and instantiated once per
//! entry of a table.
//!
//! A dynamic mapping (Section 4.1 of the paper) compiles the *accesses* to
//! its tables statically and late-binds only their values. A
//! [`BlockTemplate`] is the program half of that split: a consumer block
//! whose sizes and tile ids are written in terms of one entry of a
//! [`BlockTable`] (a slice of a row space and the group it belongs to). The
//! compiler lowers and checks a template once, and a kernel binds the table
//! when it is planned; the timed executor instantiates the template once per
//! table entry, in place, so one compiled program serves every table.

use std::ops::Range;

use super::{NamePattern, TileOp};

/// One entry of a [`BlockTable`]: the slice of the table's row space one
/// instance of a template covers, and the group (an expert, say) it belongs
/// to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// The entry's rows.
    pub rows: Range<usize>,
    /// The entry's group: a template's name shows it, and an entry tile's
    /// owner rank (`f_R`) is it.
    pub group: usize,
}

/// The values a program's templates are instantiated with: entries whose
/// row slices partition `0..total_rows()` in order, plus a 128-bit digest of
/// them that names the table in a [`crate::KernelKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTable {
    entries: Vec<TableEntry>,
    digest: u128,
}

impl BlockTable {
    /// A table of `entries`.
    ///
    /// # Panics
    ///
    /// Panics unless the first entry starts at row 0, every later one starts
    /// where the one before it ends, no slice is reversed and every group
    /// fits in 32 bits (an owner rank's width in a lowered op).
    pub fn new(entries: Vec<TableEntry>) -> Self {
        let mut end = 0;
        for entry in &entries {
            assert!(
                entry.rows.start == end && entry.rows.start <= entry.rows.end,
                "table entry rows {:?} do not continue at row {end}",
                entry.rows
            );
            assert!(
                u32::try_from(entry.group).is_ok(),
                "table entry group {} exceeds u32::MAX",
                entry.group
            );
            end = entry.rows.end;
        }
        let digest = crate::compile::words_digest(
            entries
                .iter()
                .flat_map(|e| [e.rows.start, e.rows.end, e.group]),
        );
        Self { entries, digest }
    }

    /// The entries, in order.
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rows the entries cover (the end of the last slice).
    pub fn total_rows(&self) -> usize {
        self.entries.last().map_or(0, |e| e.rows.end)
    }

    /// A 128-bit digest of the entries: tables with equal entries share it.
    pub fn digest(&self) -> u128 {
        self.digest
    }
}

/// Which of a mapping's first tiles a per-tile run covers for one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileShare {
    /// An even split by entry index: entry `i` of `n` covers tiles
    /// `[tiles·i/n, min(tiles·(i+1)/n, tiles))`.
    ByIndex {
        /// Tiles split.
        tiles: usize,
    },
    /// A split in proportion to rows: the entry with rows `[s, e)` of a
    /// table of `r` rows covers tiles `[tiles·s/r, tiles·e/r)`.
    ByRows {
        /// Tiles split.
        tiles: usize,
    },
}

impl TileShare {
    /// Tiles split among the entries.
    pub fn tiles(self) -> usize {
        match self {
            TileShare::ByIndex { tiles } | TileShare::ByRows { tiles } => tiles,
        }
    }

    /// The tiles entry `index` of `table` covers.
    pub fn range(self, table: &BlockTable, index: usize) -> Range<usize> {
        match self {
            TileShare::ByIndex { tiles } => {
                let n = table.len();
                tiles * index / n..(tiles * (index + 1) / n).min(tiles)
            }
            TileShare::ByRows { tiles } => {
                let rows = &table.entries[index].rows;
                let total = table.total_rows().max(1);
                tiles * rows.start / total..tiles * rows.end / total
            }
        }
    }

    /// [`Self::range`] of every entry of `table`, in order. Each entry's
    /// tiles start where the previous entry's end, so an even split steps
    /// its bound by a quotient and a remainder instead of dividing per
    /// entry, and a split by rows divides once per entry.
    pub fn ranges(self, table: &BlockTable) -> ShareRanges<'_> {
        let n = table.len().max(1);
        let step = match self {
            TileShare::ByIndex { tiles } => Step::ByIndex {
                tiles,
                end: (tiles / n, tiles % n),
                step: (tiles / n, tiles % n),
                n,
            },
            TileShare::ByRows { tiles } => Step::ByRows {
                tiles,
                total: table.total_rows().max(1),
            },
        };
        ShareRanges {
            share: self,
            table,
            index: 0,
            start: 0,
            step,
        }
    }
}

/// How [`ShareRanges`] finds the end of the next entry's tiles.
#[derive(Debug, Clone)]
enum Step {
    /// `tiles·(i+1)/n` as a quotient and remainder, stepped by `tiles / n`
    /// and `tiles % n` per entry.
    ByIndex {
        tiles: usize,
        end: (usize, usize),
        step: (usize, usize),
        n: usize,
    },
    /// `tiles·e/total` for the entry's end row `e`.
    ByRows { tiles: usize, total: usize },
}

/// The tiles each entry of a table covers under one [`TileShare`], in entry
/// order ([`TileShare::ranges`]).
#[derive(Debug, Clone)]
pub struct ShareRanges<'t> {
    share: TileShare,
    table: &'t BlockTable,
    index: usize,
    start: usize,
    step: Step,
}

impl Iterator for ShareRanges<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let entry = self.table.entries.get(self.index)?;
        let end = match &mut self.step {
            Step::ByIndex {
                tiles,
                end,
                step,
                n,
            } => {
                let this = end.0.min(*tiles);
                end.0 += step.0;
                end.1 += step.1;
                if end.1 >= *n {
                    end.0 += 1;
                    end.1 -= *n;
                }
                this
            }
            Step::ByRows { tiles, total } => *tiles * entry.rows.end / *total,
        };
        let range = self.start..end;
        debug_assert_eq!(range, self.share.range(self.table, self.index));
        self.start = end;
        self.index += 1;
        Some(range)
    }
}

/// One op of a template.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemplateOp {
    /// The op. A per-row op gives its extent for one row.
    pub op: TileOp,
    /// Whether the op's extent (see [`TileOp::scaled`]) is multiplied by
    /// the entry's row count.
    pub per_row: bool,
    /// Whether the op's tile is the entry's own: entry `i` owns tile
    /// `t + i`, where `t` is the tile id as written. Entry tiles lie past
    /// the mapping's tiles: entry `i`'s signals channel `c + i % n` of its
    /// template's `n` entry channels starting at `c`, and its owner rank is
    /// the entry's group.
    pub entry_tile: bool,
}

/// One step of a template: an op, or a run of ops repeated per tile.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateStep {
    /// One op.
    Op(TemplateOp),
    /// `ops`, in order, once per tile of the entry's share of the mapping's
    /// tiles, each at that tile (an op that names no tile as written). The
    /// ops' extents are fixed, so a run is laid out per tile once, when it
    /// is lowered.
    EachTile {
        /// The tiles the run covers.
        share: TileShare,
        /// The run's ops.
        ops: Vec<TileOp>,
    },
}

/// A consumer block written once and instantiated once per entry of the
/// table its kernel binds: a dynamic mapping's accesses compiled once, its
/// values late-bound (Section 4.1 of the paper).
///
/// Lowering rejects a template in which a load follows a compute step (a
/// per-tile run counted twice, since it repeats), so pipelining never moves
/// an op of one of its instances.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTemplate {
    /// The instances' name: its placeholders take the block's rank, the
    /// entry's group and, if it has a third, the entry's index.
    pub name: NamePattern,
    /// Rank the block runs on.
    pub rank: usize,
    /// The channels entry tiles signal, round robin (see
    /// [`TemplateOp::entry_tile`]).
    pub entry_channels: Range<usize>,
    /// The steps, in order.
    pub steps: Vec<TemplateStep>,
}

impl BlockTemplate {
    /// An empty template named `name` on rank `rank`.
    ///
    /// # Panics
    ///
    /// Panics unless `name` has two or three placeholders.
    pub fn new(name: NamePattern, rank: usize) -> Self {
        assert!(
            matches!(name.placeholders(), 2 | 3),
            "a template name takes the rank, the group and optionally the entry index"
        );
        Self {
            name,
            rank,
            entry_channels: 0..0,
            steps: Vec::new(),
        }
    }

    /// Sets the channels entry tiles signal.
    pub fn entry_channels(mut self, channels: Range<usize>) -> Self {
        self.entry_channels = channels;
        self
    }

    /// Appends `op`.
    pub fn step(mut self, op: TemplateOp) -> Self {
        self.steps.push(TemplateStep::Op(op));
        self
    }

    /// Appends `op`, its extent given per row.
    pub fn per_row(self, op: TileOp) -> Self {
        self.step(TemplateOp {
            op,
            per_row: true,
            entry_tile: false,
        })
    }

    /// Appends a run of `ops` repeated once per tile of `share`, each op at
    /// the run's tile.
    pub fn each_tile(mut self, share: TileShare, ops: impl IntoIterator<Item = TileOp>) -> Self {
        self.steps.push(TemplateStep::EachTile {
            share,
            ops: ops.into_iter().collect(),
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(slices: &[(usize, usize, usize)]) -> BlockTable {
        BlockTable::new(
            slices
                .iter()
                .map(|&(start, end, group)| TableEntry {
                    rows: start..end,
                    group,
                })
                .collect(),
        )
    }

    #[test]
    fn shares_split_tiles_by_index_and_by_rows() {
        let t = table(&[(0, 10, 3), (10, 40, 1), (40, 40, 2), (40, 100, 0)]);
        assert_eq!(t.total_rows(), 100);
        let by_index = TileShare::ByIndex { tiles: 6 };
        let ranges: Vec<_> = (0..t.len()).map(|i| by_index.range(&t, i)).collect();
        assert_eq!(ranges, [0..1, 1..3, 3..4, 4..6]);
        let by_rows = TileShare::ByRows { tiles: 10 };
        let ranges: Vec<_> = (0..t.len()).map(|i| by_rows.range(&t, i)).collect();
        assert_eq!(ranges, [0..1, 1..4, 4..4, 4..10]);
    }

    #[test]
    fn stepped_ranges_equal_the_per_entry_formula() {
        for entries in [0, 1, 2, 3, 7, 16, 129] {
            let t = table(
                &(0..entries)
                    .map(|i| (i * i, (i + 1) * (i + 1), i))
                    .collect::<Vec<_>>(),
            );
            for tiles in [0, 1, 5, 16, 128, 1000] {
                for share in [TileShare::ByIndex { tiles }, TileShare::ByRows { tiles }] {
                    let per_entry: Vec<_> = (0..t.len()).map(|i| share.range(&t, i)).collect();
                    assert_eq!(share.ranges(&t).collect::<Vec<_>>(), per_entry, "{share:?}");
                }
            }
        }
    }

    #[test]
    fn digests_follow_the_entries() {
        let a = table(&[(0, 4, 0), (4, 8, 1)]);
        assert_eq!(a.digest(), table(&[(0, 4, 0), (4, 8, 1)]).digest());
        assert_ne!(a.digest(), table(&[(0, 4, 1), (4, 8, 0)]).digest());
        assert_ne!(a.digest(), table(&[(0, 4, 0), (4, 9, 1)]).digest());
        assert_ne!(a.digest(), table(&[(0, 4, 0)]).digest());
    }

    #[test]
    #[should_panic(expected = "do not continue at row 4")]
    fn entries_must_partition_the_rows() {
        table(&[(0, 4, 0), (5, 8, 1)]);
    }
}

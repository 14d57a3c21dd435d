//! Dynamic (lookup-table) tile-centric mapping.

use std::collections::BTreeMap;
use std::ops::Range;

use std::sync::{Arc, RwLock};

use crate::{Result, TileLinkError};

use super::TileMapping;

#[derive(Debug, Default, Clone)]
struct Entry {
    rows: Option<Range<usize>>,
    rank: Option<usize>,
    channel: Option<usize>,
}

#[derive(Debug)]
struct Tables {
    entries: Vec<Entry>,
    thresholds: Vec<u64>,
    /// The filled non-empty row ranges, start → tile. Filled ranges never
    /// overlap, so ordered by start they are ordered by end too, and the
    /// ranges a fill overlaps are the run ending at the last start below
    /// its end.
    by_start: BTreeMap<usize, usize>,
    /// Tiles filled with an empty or reversed row range, which that order
    /// does not cover (no builder fills one).
    degenerate: Vec<usize>,
}

impl Tables {
    /// The lowest-index tile other than `tile` whose filled rows overlap
    /// `rows`, with those rows.
    fn overlap(&self, tile: usize, rows: &Range<usize>) -> Option<(usize, Range<usize>)> {
        let overlaps = |r: &Range<usize>| r.start < rows.end && rows.start < r.end;
        let ordered = self
            .by_start
            .range(..rows.end)
            .rev()
            .map(|(_, &other)| other)
            .take_while(|&other| self.rows(other).end > rows.start);
        ordered
            .chain(self.degenerate.iter().copied())
            .filter(|&other| other != tile && overlaps(self.rows(other)))
            .min()
            .map(|other| (other, self.rows(other).clone()))
    }

    fn rows(&self, tile: usize) -> &Range<usize> {
        self.entries[tile]
            .rows
            .as_ref()
            .expect("indexed tiles are filled")
    }

    fn index(&mut self, tile: usize, rows: &Range<usize>) {
        if rows.start < rows.end {
            self.by_start.insert(rows.start, tile);
        } else {
            self.degenerate.push(tile);
        }
    }

    fn unindex(&mut self, tile: usize, rows: &Range<usize>) {
        if rows.start < rows.end {
            self.by_start.remove(&rows.start);
        } else {
            self.degenerate.retain(|&t| t != tile);
        }
    }
}

/// Lookup-table mapping whose values are filled at runtime.
///
/// This is the paper's *dynamic mapping* (Section 4.1): for MoE layers the
/// routing decides at runtime which tokens each expert tile consumes, so
/// `f_S`, `f_R` and `f_C` become tables (`f_S_low`, `f_S_high`, `f_R`, `f_C`)
/// that dynamic logic fills before the overlapped kernel runs. Accesses to the
/// tables are compiled statically; only the *values* are late-bound.
///
/// The mapping is internally reference-counted and thread-safe so the runtime
/// (one thread per rank/block) can share one instance: typically the host-side
/// routing code fills it, then every block queries it.
///
/// # Example
///
/// ```
/// use tilelink::{DynamicMapping, TileMapping};
///
/// let map = DynamicMapping::new(2, 4);
/// map.fill(0, 0..128, 1, 2).unwrap();
/// map.fill(1, 128..256, 0, 3).unwrap();
/// assert_eq!(map.rank_of(0).unwrap(), 1);
/// assert_eq!(map.channel_threshold(3), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicMapping {
    num_tiles: usize,
    num_channels: usize,
    tables: Arc<RwLock<Tables>>,
}

impl DynamicMapping {
    /// Creates an unfilled mapping for `num_tiles` tiles and `num_channels`
    /// barrier channels.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(num_tiles: usize, num_channels: usize) -> Self {
        assert!(num_tiles > 0, "tile count must be positive");
        assert!(num_channels > 0, "channel count must be positive");
        Self {
            num_tiles,
            num_channels,
            tables: Arc::new(RwLock::new(Tables {
                entries: vec![Entry::default(); num_tiles],
                thresholds: vec![0; num_channels],
                by_start: BTreeMap::new(),
                degenerate: Vec::new(),
            })),
        }
    }

    /// Fills the lookup tables for one tile.
    ///
    /// Tiles partition the row space: a fill whose row range overlaps the
    /// filled range of a *different* tile is rejected (re-filling the same
    /// tile, e.g. when a new routing arrives, is allowed and replaces the old
    /// entry).
    ///
    /// # Errors
    ///
    /// Returns [`TileLinkError::TileOutOfRange`] for a bad tile id and
    /// [`TileLinkError::InvalidConfig`] for a bad rank/channel or a row range
    /// overlapping another tile's.
    pub fn fill(&self, tile: usize, rows: Range<usize>, rank: usize, channel: usize) -> Result<()> {
        if tile >= self.num_tiles {
            return Err(TileLinkError::TileOutOfRange {
                tile,
                num_tiles: self.num_tiles,
            });
        }
        if channel >= self.num_channels {
            return Err(TileLinkError::InvalidConfig {
                reason: format!(
                    "channel {channel} out of range for {} channels",
                    self.num_channels
                ),
            });
        }
        let mut tables = self.tables.write().expect("mapping lock poisoned");
        if let Some((other, r)) = tables.overlap(tile, &rows) {
            return Err(TileLinkError::InvalidConfig {
                reason: format!(
                    "rows {}..{} of tile {tile} overlap rows {}..{} already filled for tile {other}",
                    rows.start, rows.end, r.start, r.end
                ),
            });
        }
        let old = std::mem::replace(
            &mut tables.entries[tile],
            Entry {
                rows: Some(rows.clone()),
                rank: Some(rank),
                channel: Some(channel),
            },
        );
        if let Some(old_rows) = &old.rows {
            tables.unindex(tile, old_rows);
        }
        tables.index(tile, &rows);
        if let Some(old) = old.channel {
            // Re-filling a tile moves its contribution between channels.
            tables.thresholds[old] = tables.thresholds[old].saturating_sub(1);
        }
        tables.thresholds[channel] += 1;
        Ok(())
    }

    /// Returns `true` once every tile has been filled.
    pub fn is_complete(&self) -> bool {
        self.tables
            .read()
            .expect("mapping lock poisoned")
            .entries
            .iter()
            .all(|e| e.rows.is_some() && e.rank.is_some() && e.channel.is_some())
    }

    fn lookup<T>(&self, tile: usize, f: impl Fn(&Entry) -> Option<T>) -> Result<T> {
        if tile >= self.num_tiles {
            return Err(TileLinkError::TileOutOfRange {
                tile,
                num_tiles: self.num_tiles,
            });
        }
        f(&self.tables.read().expect("mapping lock poisoned").entries[tile])
            .ok_or(TileLinkError::MappingNotFilled { tile })
    }
}

impl TileMapping for DynamicMapping {
    fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    fn num_channels(&self) -> usize {
        self.num_channels
    }

    fn rows_of(&self, tile: usize) -> Result<Range<usize>> {
        self.lookup(tile, |e| e.rows.clone())
    }

    fn rank_of(&self, tile: usize) -> Result<usize> {
        self.lookup(tile, |e| e.rank)
    }

    fn channel_of(&self, tile: usize) -> Result<usize> {
        self.lookup(tile, |e| e.channel)
    }

    fn channel_threshold(&self, channel: usize) -> u64 {
        self.tables
            .read()
            .expect("mapping lock poisoned")
            .thresholds
            .get(channel)
            .copied()
            .unwrap_or(0)
    }

    fn channels_for_rows(&self, rows: Range<usize>) -> Vec<usize> {
        let tables = self.tables.read().expect("mapping lock poisoned");
        let mut channels: Vec<usize> = tables
            .entries
            .iter()
            .filter_map(|e| match (&e.rows, e.channel) {
                (Some(r), Some(c)) if r.start < rows.end && rows.start < r.end => Some(c),
                _ => None,
            })
            .collect();
        channels.sort_unstable();
        channels.dedup();
        channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfilled_lookup_is_an_error() {
        let map = DynamicMapping::new(2, 2);
        assert!(matches!(
            map.rows_of(0),
            Err(TileLinkError::MappingNotFilled { tile: 0 })
        ));
        assert!(!map.is_complete());
    }

    #[test]
    fn fill_and_query_roundtrip() {
        let map = DynamicMapping::new(3, 4);
        map.fill(0, 0..64, 2, 1).unwrap();
        map.fill(1, 64..96, 0, 1).unwrap();
        map.fill(2, 96..128, 1, 3).unwrap();
        assert!(map.is_complete());
        assert_eq!(map.rows_of(1).unwrap(), 64..96);
        assert_eq!(map.rank_of(0).unwrap(), 2);
        assert_eq!(map.channel_of(2).unwrap(), 3);
        assert_eq!(map.channel_threshold(1), 2);
        assert_eq!(map.channel_threshold(0), 0);
    }

    #[test]
    fn refill_moves_threshold() {
        let map = DynamicMapping::new(1, 2);
        map.fill(0, 0..8, 0, 0).unwrap();
        assert_eq!(map.channel_threshold(0), 1);
        map.fill(0, 0..8, 0, 1).unwrap();
        assert_eq!(map.channel_threshold(0), 0);
        assert_eq!(map.channel_threshold(1), 1);
    }

    #[test]
    fn out_of_range_fill_is_rejected() {
        let map = DynamicMapping::new(1, 1);
        assert!(matches!(
            map.fill(5, 0..1, 0, 0),
            Err(TileLinkError::TileOutOfRange {
                tile: 5,
                num_tiles: 1
            })
        ));
        assert!(matches!(
            map.fill(0, 0..1, 0, 7),
            Err(TileLinkError::InvalidConfig { .. })
        ));
        // A rejected fill leaves the mapping untouched.
        assert!(!map.is_complete());
    }

    #[test]
    fn overlapping_fill_ranges_are_rejected() {
        let map = DynamicMapping::new(3, 2);
        map.fill(0, 0..64, 0, 0).unwrap();
        // Partial overlap from either side, containment and exact duplication
        // are all rejected; the existing entry survives.
        for bad in [32..96, 0..64, 10..20, 63..64, 0..1] {
            let err = map.fill(1, bad.clone(), 0, 1).unwrap_err();
            assert!(
                matches!(&err, TileLinkError::InvalidConfig { reason }
                    if reason.contains("overlap") && reason.contains("tile 0")),
                "{bad:?}: {err}"
            );
        }
        assert_eq!(map.rows_of(0).unwrap(), 0..64);
        // Adjacent (touching) ranges are fine, and so is an empty range.
        map.fill(1, 64..128, 0, 1).unwrap();
        map.fill(2, 128..128, 0, 0).unwrap();
        assert!(map.is_complete());
    }

    #[test]
    fn fills_match_a_scan_of_every_filled_range() {
        // Random fills and refills, empty and reversed ranges included: each
        // succeeds or fails exactly as a scan over every other tile's filled
        // range decides, naming the lowest-index overlapping tile.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        for _ in 0..20 {
            let tiles = 1 + next(24);
            let map = DynamicMapping::new(tiles, 1);
            let mut filled: Vec<Option<Range<usize>>> = vec![None; tiles];
            for _ in 0..200 {
                let tile = next(tiles as u64);
                let start = next(96);
                let rows = start..(start + next(12)).saturating_sub(next(3));
                let expected = filled
                    .iter()
                    .enumerate()
                    .filter_map(|(other, r)| Some((other, r.clone()?)))
                    .find(|(other, r)| *other != tile && r.start < rows.end && rows.start < r.end);
                match (map.fill(tile, rows.clone(), 0, 0), expected) {
                    (Ok(()), None) => filled[tile] = Some(rows),
                    (Err(TileLinkError::InvalidConfig { reason }), Some((other, r))) => {
                        assert_eq!(
                            reason,
                            format!(
                                "rows {}..{} of tile {tile} overlap rows {}..{} already filled for tile {other}",
                                rows.start, rows.end, r.start, r.end
                            )
                        );
                    }
                    (got, expected) => panic!("{rows:?} on tile {tile}: {got:?} vs {expected:?}"),
                }
            }
            for (tile, rows) in filled.iter().enumerate() {
                if let Some(rows) = rows {
                    assert_eq!(&map.rows_of(tile).unwrap(), rows);
                }
            }
        }
    }

    #[test]
    fn refilling_a_tile_with_a_new_range_is_allowed() {
        // A new routing re-fills the same tile: its own old range must not be
        // counted as a conflict.
        let map = DynamicMapping::new(2, 2);
        map.fill(0, 0..64, 0, 0).unwrap();
        map.fill(0, 0..32, 1, 1).unwrap();
        assert_eq!(map.rows_of(0).unwrap(), 0..32);
        assert_eq!(map.rank_of(0).unwrap(), 1);
        // The freed rows become available to other tiles.
        map.fill(1, 32..64, 0, 0).unwrap();
        assert!(map.is_complete());
    }

    #[test]
    fn partially_filled_map_is_not_complete() {
        let map = DynamicMapping::new(3, 2);
        assert!(!map.is_complete());
        map.fill(0, 0..8, 0, 0).unwrap();
        assert!(!map.is_complete(), "1 of 3 tiles filled");
        map.fill(2, 16..24, 0, 1).unwrap();
        assert!(!map.is_complete(), "2 of 3 tiles filled");
        // The unfilled middle tile still errors on lookup.
        assert!(matches!(
            map.rank_of(1),
            Err(TileLinkError::MappingNotFilled { tile: 1 })
        ));
        map.fill(1, 8..16, 0, 0).unwrap();
        assert!(map.is_complete());
    }

    #[test]
    fn channels_for_rows_respects_filled_ranges() {
        let map = DynamicMapping::new(3, 3);
        map.fill(0, 0..32, 0, 0).unwrap();
        map.fill(1, 32..64, 0, 1).unwrap();
        map.fill(2, 64..96, 1, 2).unwrap();
        assert_eq!(map.channels_for_rows(0..40), vec![0, 1]);
        assert_eq!(map.channels_for_rows(70..80), vec![2]);
        assert_eq!(map.channels_for_rows(200..300), Vec::<usize>::new());
    }

    #[test]
    fn clones_share_tables() {
        let map = DynamicMapping::new(1, 1);
        let alias = map.clone();
        map.fill(0, 0..4, 0, 0).unwrap();
        assert!(alias.is_complete());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tiles_panics() {
        DynamicMapping::new(0, 1);
    }
}

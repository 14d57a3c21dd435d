//! Static (affine) tile-centric mapping.

use std::ops::Range;

use super::{div_ceil, TileMapping};
use crate::{Result, TileLinkError};

/// Affine mapping for workloads whose data sharding is fixed at compile time
/// (tensor-parallel MLP, sequence-parallel attention).
///
/// The formulas are the ones in Section 4.1 of the paper for an AllGather
/// (pull mode) + GEMM over a global dimension `M` sharded across `R` ranks with
/// `C` channels per rank and producer tile size `T_m`:
///
/// ```text
/// M_per_rank    = ceil(M / R)
/// M_per_channel = ceil(M / (R * C))
/// rows(t)       = [t * T_m, (t + 1) * T_m)
/// rank(t)       = floor(t / floor(M_per_rank / T_m))
/// channel(t)    = floor(t / floor(M_per_channel / T_m))
/// ```
///
/// # Example
///
/// ```
/// use tilelink::{StaticMapping, TileMapping};
///
/// // M = 1024 rows, tiles of 128 rows, 4 ranks, 2 channels per rank.
/// let map = StaticMapping::new(1024, 128, 4, 2);
/// assert_eq!(map.num_tiles(), 8);
/// assert_eq!(map.rank_of(3).unwrap(), 1);      // rows 384..512 live on rank 1
/// assert_eq!(map.channel_of(3).unwrap(), 3);   // second channel of rank 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticMapping {
    m: usize,
    tile_m: usize,
    ranks: usize,
    channels_per_rank: usize,
}

impl StaticMapping {
    /// Creates a static mapping over `m` rows tiled by `tile_m`, sharded across
    /// `ranks` ranks with `channels_per_rank` barrier channels each.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(m: usize, tile_m: usize, ranks: usize, channels_per_rank: usize) -> Self {
        assert!(m > 0, "global extent must be positive");
        assert!(tile_m > 0, "tile extent must be positive");
        assert!(ranks > 0, "rank count must be positive");
        assert!(channels_per_rank > 0, "channel count must be positive");
        Self {
            m,
            tile_m,
            ranks,
            channels_per_rank,
        }
    }

    /// Producer tile extent `T_m`.
    pub fn tile_rows(&self) -> usize {
        self.tile_m
    }

    /// Number of ranks `R`.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Rows owned by each rank (`ceil(M / R)`).
    pub fn rows_per_rank(&self) -> usize {
        div_ceil(self.m, self.ranks)
    }

    /// Rows covered by each channel (`ceil(M / (R * C))`).
    pub fn rows_per_channel(&self) -> usize {
        div_ceil(self.m, self.ranks * self.channels_per_rank)
    }

    fn check(&self, tile: usize) -> Result<()> {
        if tile >= self.num_tiles() {
            return Err(TileLinkError::TileOutOfRange {
                tile,
                num_tiles: self.num_tiles(),
            });
        }
        Ok(())
    }

    /// Tiles whose rows fall inside rank `rank`'s shard, in ascending order.
    pub fn tiles_of_rank(&self, rank: usize) -> Vec<usize> {
        (0..self.num_tiles())
            .filter(|&t| self.rank_of(t).map(|r| r == rank).unwrap_or(false))
            .collect()
    }

    /// The inverse of the channel map: tiles that signal `channel`.
    pub fn tiles_of_channel(&self, channel: usize) -> Vec<usize> {
        (0..self.num_tiles())
            .filter(|&t| self.channel_of(t).map(|c| c == channel).unwrap_or(false))
            .collect()
    }
}

impl TileMapping for StaticMapping {
    fn num_tiles(&self) -> usize {
        div_ceil(self.m, self.tile_m)
    }

    fn num_channels(&self) -> usize {
        self.ranks * self.channels_per_rank
    }

    fn rows_of(&self, tile: usize) -> Result<Range<usize>> {
        self.check(tile)?;
        let start = tile * self.tile_m;
        Ok(start..((start + self.tile_m).min(self.m)))
    }

    fn rank_of(&self, tile: usize) -> Result<usize> {
        self.check(tile)?;
        let tiles_per_rank = (self.rows_per_rank() / self.tile_m).max(1);
        Ok((tile / tiles_per_rank).min(self.ranks - 1))
    }

    fn channel_of(&self, tile: usize) -> Result<usize> {
        self.check(tile)?;
        let tiles_per_channel = (self.rows_per_channel() / self.tile_m).max(1);
        Ok((tile / tiles_per_channel).min(self.num_channels() - 1))
    }

    fn channel_threshold(&self, channel: usize) -> u64 {
        // Closed form of `tiles_of_channel(channel).len()`: channel(t) is
        // `min(t / tiles_per_channel, num_channels - 1)`, so every channel but
        // the last covers one `tiles_per_channel`-sized slice of the tile range
        // and the last channel absorbs the clamped tail.
        let num_channels = self.num_channels();
        if channel >= num_channels {
            return 0;
        }
        let tiles_per_channel = (self.rows_per_channel() / self.tile_m).max(1);
        let start = channel * tiles_per_channel;
        let num_tiles = self.num_tiles();
        if channel == num_channels - 1 {
            num_tiles.saturating_sub(start) as u64
        } else {
            tiles_per_channel.min(num_tiles.saturating_sub(start)) as u64
        }
    }

    fn channels_for_rows(&self, rows: Range<usize>) -> Vec<usize> {
        let mut channels: Vec<usize> = (0..self.num_tiles())
            .filter(|&t| {
                let r = self.rows_of(t).expect("tile in range");
                r.start < rows.end && rows.start < r.end
            })
            .map(|t| self.channel_of(t).expect("tile in range"))
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
    fn paper_example_formulas() {
        // M = 8192, tiles of 128, 8 ranks, 4 channels per rank → the shapes of
        // the motivational MLP example.
        let map = StaticMapping::new(8192, 128, 8, 4);
        assert_eq!(map.num_tiles(), 64);
        assert_eq!(map.num_channels(), 32);
        assert_eq!(map.rows_per_rank(), 1024);
        assert_eq!(map.rows_per_channel(), 256);
        // tile 0 belongs to rank 0, channel 0; tile 63 to rank 7, channel 31.
        assert_eq!(map.rank_of(0).unwrap(), 0);
        assert_eq!(map.channel_of(0).unwrap(), 0);
        assert_eq!(map.rank_of(63).unwrap(), 7);
        assert_eq!(map.channel_of(63).unwrap(), 31);
        // 8 tiles per rank, 2 tiles per channel.
        assert_eq!(map.tiles_of_rank(3).len(), 8);
        assert_eq!(map.channel_threshold(5), 2);
    }

    #[test]
    fn rows_are_a_partition() {
        let map = StaticMapping::new(1000, 128, 4, 2);
        let mut covered = vec![false; 1000];
        for t in 0..map.num_tiles() {
            for r in map.rows_of(t).unwrap() {
                assert!(!covered[r], "row {r} covered twice");
                covered[r] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn last_tile_is_clipped() {
        let map = StaticMapping::new(1000, 128, 4, 2);
        let last = map.num_tiles() - 1;
        assert_eq!(map.rows_of(last).unwrap(), 896..1000);
    }

    #[test]
    fn rank_of_is_monotonic_and_bounded() {
        let map = StaticMapping::new(4096, 64, 8, 4);
        let mut prev = 0;
        for t in 0..map.num_tiles() {
            let r = map.rank_of(t).unwrap();
            assert!(r >= prev);
            assert!(r < 8);
            prev = r;
        }
    }

    #[test]
    fn channel_of_refines_rank_of() {
        // Every channel belongs to exactly one rank's row range.
        let map = StaticMapping::new(2048, 128, 4, 4);
        for t in 0..map.num_tiles() {
            let rank = map.rank_of(t).unwrap();
            let channel = map.channel_of(t).unwrap();
            assert_eq!(
                channel / 4,
                rank,
                "tile {t}: channel {channel} not in rank {rank}"
            );
        }
    }

    #[test]
    fn out_of_range_tile_is_an_error() {
        let map = StaticMapping::new(256, 128, 2, 1);
        assert!(matches!(
            map.rows_of(2),
            Err(TileLinkError::TileOutOfRange { .. })
        ));
    }

    #[test]
    fn channels_for_rows_covers_consumer_tiles_with_different_size() {
        // Producer tiles of 128 rows, consumer tiles of 256 rows (the decoupled
        // tile-size example of Figure 2a): a consumer tile overlaps two
        // producer channels when channels span 128 rows.
        let map = StaticMapping::new(1024, 128, 4, 2);
        assert_eq!(map.rows_per_channel(), 128);
        let channels = map.channels_for_rows(0..256);
        assert_eq!(channels, vec![0, 1]);
        let channels = map.channels_for_rows(256..512);
        assert_eq!(channels, vec![2, 3]);
    }

    #[test]
    fn thresholds_sum_to_tile_count() {
        let map = StaticMapping::new(8192, 128, 8, 4);
        let total: u64 = (0..map.num_channels())
            .map(|c| map.channel_threshold(c))
            .sum();
        assert_eq!(total, map.num_tiles() as u64);
    }

    #[test]
    fn closed_form_threshold_matches_brute_force() {
        // Including ragged shapes where the last channel absorbs the tail.
        for (m, tile_m, ranks, channels) in [
            (8192, 128, 8, 4),
            (1000, 128, 4, 2),
            (256, 256, 4, 2),
            (4096, 64, 8, 4),
            (300, 32, 3, 3),
        ] {
            let map = StaticMapping::new(m, tile_m, ranks, channels);
            for c in 0..map.num_channels() + 2 {
                let brute = if c < map.num_channels() {
                    map.tiles_of_channel(c).len() as u64
                } else {
                    0
                };
                assert_eq!(
                    map.channel_threshold(c),
                    brute,
                    "m={m} tile_m={tile_m} ranks={ranks} channels={channels} c={c}"
                );
            }
        }
    }

    #[test]
    fn tile_larger_than_rank_share_still_maps() {
        // Degenerate but legal: tile rows exceed the per-rank share.
        let map = StaticMapping::new(256, 256, 4, 2);
        assert_eq!(map.num_tiles(), 1);
        assert_eq!(map.rank_of(0).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_extent_panics() {
        StaticMapping::new(128, 0, 2, 1);
    }
}

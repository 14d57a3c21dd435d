//! Barrier-channel metadata shared by the communication and computation blocks.

use crate::mapping::TileMapping;

/// Distributed mapping metadata handed to every block of a fused kernel.
///
/// This mirrors the `BlockChannel` special argument of the paper's compiler
/// (Figure 7): the current rank, the world size, the barrier configuration and
/// the producer/consumer block counts. The runtime derives it from a
/// [`TileMapping`] so that the producer thresholds always agree with the
/// channel mapping `f_C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockChannel {
    /// Rank of the current process within the node.
    pub local_rank: usize,
    /// Global rank of the current process.
    pub rank: usize,
    /// Number of ranks within the node.
    pub local_num_ranks: usize,
    /// Total number of ranks.
    pub num_ranks: usize,
    /// Total number of barrier channels (across all ranks).
    pub num_barriers: usize,
    /// Number of producer (communication) blocks per rank.
    pub num_producer_blocks: usize,
    /// Number of consumer (computation) blocks per rank.
    pub num_consumer_blocks: usize,
    /// Producer completion count each channel must reach before its data is
    /// complete (`producer_threshold` in Figure 7).
    pub producer_threshold: Vec<u64>,
}

impl BlockChannel {
    /// Derives the barrier configuration for `rank` of `num_ranks` from a tile
    /// mapping and the block counts of the fused kernel.
    pub fn derive(
        rank: usize,
        num_ranks: usize,
        mapping: &dyn TileMapping,
        num_producer_blocks: usize,
        num_consumer_blocks: usize,
    ) -> Self {
        let producer_threshold = (0..mapping.num_channels())
            .map(|c| mapping.channel_threshold(c))
            .collect();
        Self {
            local_rank: rank,
            rank,
            local_num_ranks: num_ranks,
            num_ranks,
            num_barriers: mapping.num_channels(),
            num_producer_blocks,
            num_consumer_blocks,
            producer_threshold,
        }
    }

    /// The threshold of one channel (0 for unknown channels).
    pub fn threshold(&self, channel: usize) -> u64 {
        self.producer_threshold.get(channel).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::StaticMapping;

    #[test]
    fn derive_from_static_mapping() {
        let mapping = StaticMapping::new(1024, 128, 4, 2);
        let bc = BlockChannel::derive(1, 4, &mapping, 20, 112);
        assert_eq!(bc.rank, 1);
        assert_eq!(bc.num_ranks, 4);
        assert_eq!(bc.num_barriers, 8);
        assert_eq!(bc.num_producer_blocks, 20);
        assert_eq!(bc.num_consumer_blocks, 112);
        // 8 tiles over 8 channels → threshold 1 each.
        assert!(bc.producer_threshold.iter().all(|&t| t == 1));
    }

    #[test]
    fn threshold_of_unknown_channel_is_zero() {
        let mapping = StaticMapping::new(256, 128, 2, 1);
        let bc = BlockChannel::derive(0, 2, &mapping, 1, 1);
        assert_eq!(bc.threshold(99), 0);
    }

    #[test]
    fn thresholds_follow_coarser_channels() {
        // 16 tiles, 4 channels → 4 producer tiles per channel.
        let mapping = StaticMapping::new(2048, 128, 2, 2);
        let bc = BlockChannel::derive(0, 2, &mapping, 4, 4);
        assert_eq!(bc.num_barriers, 4);
        assert!(bc.producer_threshold.iter().all(|&t| t == 4));
    }
}

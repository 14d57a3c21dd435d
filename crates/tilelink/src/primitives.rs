//! The tile-centric primitives of Table 3, implemented over symmetric memory.
//!
//! A [`DeviceHandle`] is created once per rank per fused kernel and cloned into
//! every block of that kernel. It owns the rank's barrier signal sets and
//! exposes the nine primitives of the paper:
//!
//! | paper primitive | method |
//! |---|---|
//! | `producer_tile_notify(tile_id, mode)` | [`DeviceHandle::producer_tile_notify`] |
//! | `consumer_tile_wait(tile_id)` | [`DeviceHandle::consumer_tile_wait`] / [`DeviceHandle::consumer_rows_wait`] |
//! | `peer_tile_notify(tile_id, rank)` | [`DeviceHandle::peer_tile_notify`] |
//! | `peer_tile_wait(tile_id, rank)` | [`DeviceHandle::peer_tile_wait`] |
//! | `rank_notify(tile_id, rank)` | [`DeviceHandle::rank_notify`] / [`DeviceHandle::rank_segment_ready`] |
//! | `rank_wait(rank)` | [`DeviceHandle::rank_wait`] |
//! | `tile_push_data(tensors, tile_id, data)` | [`DeviceHandle::tile_push_data`] |
//! | `tile_pull_data(tensors, tile_id)` | [`DeviceHandle::tile_pull_data`] |
//! | `rank_copy_data(src, dst)` | [`DeviceHandle::rank_copy_data`] |
//!
//! Memory consistency follows Section 3.2.1: every notify performs a
//! **release** operation and every wait an **acquire** operation, so data
//! written before a notify is visible to code running after the corresponding
//! wait. The underlying [`tilelink_shmem::SignalSet`] implements exactly those
//! orderings.

use std::ops::Range;

use tilelink_shmem::{RankContext, SharedBuffer, SignalSet};

use crate::channel::BlockChannel;
use crate::mapping::TileMapping;
use crate::tile::{read_tile, write_tile, TileRect};

/// Who gets notified when a producer tile completes.
///
/// The paper's `mode` argument takes `p2p` (notify the single rank computed
/// from the tile's offset in the global view) or `broadcast` (notify every
/// rank). `Local` covers fused kernels whose consumer lives on the same rank
/// (for example the GEMM → ReduceScatter chain of Figure 4, where the GEMM's
/// consumer is the local reduction block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyScope {
    /// Notify this rank's own channel counter.
    Local,
    /// Notify the rank that owns the tile according to the mapping (`p2p`).
    Owner,
    /// Notify every rank (`broadcast`).
    Broadcast,
}

/// Where pushed tile data lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushTarget {
    /// Push to the rank owning the tile according to the mapping (`p2p`).
    Owner,
    /// Push to one explicit rank.
    Rank(usize),
    /// Push to every rank (`broadcast`).
    Broadcast,
}

/// Per-rank handle giving blocks access to the tile-centric primitives.
///
/// Cloning is cheap; every clone refers to the same signal sets.
#[derive(Clone)]
pub struct DeviceHandle {
    ctx: RankContext,
    kernel: String,
    channel: BlockChannel,
    /// Producer→consumer channel counters of this rank.
    pc: SignalSet,
    /// Per-tile peer signal slots of this rank.
    peer: SignalSet,
    /// Host/rank-level signal slots of this rank (one per peer rank).
    host: SignalSet,
}

impl DeviceHandle {
    /// Creates the handle for `kernel` on this rank and allocates its signal
    /// sets in symmetric memory.
    ///
    /// `peer_slots` is the number of per-tile peer barrier slots (pass the
    /// number of global tiles exchanged between peers, or 0 when the kernel
    /// does not use peer signalling).
    pub fn new(ctx: &RankContext, kernel: &str, channel: BlockChannel, peer_slots: usize) -> Self {
        let pc = ctx.alloc_signals(&format!("__tl/{kernel}/pc"), channel.num_barriers.max(1));
        let peer = ctx.alloc_signals(&format!("__tl/{kernel}/peer"), peer_slots.max(1));
        let host = ctx.alloc_signals(&format!("__tl/{kernel}/host"), channel.num_ranks.max(1));
        Self {
            ctx: ctx.clone(),
            kernel: kernel.to_string(),
            channel,
            pc,
            peer,
            host,
        }
    }

    /// The rank this handle belongs to.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Number of ranks in the kernel's process group.
    pub fn world_size(&self) -> usize {
        self.ctx.world_size()
    }

    /// Waits for every rank of the kernel to reach this point.
    pub fn barrier_all(&self) {
        self.ctx.barrier();
    }

    fn remote_pc(&self, rank: usize) -> SignalSet {
        if rank == self.rank() {
            self.pc.clone()
        } else {
            self.ctx
                .remote_signals(rank, &format!("__tl/{}/pc", self.kernel))
        }
    }

    fn remote_peer(&self, rank: usize) -> SignalSet {
        if rank == self.rank() {
            self.peer.clone()
        } else {
            self.ctx
                .remote_signals(rank, &format!("__tl/{}/peer", self.kernel))
        }
    }

    fn remote_host(&self, rank: usize) -> SignalSet {
        if rank == self.rank() {
            self.host.clone()
        } else {
            self.ctx
                .remote_signals(rank, &format!("__tl/{}/host", self.kernel))
        }
    }

    // ------------------------------------------------------------------
    // Signal primitives
    // ------------------------------------------------------------------

    /// Marks producer tile `tile` as done and notifies its consumer(s).
    ///
    /// The notified channel is `mapping.channel_of(tile)`; `scope` selects the
    /// notified rank(s) as described on [`NotifyScope`]. Carries **release**
    /// semantics: all stores issued by the producer before this call are
    /// visible to consumers that wait on the channel.
    ///
    /// # Panics
    ///
    /// Panics if the tile is outside the mapping.
    pub fn producer_tile_notify(&self, mapping: &dyn TileMapping, tile: usize, scope: NotifyScope) {
        let channel = mapping.channel_of(tile).expect("tile within mapping");
        match scope {
            NotifyScope::Local => {
                self.pc.add(channel, 1);
            }
            NotifyScope::Owner => {
                let owner = mapping.rank_of(tile).expect("tile within mapping");
                self.remote_pc(owner).add(channel, 1);
            }
            NotifyScope::Broadcast => {
                for r in 0..self.world_size() {
                    self.remote_pc(r).add(channel, 1);
                }
            }
        }
    }

    /// Blocks until every producer tile feeding `tile`'s channel has completed.
    ///
    /// Carries **acquire** semantics: loads issued after this call observe the
    /// producers' stores.
    ///
    /// # Panics
    ///
    /// Panics if the tile is outside the mapping.
    pub fn consumer_tile_wait(&self, mapping: &dyn TileMapping, tile: usize) {
        let channel = mapping.channel_of(tile).expect("tile within mapping");
        self.consumer_channel_wait(channel, mapping.channel_threshold(channel));
    }

    /// Blocks until every channel overlapping the consumer's row range `rows`
    /// has reached its producer threshold.
    ///
    /// This is the form used when the consumer's tile size differs from the
    /// producer's (the decoupled tile-size case of Figure 2a): a consumer tile
    /// may span several producer channels.
    pub fn consumer_rows_wait(&self, mapping: &dyn TileMapping, rows: Range<usize>) {
        for channel in mapping.channels_for_rows(rows) {
            self.consumer_channel_wait(channel, mapping.channel_threshold(channel));
        }
    }

    /// Blocks until `channel`'s counter reaches `threshold` (acquire).
    pub fn consumer_channel_wait(&self, channel: usize, threshold: u64) {
        self.pc.wait_ge(channel, threshold);
    }

    /// Marks the current tile done and notifies the peer tile slot on `dst_rank`.
    ///
    /// Peer signalling connects tiles *of the same operator* on different ranks
    /// (for example consecutive ring stages of the ReduceScatter in Figure 4).
    /// Carries release semantics.
    pub fn peer_tile_notify(&self, tile_slot: usize, dst_rank: usize) {
        self.remote_peer(dst_rank).add(tile_slot, 1);
    }

    /// Blocks until this rank's peer tile slot has been notified at least
    /// `expected` times (acquire).
    pub fn peer_tile_wait(&self, tile_slot: usize, expected: u64) {
        self.peer.wait_ge(tile_slot, expected);
    }

    /// Host-side notify: tells `dst_rank` that this rank has finished a step
    /// (release).
    pub fn rank_notify(&self, dst_rank: usize) {
        self.remote_host(dst_rank).add(self.rank(), 1);
    }

    /// Host-side wait: blocks until `src_rank` has notified this rank at least
    /// `expected` times (acquire).
    pub fn rank_wait(&self, src_rank: usize, expected: u64) {
        self.host.wait_ge(src_rank, expected);
    }

    /// Host-side form of `rank_notify` used by copy-engine communication
    /// (Figure 6): marks every channel belonging to `segment_rank`'s shard as
    /// complete on the local rank, releasing the consumer blocks that wait on
    /// that segment.
    ///
    /// # Panics
    ///
    /// Panics if the mapping rejects one of its own tiles.
    pub fn rank_segment_ready(&self, mapping: &dyn TileMapping, segment_rank: usize) {
        for tile in 0..mapping.num_tiles() {
            if mapping.rank_of(tile).expect("tile within mapping") == segment_rank {
                let channel = mapping.channel_of(tile).expect("tile within mapping");
                self.pc.add(channel, 1);
            }
        }
    }

    // ------------------------------------------------------------------
    // Data primitives
    // ------------------------------------------------------------------

    /// Pushes a tile of data into the symmetric buffer `name` on the target
    /// rank(s) (`tile_push_data`).
    ///
    /// The destination row range is `mapping.rows_of(tile)`; `row_stride` is the
    /// number of columns of the destination buffer and `data` must hold
    /// `rows × row_stride` values... unless a narrower `cols` range is given via
    /// [`DeviceHandle::tile_push_rect`].
    ///
    /// # Panics
    ///
    /// Panics if the tile is outside the mapping or the data length mismatches.
    pub fn tile_push_data(
        &self,
        name: &str,
        mapping: &dyn TileMapping,
        tile: usize,
        row_stride: usize,
        data: &[f32],
        target: PushTarget,
    ) {
        let rows = mapping.rows_of(tile).expect("tile within mapping");
        let rect = TileRect::full_rows(rows, row_stride);
        self.push_rect_impl(name, mapping, tile, row_stride, &rect, data, target);
    }

    /// Pushes an arbitrary rectangle into the symmetric buffer `name` on the
    /// target rank(s).
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the rectangle.
    pub fn tile_push_rect(
        &self,
        name: &str,
        row_stride: usize,
        rect: &TileRect,
        data: &[f32],
        dst_rank: usize,
    ) {
        let buf = self.buffer_on(dst_rank, name);
        write_tile(&buf, row_stride, rect, data);
    }

    #[allow(clippy::too_many_arguments)]
    fn push_rect_impl(
        &self,
        name: &str,
        mapping: &dyn TileMapping,
        tile: usize,
        row_stride: usize,
        rect: &TileRect,
        data: &[f32],
        target: PushTarget,
    ) {
        match target {
            PushTarget::Owner => {
                let owner = mapping.rank_of(tile).expect("tile within mapping");
                let buf = self.buffer_on(owner, name);
                write_tile(&buf, row_stride, rect, data);
            }
            PushTarget::Rank(r) => {
                let buf = self.buffer_on(r, name);
                write_tile(&buf, row_stride, rect, data);
            }
            PushTarget::Broadcast => {
                for r in 0..self.world_size() {
                    let buf = self.buffer_on(r, name);
                    write_tile(&buf, row_stride, rect, data);
                }
            }
        }
    }

    /// Pulls a tile of data from the symmetric buffer `name` of the rank that
    /// owns the tile (`tile_pull_data`, p2p flavour).
    ///
    /// `src_rows` maps the global row range of the tile into the owner's local
    /// buffer: `local_row = global_row - src_base`.
    ///
    /// # Panics
    ///
    /// Panics if the tile is outside the mapping.
    pub fn tile_pull_data(
        &self,
        name: &str,
        mapping: &dyn TileMapping,
        tile: usize,
        row_stride: usize,
        src_base: usize,
    ) -> Vec<f32> {
        let owner = mapping.rank_of(tile).expect("tile within mapping");
        let rows = mapping.rows_of(tile).expect("tile within mapping");
        let local = (rows.start - src_base)..(rows.end - src_base);
        let buf = self.buffer_on(owner, name);
        read_tile(&buf, row_stride, &TileRect::full_rows(local, row_stride))
    }

    /// Copies `len` values from `src_rank`'s buffer `src_name` (offset
    /// `src_offset`) into `dst_rank`'s buffer `dst_name` (offset `dst_offset`).
    ///
    /// This is the host-side `rank_copy_data` primitive, the operation the copy
    /// engine performs when communication is mapped to DMA (Figure 6).
    #[allow(clippy::too_many_arguments)]
    pub fn rank_copy_data(
        &self,
        src_rank: usize,
        src_name: &str,
        src_offset: usize,
        dst_rank: usize,
        dst_name: &str,
        dst_offset: usize,
        len: usize,
    ) {
        let src = self.buffer_on(src_rank, src_name);
        let dst = self.buffer_on(dst_rank, dst_name);
        dst.copy_from(dst_offset, &src, src_offset, len);
    }

    /// Resolves the symmetric buffer `name` on `rank` (local or remote).
    pub fn buffer_on(&self, rank: usize, name: &str) -> SharedBuffer {
        if rank == self.rank() {
            self.ctx.local(name)
        } else {
            self.ctx.remote(rank, name)
        }
    }
}

impl std::fmt::Debug for DeviceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceHandle")
            .field("kernel", &self.kernel)
            .field("rank", &self.rank())
            .field("world_size", &self.world_size())
            .field("num_barriers", &self.channel.num_barriers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::StaticMapping;
    use tilelink_shmem::ProcessGroup;

    fn handle(ctx: &RankContext, mapping: &StaticMapping, peer_slots: usize) -> DeviceHandle {
        let bc = BlockChannel::derive(ctx.rank(), ctx.world_size(), mapping, 1, 1);
        DeviceHandle::new(ctx, "test_kernel", bc, peer_slots)
    }

    #[test]
    fn producer_consumer_handshake_local() {
        // One producer tile per channel; consumer waits for its channel locally.
        let mapping = StaticMapping::new(256, 64, 2, 2);
        let out = ProcessGroup::launch(2, |ctx| {
            let dev = handle(&ctx, &mapping, 0);
            let data = ctx.alloc("buf", 256);
            dev.barrier_all();
            // produce the tiles this rank owns
            for tile in mapping.tiles_of_rank(ctx.rank()) {
                let rows = mapping.rows_of(tile).unwrap();
                for r in rows.clone() {
                    data.store(r % 128, r as f32);
                }
                dev.producer_tile_notify(&mapping, tile, NotifyScope::Local);
            }
            // consume the same tiles
            for tile in mapping.tiles_of_rank(ctx.rank()) {
                dev.consumer_tile_wait(&mapping, tile);
            }
            true
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn producer_notify_owner_reaches_remote_consumer() {
        // Rank 0 produces every tile and notifies the owner rank; each rank's
        // consumer waits only for its own channels.
        let mapping = StaticMapping::new(8, 2, 2, 1);
        let out = ProcessGroup::launch(2, |ctx| {
            let dev = handle(&ctx, &mapping, 0);
            ctx.alloc("tokens", 8);
            dev.barrier_all();
            if ctx.rank() == 0 {
                for tile in 0..mapping.num_tiles() {
                    dev.producer_tile_notify(&mapping, tile, NotifyScope::Owner);
                }
            }
            // every rank waits for the channels covering its own rows
            let my_rows = ctx.rank() * 4..(ctx.rank() + 1) * 4;
            dev.consumer_rows_wait(&mapping, my_rows);
            ctx.rank()
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn broadcast_notify_reaches_every_rank() {
        let mapping = StaticMapping::new(4, 4, 4, 1);
        let out = ProcessGroup::launch(4, |ctx| {
            let dev = handle(&ctx, &mapping, 0);
            dev.barrier_all();
            if ctx.rank() == 2 {
                dev.producer_tile_notify(&mapping, 0, NotifyScope::Broadcast);
            }
            dev.consumer_tile_wait(&mapping, 0);
            true
        });
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn peer_notify_wait_roundtrip() {
        let mapping = StaticMapping::new(4, 2, 2, 1);
        let out = ProcessGroup::launch(2, |ctx| {
            let dev = handle(&ctx, &mapping, 4);
            dev.barrier_all();
            let next = (ctx.rank() + 1) % 2;
            dev.peer_tile_notify(3, next);
            dev.peer_tile_wait(3, 1);
            true
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn rank_notify_and_wait() {
        let mapping = StaticMapping::new(2, 1, 2, 1);
        let out = ProcessGroup::launch(2, |ctx| {
            let dev = handle(&ctx, &mapping, 0);
            dev.barrier_all();
            let peer = (ctx.rank() + 1) % 2;
            dev.rank_notify(peer);
            dev.rank_wait(peer, 1);
            true
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn rank_segment_ready_unblocks_consumer_rows_wait() {
        let mapping = StaticMapping::new(128, 32, 2, 2);
        let out = ProcessGroup::launch(2, |ctx| {
            let dev = handle(&ctx, &mapping, 0);
            dev.barrier_all();
            // the "host" marks both segments ready without running producers
            for segment in 0..2 {
                dev.rank_segment_ready(&mapping, segment);
            }
            dev.consumer_rows_wait(&mapping, 0..128);
            true
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn tile_push_and_pull_move_real_data() {
        // Global tensor of 8 rows x 4 cols sharded 4 rows per rank. Rank 0
        // pushes its shard into everyone (broadcast); rank 1 pulls rank 0's
        // tiles explicitly.
        let mapping = StaticMapping::new(8, 2, 2, 2);
        let out = ProcessGroup::launch(2, |ctx| {
            let dev = handle(&ctx, &mapping, 0);
            // the gathered view lives on every rank
            ctx.alloc("gathered", 8 * 4);
            // the local shard
            let shard = ctx.alloc("shard", 4 * 4);
            for i in 0..16 {
                shard.store(i, (ctx.rank() * 100 + i) as f32);
            }
            dev.barrier_all();
            // every rank pushes its own tiles to every peer's gathered buffer
            for tile in mapping.tiles_of_rank(ctx.rank()) {
                let rows = mapping.rows_of(tile).unwrap();
                let local_rows = (rows.start - ctx.rank() * 4)..(rows.end - ctx.rank() * 4);
                let data = read_tile(&shard, 4, &TileRect::full_rows(local_rows, 4));
                dev.tile_push_data("gathered", &mapping, tile, 4, &data, PushTarget::Broadcast);
                dev.producer_tile_notify(&mapping, tile, NotifyScope::Broadcast);
            }
            dev.consumer_rows_wait(&mapping, 0..8);
            ctx.local("gathered").to_vec()
        });
        // both ranks observe rank 0's rows then rank 1's rows
        for gathered in out {
            assert_eq!(gathered[0], 0.0);
            assert_eq!(gathered[15], 15.0);
            assert_eq!(gathered[16], 100.0);
            assert_eq!(gathered[31], 115.0);
        }
    }

    #[test]
    fn pull_reads_from_owner() {
        let mapping = StaticMapping::new(8, 2, 2, 1);
        let out = ProcessGroup::launch(2, |ctx| {
            let dev = handle(&ctx, &mapping, 0);
            let shard = ctx.alloc("src", 4 * 3);
            for i in 0..12 {
                shard.store(i, (ctx.rank() * 1000 + i) as f32);
            }
            dev.barrier_all();
            // pull tile 2 (rows 4..6, owned by rank 1)
            dev.tile_pull_data("src", &mapping, 2, 3, 4)
        });
        assert_eq!(out[0], vec![1000.0, 1001.0, 1002.0, 1003.0, 1004.0, 1005.0]);
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn rank_copy_data_copies_between_ranks() {
        let mapping = StaticMapping::new(2, 1, 2, 1);
        let out = ProcessGroup::launch(2, |ctx| {
            let dev = handle(&ctx, &mapping, 0);
            let local = ctx.alloc("kv", 4);
            local.fill(ctx.rank() as f32 + 1.0);
            dev.barrier_all();
            if ctx.rank() == 0 {
                // copy rank 1's buffer into our second half? buffers are 4 wide;
                // copy 2 values from rank 1 into our offset 2.
                dev.rank_copy_data(1, "kv", 0, 0, "kv", 2, 2);
            }
            dev.barrier_all();
            ctx.local("kv").to_vec()
        });
        assert_eq!(out[0], vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(out[1], vec![2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn debug_output_mentions_kernel() {
        let mapping = StaticMapping::new(2, 1, 1, 1);
        let out = ProcessGroup::launch(1, |ctx| {
            let dev = handle(&ctx, &mapping, 0);
            format!("{dev:?}")
        });
        assert!(out[0].contains("test_kernel"));
    }
}

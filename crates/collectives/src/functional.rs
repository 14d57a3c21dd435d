//! Functional collectives: real data movement over symmetric memory.

use tilelink_shmem::RankContext;

/// A per-rank communicator, the moral equivalent of a NCCL communicator handle.
///
/// Every collective call allocates fresh symmetric buffers tagged with an
/// internal sequence number, so the *order* of collective calls must match
/// across ranks (the usual SPMD contract of NCCL / `torch.distributed`).
///
/// The functional collectives are used as the ground-truth reference for every
/// overlapped kernel in the repository: the paper's tensor-parallel layers are
/// expressible as `AllGather + GEMM` and `GEMM + ReduceScatter`
/// (Section 2.1), so "collective then compute" with this communicator defines
/// the values the fused TileLink kernels must reproduce.
pub struct Comm {
    ctx: RankContext,
    seq: u64,
}

impl Comm {
    /// Wraps a rank context into a communicator.
    pub fn new(ctx: RankContext) -> Self {
        Self { ctx, seq: 0 }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Number of ranks in the communicator.
    pub fn world_size(&self) -> usize {
        self.ctx.world_size()
    }

    /// Waits for every rank to reach this point.
    pub fn barrier(&self) {
        self.ctx.barrier();
    }

    fn next_tag(&mut self, op: &str) -> String {
        let tag = format!("__coll/{op}/{}", self.seq);
        self.seq += 1;
        tag
    }

    /// Gathers every rank's `local` slice and returns the concatenation in rank
    /// order (`[world_size * local.len()]`).
    ///
    /// Implemented in *pull* mode: every rank publishes its shard and then reads
    /// every peer's shard, which is the same data-flow as the paper's pull-mode
    /// AllGather producer (Figure 3b).
    ///
    /// # Panics
    ///
    /// Panics if ranks pass slices of different lengths.
    pub fn all_gather(&mut self, local: &[f32]) -> Vec<f32> {
        let tag = self.next_tag("ag");
        let mine = self.ctx.alloc(&tag, local.len());
        mine.write_slice(0, local);
        self.ctx.barrier();
        let mut out = Vec::with_capacity(local.len() * self.world_size());
        for r in 0..self.world_size() {
            let remote = self.ctx.remote(r, &tag);
            assert_eq!(
                remote.len(),
                local.len(),
                "all_gather requires equal shard lengths on every rank"
            );
            out.extend(remote.read_range(0, remote.len()));
        }
        self.ctx.barrier();
        out
    }

    /// Ring reduce-scatter: sums `local` element-wise across ranks and returns
    /// this rank's shard (`local.len() / world_size` values, shard `r` for rank
    /// `r`).
    ///
    /// Implemented as the classic `world_size - 1`-step ring with push-mode
    /// transfers and per-stage signals, the same communication pattern as the
    /// paper's GEMM + ReduceScatter kernel (Figure 4).
    ///
    /// # Panics
    ///
    /// Panics if `local.len()` is not divisible by the world size.
    pub fn reduce_scatter(&mut self, local: &[f32]) -> Vec<f32> {
        let world = self.world_size();
        assert_eq!(
            local.len() % world,
            0,
            "reduce_scatter input length {} is not divisible by world size {}",
            local.len(),
            world
        );
        let shard = local.len() / world;
        let tag = self.next_tag("rs");
        if world == 1 {
            return local.to_vec();
        }

        // Per-stage landing buffers and signals on every rank.
        for stage in 0..world - 1 {
            self.ctx.alloc(&format!("{tag}/stage{stage}"), shard);
        }
        let flags = self.ctx.alloc_signals(&format!("{tag}/flags"), world - 1);
        self.ctx.barrier();

        let rank = self.rank();
        let next = (rank + 1) % world;
        let chunk = |idx: usize| &local[idx * shard..(idx + 1) * shard];

        // The chunk this rank is currently accumulating/forwarding.
        let mut acc: Vec<f32> = Vec::new();
        for stage in 0..world - 1 {
            let send_idx = (rank + 2 * world - stage - 1) % world;
            let to_send: Vec<f32> = if stage == 0 {
                chunk(send_idx).to_vec()
            } else {
                acc.clone()
            };
            // Push the partial sum into the next rank's landing buffer for this stage.
            let landing = self.ctx.remote(next, &format!("{tag}/stage{stage}"));
            landing.write_slice(0, &to_send);
            self.ctx
                .remote_signals(next, &format!("{tag}/flags"))
                .set(stage, 1);

            // Receive this stage's chunk from the previous rank and fold in our
            // own contribution.
            let recv_idx = (rank + 2 * world - stage - 2) % world;
            flags.wait_ge(stage, 1);
            let received = self
                .ctx
                .local(&format!("{tag}/stage{stage}"))
                .read_range(0, shard);
            acc = received
                .iter()
                .zip(chunk(recv_idx))
                .map(|(a, b)| a + b)
                .collect();
        }
        self.ctx.barrier();
        acc
    }

    /// Element-wise sum of `local` across every rank (every rank receives the
    /// full result).
    ///
    /// # Panics
    ///
    /// Panics if ranks pass slices of different lengths.
    pub fn all_reduce(&mut self, local: &[f32]) -> Vec<f32> {
        let tag = self.next_tag("ar");
        let mine = self.ctx.alloc(&tag, local.len());
        mine.write_slice(0, local);
        self.ctx.barrier();
        let mut out = vec![0.0f32; local.len()];
        for r in 0..self.world_size() {
            let remote = self.ctx.remote(r, &tag);
            assert_eq!(
                remote.len(),
                local.len(),
                "all_reduce requires equal lengths"
            );
            for (o, v) in out.iter_mut().zip(remote.read_range(0, remote.len())) {
                *o += v;
            }
        }
        self.ctx.barrier();
        out
    }

    /// All-to-all: splits `local` into `world_size` equal chunks and returns the
    /// concatenation of chunk `rank` from every peer.
    ///
    /// # Panics
    ///
    /// Panics if `local.len()` is not divisible by the world size.
    pub fn all_to_all(&mut self, local: &[f32]) -> Vec<f32> {
        let world = self.world_size();
        assert_eq!(
            local.len() % world,
            0,
            "all_to_all input length {} is not divisible by world size {}",
            local.len(),
            world
        );
        let chunk = local.len() / world;
        let tag = self.next_tag("a2a");
        let mine = self.ctx.alloc(&tag, local.len());
        mine.write_slice(0, local);
        self.ctx.barrier();
        let mut out = Vec::with_capacity(local.len());
        for r in 0..world {
            let remote = self.ctx.remote(r, &tag);
            out.extend(remote.read_range(self.rank() * chunk, chunk));
        }
        self.ctx.barrier();
        out
    }

    /// Broadcast from `root`: every rank returns `root`'s `local` slice.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range or ranks pass slices of different lengths.
    pub fn broadcast(&mut self, local: &[f32], root: usize) -> Vec<f32> {
        assert!(root < self.world_size(), "broadcast root out of range");
        let tag = self.next_tag("bc");
        let mine = self.ctx.alloc(&tag, local.len());
        if self.rank() == root {
            mine.write_slice(0, local);
        }
        self.ctx.barrier();
        let remote = self.ctx.remote(root, &tag);
        assert_eq!(
            remote.len(),
            local.len(),
            "broadcast requires equal lengths"
        );
        let out = remote.read_range(0, remote.len());
        self.ctx.barrier();
        out
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank())
            .field("world_size", &self.world_size())
            .field("collectives_issued", &self.seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilelink_shmem::ProcessGroup;

    fn per_rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len).map(|i| (rank * 100 + i) as f32).collect()
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let out = ProcessGroup::launch(4, |ctx| {
            let mut comm = Comm::new(ctx);
            comm.all_gather(&per_rank_data(comm.rank(), 3))
        });
        let expected: Vec<f32> = (0..4).flat_map(|r| per_rank_data(r, 3)).collect();
        for o in out {
            assert_eq!(o, expected);
        }
    }

    #[test]
    fn reduce_scatter_returns_summed_shards() {
        let world = 4;
        let len = 8;
        let out = ProcessGroup::launch(world, |ctx| {
            let mut comm = Comm::new(ctx);
            comm.reduce_scatter(&per_rank_data(comm.rank(), len))
        });
        // expected full sum
        let mut full = vec![0.0f32; len];
        for r in 0..world {
            for (f, v) in full.iter_mut().zip(per_rank_data(r, len)) {
                *f += v;
            }
        }
        let shard = len / world;
        for (r, o) in out.iter().enumerate() {
            assert_eq!(
                o,
                &full[r * shard..(r + 1) * shard],
                "rank {r} shard mismatch"
            );
        }
    }

    #[test]
    fn reduce_scatter_single_rank_is_identity() {
        let out = ProcessGroup::launch(1, |ctx| {
            let mut comm = Comm::new(ctx);
            comm.reduce_scatter(&[1.0, 2.0])
        });
        assert_eq!(out[0], vec![1.0, 2.0]);
    }

    #[test]
    fn all_reduce_equals_reduce_scatter_plus_all_gather() {
        let world = 4;
        let len = 8;
        let out = ProcessGroup::launch(world, |ctx| {
            let mut comm = Comm::new(ctx);
            let data = per_rank_data(comm.rank(), len);
            let ar = comm.all_reduce(&data);
            let rs = comm.reduce_scatter(&data);
            let composed = comm.all_gather(&rs);
            (ar, composed)
        });
        for (ar, composed) in out {
            assert_eq!(ar, composed);
        }
    }

    #[test]
    fn all_to_all_is_a_transpose_of_chunks() {
        let world = 3;
        let out = ProcessGroup::launch(world, |ctx| {
            let mut comm = Comm::new(ctx);
            // chunk j of rank i is the single value i*10 + j
            let local: Vec<f32> = (0..world).map(|j| (comm.rank() * 10 + j) as f32).collect();
            comm.all_to_all(&local)
        });
        for (r, o) in out.iter().enumerate() {
            let expected: Vec<f32> = (0..world).map(|i| (i * 10 + r) as f32).collect();
            assert_eq!(o, &expected);
        }
    }

    #[test]
    fn broadcast_propagates_roots_data() {
        let out = ProcessGroup::launch(4, |ctx| {
            let mut comm = Comm::new(ctx);
            let local = per_rank_data(comm.rank(), 4);
            comm.broadcast(&local, 2)
        });
        for o in out {
            assert_eq!(o, per_rank_data(2, 4));
        }
    }

    #[test]
    fn repeated_collectives_do_not_interfere() {
        let out = ProcessGroup::launch(2, |ctx| {
            let mut comm = Comm::new(ctx);
            let a = comm.all_gather(&[comm.rank() as f32]);
            let b = comm.all_gather(&[10.0 + comm.rank() as f32]);
            (a, b)
        });
        for (a, b) in out {
            assert_eq!(a, vec![0.0, 1.0]);
            assert_eq!(b, vec![10.0, 11.0]);
        }
    }

    #[test]
    fn debug_reports_sequence() {
        let out = ProcessGroup::launch(1, |ctx| {
            let mut comm = Comm::new(ctx);
            let _ = comm.all_gather(&[1.0]);
            format!("{comm:?}")
        });
        assert!(out[0].contains("collectives_issued: 1"));
    }
}

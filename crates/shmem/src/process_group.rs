//! Thread-per-rank process groups and per-rank contexts.

use std::sync::{Arc, Barrier};

use crate::{Result, SharedBuffer, SignalSet, SymmetricRegistry};

/// Shared state of one process group.
struct GroupShared {
    world_size: usize,
    registry: SymmetricRegistry,
    barrier: Barrier,
}

/// A process group that runs one thread per rank.
///
/// The paper launches the generated kernel on every GPU of the node (Figure 7:
/// "Launch" across ranks 0–7 after NVSHMEM initialisation). `ProcessGroup`
/// reproduces that launch step with scoped threads: [`ProcessGroup::launch`]
/// spawns `world_size` threads, hands each a [`RankContext`], and joins them,
/// returning the per-rank results in rank order.
///
/// # Example
///
/// ```
/// use tilelink_shmem::ProcessGroup;
///
/// let sums = ProcessGroup::launch(4, |ctx| {
///     // every rank contributes its rank id to a naive all-reduce
///     let buf = ctx.alloc("contrib", 1);
///     buf.store(0, ctx.rank() as f32);
///     ctx.barrier();
///     (0..ctx.world_size())
///         .map(|r| ctx.remote(r, "contrib").load(0))
///         .sum::<f32>()
/// });
/// assert_eq!(sums, vec![6.0; 4]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessGroup {
    world_size: usize,
}

impl ProcessGroup {
    /// Creates a process-group descriptor for `world_size` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `world_size` is zero.
    pub fn new(world_size: usize) -> Self {
        assert!(world_size > 0, "world size must be positive");
        Self { world_size }
    }

    /// Number of ranks.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// Runs `body` once per rank on its own thread and returns the results in
    /// rank order.
    ///
    /// This is the moral equivalent of `torchrun`/`mpirun` plus NVSHMEM
    /// initialisation in the paper's runtime (Figure 7).
    ///
    /// # Panics
    ///
    /// Panics if any rank's closure panics; the panic is propagated.
    pub fn run<F, R>(&self, body: F) -> Vec<R>
    where
        F: Fn(RankContext) -> R + Send + Sync,
        R: Send,
    {
        let shared = Arc::new(GroupShared {
            world_size: self.world_size,
            registry: SymmetricRegistry::new(self.world_size),
            barrier: Barrier::new(self.world_size),
        });
        let body = &body;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.world_size)
                .map(|rank| {
                    let shared = shared.clone();
                    scope.spawn(move || {
                        let ctx = RankContext { rank, shared };
                        body(ctx)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }

    /// Convenience wrapper: `ProcessGroup::new(world_size).run(body)`.
    ///
    /// # Panics
    ///
    /// Panics if `world_size` is zero or if any rank's closure panics.
    pub fn launch<F, R>(world_size: usize, body: F) -> Vec<R>
    where
        F: Fn(RankContext) -> R + Send + Sync,
        R: Send,
    {
        Self::new(world_size).run(body)
    }
}

/// Everything one rank needs to talk to its peers.
///
/// A `RankContext` is handed to the per-rank closure by [`ProcessGroup::run`].
/// It exposes the rank id, the world size, symmetric allocation, remote lookups
/// and a global barrier.
#[derive(Clone)]
pub struct RankContext {
    rank: usize,
    shared: Arc<GroupShared>,
}

impl RankContext {
    /// This rank's id in `[0, world_size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn world_size(&self) -> usize {
        self.shared.world_size
    }

    /// Waits until every rank reaches this barrier.
    ///
    /// Equivalent to `nvshmem_barrier_all` / a NCCL stream synchronisation in
    /// the paper's runtime.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// Allocates (or re-opens) a local symmetric buffer named `name` of `len` values.
    ///
    /// # Panics
    ///
    /// Panics if the same name was registered with a different length; use
    /// [`RankContext::try_alloc`] for a fallible version.
    pub fn alloc(&self, name: &str, len: usize) -> SharedBuffer {
        self.try_alloc(name, len)
            .expect("symmetric buffer allocation failed")
    }

    /// Fallible version of [`RankContext::alloc`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::ShmemError::LengthMismatch`] when re-registering the
    /// same name with a different length.
    pub fn try_alloc(&self, name: &str, len: usize) -> Result<SharedBuffer> {
        self.shared.registry.alloc_buffer(self.rank, name, len)
    }

    /// Allocates (or re-opens) a local signal set named `name` with `len` slots.
    ///
    /// # Panics
    ///
    /// Panics if the same name was registered with a different length.
    pub fn alloc_signals(&self, name: &str, len: usize) -> SignalSet {
        self.shared
            .registry
            .alloc_signals(self.rank, name, len)
            .expect("symmetric signal allocation failed")
    }

    /// Returns this rank's buffer named `name`, blocking until it is allocated.
    ///
    /// # Panics
    ///
    /// Panics if the symbol resolves to a signal set.
    pub fn local(&self, name: &str) -> SharedBuffer {
        self.remote(self.rank, name)
    }

    /// Returns `rank`'s buffer named `name`, blocking until that rank allocates it.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or the symbol resolves to a signal set.
    pub fn remote(&self, rank: usize, name: &str) -> SharedBuffer {
        self.shared
            .registry
            .buffer(rank, name)
            .expect("remote symmetric buffer lookup failed")
    }

    /// Returns `rank`'s signal set named `name`, blocking until allocated.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or the symbol resolves to a buffer.
    pub fn remote_signals(&self, rank: usize, name: &str) -> SignalSet {
        self.shared
            .registry
            .signals(rank, name)
            .expect("remote symmetric signal lookup failed")
    }

    /// Direct access to the underlying registry (host-style access).
    pub fn registry(&self) -> &SymmetricRegistry {
        &self.shared.registry
    }
}

impl std::fmt::Debug for RankContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankContext")
            .field("rank", &self.rank)
            .field("world_size", &self.world_size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_returns_results_in_rank_order() {
        let out = ProcessGroup::launch(4, |ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "world size must be positive")]
    fn zero_world_size_panics() {
        let _ = ProcessGroup::new(0);
    }

    #[test]
    fn world_size_is_visible_to_every_rank() {
        let out = ProcessGroup::launch(3, |ctx| ctx.world_size());
        assert_eq!(out, vec![3, 3, 3]);
    }

    #[test]
    fn ranks_exchange_data_through_symmetric_buffers() {
        let out = ProcessGroup::launch(4, |ctx| {
            let mine = ctx.alloc("slot", 2);
            mine.write_slice(0, &[ctx.rank() as f32, 100.0 + ctx.rank() as f32]);
            ctx.barrier();
            let next = (ctx.rank() + 1) % ctx.world_size();
            ctx.remote(next, "slot").read_range(0, 2)
        });
        assert_eq!(out[0], vec![1.0, 101.0]);
        assert_eq!(out[3], vec![0.0, 100.0]);
    }

    #[test]
    fn signal_handshake_between_ranks() {
        // rank 0 produces a value and notifies, rank 1 waits and reads it.
        let out = ProcessGroup::launch(2, |ctx| {
            let data = ctx.alloc("data", 1);
            let flags = ctx.alloc_signals("flags", 1);
            ctx.barrier();
            if ctx.rank() == 0 {
                let peer = ctx.remote(1, "data");
                peer.store(0, 3.25);
                ctx.remote_signals(1, "flags").set(0, 1);
                0.0
            } else {
                flags.wait_ge(0, 1);
                data.load(0)
            }
        });
        assert_eq!(out[1], 3.25);
    }

    #[test]
    fn barrier_orders_phases() {
        let out = ProcessGroup::launch(4, |ctx| {
            let b = ctx.alloc("phase", 1);
            b.store(0, 1.0);
            ctx.barrier();
            // After the barrier every rank must see every peer's phase-1 store.
            let sum: f32 = (0..ctx.world_size())
                .map(|r| ctx.remote(r, "phase").load(0))
                .sum();
            sum
        });
        assert_eq!(out, vec![4.0; 4]);
    }

    #[test]
    fn reuse_of_group_descriptor() {
        let pg = ProcessGroup::new(2);
        assert_eq!(pg.world_size(), 2);
        let a = pg.run(|ctx| ctx.rank());
        let b = pg.run(|ctx| ctx.rank() + 5);
        assert_eq!(a, vec![0, 1]);
        assert_eq!(b, vec![5, 6]);
    }

    #[test]
    fn debug_impls_are_nonempty() {
        assert!(!format!("{:?}", ProcessGroup::new(1)).is_empty());
        let dbg = ProcessGroup::launch(1, |ctx| format!("{ctx:?}"));
        assert!(dbg[0].contains("RankContext"));
    }
}

//! Timed execution: compiled kernels → simulator task graphs.
//!
//! The timed executor walks every lowered block and emits tasks for the
//! cluster simulator:
//!
//! * consecutive compute/load/store operations between synchronisation points
//!   become one SM task (a "segment");
//! * `tile_push_data` / `tile_pull_data` become link transfers on the lane the
//!   resource pass chose (SM-driven port copies or the DMA copy engine);
//! * notify/wait pairs become dependency edges keyed by `(rank, channel)` —
//!   this is where the overlap comes from: a consumer segment starts as soon as
//!   *its* channels are complete, not when the whole communication finishes.
//!
//! A kernel is priced one of two ways:
//!
//! * [`simulate_report`] simulates the full graph plus the
//!   communication-only and computation-only graphs behind the paper's
//!   overlap ratio (Section 7.2) — the exact [`OverlapReport`] of figures
//!   and baselines ([`super::MakespanMemo::report`] pairs the same two
//!   isolated runs with a memoised overlapped makespan);
//! * [`simulate_makespan`] builds and simulates the full graph only, under an
//!   abort cutoff — the price of every candidate a search ranks, which reads
//!   nothing but the overlapped makespan.
//!
//! [`task_graph`] returns the labelled full graph; [`Engine::run`] over it
//! records the overlapped run's trace (what `reproduce --trace-out` exports).
//!
//! Each graph is built by one walk over its subset's blocks. Graph
//! construction is the tuner's per-candidate hot path, so every build reuses
//! one thread-local scratch graph: the task graph (with warm per-task
//! successor vectors), the notifier map (a pooled linked-list multimap keyed
//! by packed sync keys with a fast hasher) and the wait/launch lists all keep
//! their allocations across builds. The two pricing paths additionally skip
//! task *labels* entirely — the scheduler never reads names, and formatting
//! thousands of them per candidate dominated graph-build time. [`task_graph`]
//! keeps real labels.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use tilelink_sim::{
    BoundedMakespan, ClusterSpec, Engine, GpuSpec, ResourceKind, SharedCost, TaskGraph, TaskId,
    TaskLabel, Work,
};

use crate::compile::CompiledKernel;
use crate::ir::{BlockRole, TileOp};
use crate::passes::{LoweredBlockRef, TransferLane};
use crate::report::OverlapReport;
use crate::Result;

/// Which subset of the kernel to materialise in a task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subset {
    All,
    CommOnly,
    ComputeOnly,
}

impl Subset {
    /// Whether blocks of `role` belong to this subset's graph.
    fn includes(self, role: BlockRole) -> bool {
        match self {
            Subset::All => true,
            Subset::CommOnly => matches!(role, BlockRole::Producer | BlockRole::Host),
            Subset::ComputeOnly => matches!(role, BlockRole::Consumer),
        }
    }
}
/// Synchronisation key connecting notifies to waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SyncKey {
    /// Producer→consumer channel on a rank.
    Channel { rank: usize, channel: usize },
    /// Peer tile slot on a rank.
    Peer { rank: usize, slot: usize },
}

impl SyncKey {
    /// Packs the key into one word for the fast-hashed notifier map
    /// (rank < 2^30 and channel/slot < 2^33 in every realistic program).
    fn packed(self) -> u64 {
        match self {
            SyncKey::Channel { rank, channel } => ((rank as u64) << 34) | ((channel as u64) << 1),
            SyncKey::Peer { rank, slot } => ((rank as u64) << 34) | ((slot as u64) << 1) | 1,
        }
    }
}

/// A multiply-xor hasher for pre-packed `u64` keys — the std SipHash is
/// measurable overhead at two lookups per lowered op.
#[derive(Default)]
struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

const NO_NODE: u32 = u32::MAX;

/// `SyncKey → [TaskId]` multimap with per-key insertion order, backed by one
/// pooled node vector so clearing it between builds frees nothing.
#[derive(Default)]
struct NotifierMap {
    /// key → (head, tail) indices into `pool`.
    heads: HashMap<u64, (u32, u32), BuildHasherDefault<PackedKeyHasher>>,
    /// Linked-list nodes: (notifier, next index or `NO_NODE`).
    pool: Vec<(TaskId, u32)>,
}

impl NotifierMap {
    fn clear(&mut self) {
        self.heads.clear();
        self.pool.clear();
    }

    fn push(&mut self, key: SyncKey, task: TaskId) {
        let node = u32::try_from(self.pool.len()).expect("notifier pool overflow");
        self.pool.push((task, NO_NODE));
        match self.heads.entry(key.packed()) {
            Entry::Occupied(mut e) => {
                let tail = e.get().1;
                self.pool[tail as usize].1 = node;
                e.get_mut().1 = node;
            }
            Entry::Vacant(v) => {
                v.insert((node, node));
            }
        }
    }

    /// Iterates the notifiers of `key` in insertion order (the order the old
    /// per-key `Vec` preserved — edge order feeds the scheduler's same-time
    /// FIFO tie-break, so it must not change).
    fn iter(&self, key: SyncKey) -> impl Iterator<Item = TaskId> + '_ {
        let mut cur = self
            .heads
            .get(&key.packed())
            .map_or(NO_NODE, |&(head, _)| head);
        std::iter::from_fn(move || {
            if cur == NO_NODE {
                return None;
            }
            let (task, next) = self.pool[cur as usize];
            cur = next;
            Some(task)
        })
    }
}

/// Reusable per-thread graph-construction state: one task graph plus the
/// synchronisation state needed to resolve its notify -> wait edges.
#[derive(Default)]
struct GraphScratch {
    graph: TaskGraph,
    notifiers: NotifierMap,
    /// (waiting task, key) pairs to resolve once every block is added.
    waits: Vec<(TaskId, SyncKey)>,
    /// Each rank's kernel-launch task.
    launch: Vec<TaskId>,
    used: bool,
}

thread_local! {
    static GRAPH_SCRATCH: RefCell<GraphScratch> = RefCell::new(GraphScratch::default());
}

/// Runs `f` with this thread's warm graph scratch (or a cold private one when
/// the thread-local is already borrowed by a re-entrant build).
fn with_graph_scratch<R>(f: impl FnOnce(&mut GraphScratch) -> R) -> R {
    GRAPH_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            if scratch.used {
                tilelink_probe::metrics::GRAPH_SCRATCH_REUSES.inc();
            } else {
                tilelink_probe::metrics::GRAPH_SCRATCH_COLD.inc();
                scratch.used = true;
            }
            f(&mut scratch)
        }
        Err(_) => {
            tilelink_probe::metrics::GRAPH_SCRATCH_COLD.inc();
            f(&mut GraphScratch::default())
        }
    })
}

#[derive(Default)]
struct SegmentState {
    matmul_flops: f64,
    hbm_bytes: f64,
}

impl SegmentState {
    fn is_empty(&self) -> bool {
        self.matmul_flops == 0.0 && self.hbm_bytes == 0.0
    }
}

struct GraphBuilder<'a> {
    kernel: &'a CompiledKernel,
    cluster: &'a ClusterSpec,
    scratch: &'a mut GraphScratch,
    /// Real task labels (trace path) vs no labels (pricing paths).
    labels: bool,
    /// Compute/load/store work accumulated since the block's last task.
    segment: SegmentState,
    /// The block's last task, which its next task depends on.
    prev: Option<TaskId>,
    /// Whether a task of the block has been chained yet (a host copy launch
    /// is a task but is not chained).
    chained: bool,
    /// Sync keys the block's next task waits on.
    pending_waits: Vec<SyncKey>,
    /// Per-block task counter (labels only).
    seq: usize,
}

impl<'a> GraphBuilder<'a> {
    /// Resets `scratch` and seeds it with one launch task per rank.
    fn new(
        kernel: &'a CompiledKernel,
        cluster: &'a ClusterSpec,
        scratch: &'a mut GraphScratch,
        labels: bool,
    ) -> Self {
        scratch.graph.reset();
        scratch.notifiers.clear();
        scratch.waits.clear();
        scratch.launch.clear();
        let builder = Self {
            kernel,
            cluster,
            scratch,
            labels,
            segment: SegmentState::default(),
            prev: None,
            chained: false,
            pending_waits: Vec::new(),
            seq: 0,
        };
        let launch_s = cluster.gpu.kernel_launch_s();
        for r in 0..kernel.world_size {
            let label = builder.label(|| format!("{}/launch/r{r}", kernel.name));
            let id = builder.scratch.graph.add_host_latency(label, r, launch_s);
            builder.scratch.launch.push(id);
        }
        builder
    }

    fn label(&self, f: impl FnOnce() -> String) -> TaskLabel {
        if self.labels {
            TaskLabel::from(f())
        } else {
            TaskLabel::Unlabeled
        }
    }

    fn compute_units(&self, role: BlockRole) -> u64 {
        match role {
            BlockRole::Consumer => self.kernel.plan.sms_per_compute_block,
            // Communication blocks (reductions and epilogues of the comm side)
            // share the SMs the resource plan reserved for communication.
            _ => self.kernel.sms_per_comm_block,
        }
    }

    /// Orders `task` after its rank's launch and the block's previous task,
    /// hands it the block's pending waits, and makes it the previous task.
    ///
    /// Only the block's first chained task gets the launch edge: every later
    /// one follows the launch through its predecessor, and the launch never
    /// finishes last among a task's predecessors, so the edge would change
    /// no ready order.
    fn chain(&mut self, rank: usize, task: TaskId) {
        let scratch = &mut *self.scratch;
        if !self.chained {
            scratch.graph.add_dep(scratch.launch[rank], task);
            self.chained = true;
        }
        if let Some(p) = self.prev {
            scratch.graph.add_dep(p, task);
        }
        scratch
            .waits
            .extend(self.pending_waits.drain(..).map(|key| (task, key)));
        self.prev = Some(task);
    }

    /// The task a notify issued now signals from: the block's last task, or
    /// its rank's launch when the block has none yet.
    fn notifier(&self, rank: usize) -> TaskId {
        self.prev.unwrap_or(self.scratch.launch[rank])
    }

    /// Emits the accumulated segment (or a bare wait point) as one SM task.
    fn flush_segment(&mut self, block: &LoweredBlockRef<'_>) {
        if self.segment.is_empty() && self.pending_waits.is_empty() {
            return;
        }
        let label = self.label(|| {
            if block.role == BlockRole::Consumer {
                format!("compute_{}/{}", block.name, self.seq)
            } else {
                format!("comm_{}/{}", block.name, self.seq)
            }
        });
        self.seq += 1;
        let work = if self.segment.matmul_flops > 0.0 {
            Work::MatmulFlops {
                flops: self.segment.matmul_flops,
                efficiency: self.kernel.plan.compute_efficiency,
            }
        } else {
            Work::HbmBytes {
                bytes: self.segment.hbm_bytes.max(1.0),
            }
        };
        let units = self.compute_units(block.role);
        let task = self
            .scratch
            .graph
            .add_task(label, block.rank, ResourceKind::Sm, units, work);
        self.chain(block.rank, task);
        self.segment = SegmentState::default();
    }

    /// Emits one `kind` transfer of `bytes` from `src_rank` to `dst_rank` on
    /// the plan's lane, preceded by a host launch when it is host-driven.
    fn add_transfer(
        &mut self,
        block: &LoweredBlockRef<'_>,
        kind: &str,
        bytes: f64,
        src_rank: usize,
        dst_rank: usize,
        host_driven: bool,
    ) {
        let label = self.label(|| format!("comm_{kind}_{}/{}", block.name, self.seq));
        self.seq += 1;
        let lane = self.kernel.plan.lane;
        // Only genuinely host-driven copies (cudaMemcpyPeerAsync from the
        // CPU, Figure 6) pay a launch per transfer; device-initiated puts
        // on the copy engine do not.
        if matches!(lane, TransferLane::CopyEngine)
            && self.kernel.plan.host_launch_per_copy
            && host_driven
        {
            let launch_label = self.label(|| format!("{}/copy_launch", block.name));
            let launch_s = self.cluster.gpu.kernel_launch_s();
            let launch = self
                .scratch
                .graph
                .add_host_latency(launch_label, block.rank, launch_s);
            if let Some(p) = self.prev {
                self.scratch.graph.add_dep(p, launch);
            }
            self.prev = Some(launch);
        }
        let (resource, units) = match lane {
            TransferLane::SmPort { port_share } => (
                ResourceKind::LinkOut,
                port_share.min(GpuSpec::LINK_PORT_SHARES),
            ),
            TransferLane::CopyEngine => (ResourceKind::DmaEngine, 1),
        };
        let task = self.scratch.graph.add_task(
            label,
            src_rank,
            resource,
            units,
            Work::LinkBytes { bytes, dst_rank },
        );
        self.chain(block.rank, task);
    }

    /// Adds `block`'s tasks and records its notifies and waits.
    fn add_block(&mut self, block: &LoweredBlockRef<'_>) {
        self.segment = SegmentState::default();
        self.prev = None;
        self.chained = false;
        self.pending_waits.clear();
        self.seq = 0;
        let world_size = self.kernel.world_size;

        for lop in block.ops {
            match &lop.op {
                TileOp::Compute(kind) => {
                    if kind.is_matmul_like() {
                        self.segment.matmul_flops += kind.flops();
                    } else {
                        self.segment.hbm_bytes += kind.hbm_bytes();
                    }
                }
                TileOp::LoadTile { bytes, .. } | TileOp::StoreTile { bytes, .. } => {
                    self.segment.hbm_bytes += bytes;
                }
                TileOp::ConsumerWait { .. } => {
                    self.flush_segment(block);
                    if let Some(channel) = lop.channel {
                        self.pending_waits.push(SyncKey::Channel {
                            rank: block.rank,
                            channel: channel as usize,
                        });
                    }
                }
                TileOp::PeerWait { slot, .. } => {
                    self.flush_segment(block);
                    self.pending_waits.push(SyncKey::Peer {
                        rank: block.rank,
                        slot: *slot,
                    });
                }
                TileOp::ProducerNotify { .. } => {
                    self.flush_segment(block);
                    if let Some(channel) = lop.channel {
                        let channel = channel as usize;
                        let notifier = self.notifier(block.rank);
                        for dst in lop.targets.iter(world_size) {
                            self.scratch
                                .notifiers
                                .push(SyncKey::Channel { rank: dst, channel }, notifier);
                        }
                    }
                }
                TileOp::PeerNotify { slot, dst_rank } => {
                    self.flush_segment(block);
                    let notifier = self.notifier(block.rank);
                    self.scratch.notifiers.push(
                        SyncKey::Peer {
                            rank: *dst_rank,
                            slot: *slot,
                        },
                        notifier,
                    );
                }
                TileOp::RankNotifySegment { .. } => {
                    // Host-side release: the dependency is carried by the copy
                    // task that precedes it; nothing to add for timing.
                    self.flush_segment(block);
                }
                TileOp::PushTile { bytes, .. } => {
                    self.flush_segment(block);
                    for dst in lop.targets.iter(world_size) {
                        if dst == block.rank {
                            // local copy: charge HBM instead of the link
                            self.segment.hbm_bytes += bytes;
                            continue;
                        }
                        self.add_transfer(block, "push", *bytes, block.rank, dst, false);
                    }
                }
                TileOp::PullTile { bytes, .. } => {
                    self.flush_segment(block);
                    let src = lop.targets.first().unwrap_or(block.rank);
                    if src == block.rank {
                        self.segment.hbm_bytes += bytes;
                    } else {
                        self.add_transfer(block, "pull", *bytes, src, block.rank, false);
                    }
                }
                TileOp::HostCopy { bytes, src_rank } => {
                    self.flush_segment(block);
                    self.add_transfer(block, "copy", *bytes, *src_rank, block.rank, true);
                }
            }
        }
        self.flush_segment(block);
    }

    /// Finalises the `subset` graph: appends the comm-SM reservation tasks
    /// (where the subset carries communication) and resolves the wait ->
    /// notifier edges.
    fn finish(self, subset: Subset) {
        let kernel = self.kernel;
        // Reserve the communication SMs for the duration of the data movement
        // (they are unavailable to compute blocks even while idle).
        if subset != Subset::ComputeOnly
            && matches!(kernel.plan.lane, TransferLane::SmPort { .. })
            && kernel.plan.comm_sms > 0
        {
            // Per-rank transfer bytes are precomputed at kernel assembly
            // (invariant under pipelining).
            for (rank, &bytes) in kernel.rank_comm_bytes.iter().enumerate() {
                if bytes > 0.0 {
                    let est = bytes / self.cluster.gpu.nvlink_bytes_per_s();
                    let label =
                        self.label(|| format!("{}/comm_sm_reservation/r{rank}", kernel.name));
                    let t = self.scratch.graph.add_task(
                        label,
                        rank,
                        ResourceKind::Sm,
                        kernel.plan.comm_sms,
                        Work::Latency { seconds: est },
                    );
                    self.scratch.graph.add_dep(self.scratch.launch[rank], t);
                }
            }
        }
        // Resolve wait → notifier edges.
        let scratch = self.scratch;
        for &(task, key) in &scratch.waits {
            for n in scratch.notifiers.iter(key) {
                if n != task {
                    scratch.graph.add_dep(n, task);
                }
            }
        }
    }
}

/// Builds the `subset` graph of `kernel` into `scratch` in one walk over the
/// subset's blocks.
fn build_graph_into(
    scratch: &mut GraphScratch,
    kernel: &CompiledKernel,
    cluster: &ClusterSpec,
    subset: Subset,
    labels: bool,
) {
    let _span = tilelink_probe::span("graph.build");
    let mut builder = GraphBuilder::new(kernel, cluster, scratch, labels);
    for block in kernel.lowered.iter_blocks() {
        if subset.includes(block.role) {
            builder.add_block(&block);
        }
    }
    builder.finish(subset);
}

/// Builds the `subset` graph of `kernel` without task labels and simulates it
/// under `cutoff`: the one simulation behind every pricing path.
fn simulate_subset(
    kernel: &CompiledKernel,
    cost: &SharedCost,
    subset: Subset,
    cutoff: f64,
) -> Result<BoundedMakespan> {
    let engine = Engine::with_cost(cost.clone());
    with_graph_scratch(|scratch| {
        build_graph_into(scratch, kernel, cost.cluster(), subset, false);
        let _span = tilelink_probe::span("simulate");
        Ok(engine.makespan(&scratch.graph, cutoff)?)
    })
}

/// The communication-only and computation-only makespans of `kernel`: the
/// two isolated runs behind the overlap ratio (Section 7.2), each simulated
/// to completion. [`simulate_report`] and [`super::MakespanMemo::report`]
/// pair them with the overlapped makespan.
pub(super) fn simulate_split(kernel: &CompiledKernel, cost: &SharedCost) -> Result<(f64, f64)> {
    let comm = simulate_subset(kernel, cost, Subset::CommOnly, f64::INFINITY)?;
    let comp = simulate_subset(kernel, cost, Subset::ComputeOnly, f64::INFINITY)?;
    Ok((comm.clock(), comp.clock()))
}

/// Exact report-only simulation: the three makespans an [`OverlapReport`]
/// needs, without constructing any trace.
///
/// Builds the full, comm-only and compute-only graphs one after another
/// without task labels (the scheduler never reads names, and the empty shared
/// label spares thousands of `format!` calls per kernel) and simulates each
/// to completion. Its `total_s` is the finished [`simulate_makespan`] of the
/// same kernel, and bit-identical to the makespan [`Engine::run`] records
/// over [`task_graph`] (one shared scheduler underneath).
///
/// # Errors
///
/// Returns an error if the generated task graph is invalid (which indicates a
/// compiler bug, e.g. a dependency cycle between blocks).
pub fn simulate_report(kernel: &CompiledKernel, cost: &SharedCost) -> Result<OverlapReport> {
    let total = simulate_makespan(kernel, cost, f64::INFINITY)?.clock();
    let (comm, comp) = simulate_split(kernel, cost)?;
    Ok(OverlapReport::new(total, comm, comp))
}

/// Makespan-only simulation under an abort cutoff: the price of a candidate
/// kernel that a search only ranks.
///
/// Builds the full graph alone, without task labels, and runs one
/// [`Engine::makespan`] with `cutoff`. [`BoundedMakespan::Finished`] carries
/// the overlapped makespan, bit-identical to [`simulate_report`]'s `total_s`
/// (`f64::INFINITY` always finishes); [`BoundedMakespan::Exceeded`] carries a
/// certified lower bound on it once the simulated clock provably passes
/// `cutoff`, and the rest of the schedule is skipped.
///
/// # Errors
///
/// Returns an error if the generated task graph is invalid (which indicates a
/// compiler bug, e.g. a dependency cycle between blocks).
pub fn simulate_makespan(
    kernel: &CompiledKernel,
    cost: &SharedCost,
    cutoff: f64,
) -> Result<BoundedMakespan> {
    simulate_subset(kernel, cost, Subset::All, cutoff)
}

/// The full task graph (all block roles) a compiled kernel simulates as,
/// with real task labels.
///
/// Callers that inspect a kernel's trace run it with [`Engine::run`] (as
/// `tilelink-bench`'s `reproduce --trace-out` does); figure reproduction and
/// tuning price kernels through [`simulate_report`] / [`simulate_makespan`]
/// instead.
pub fn task_graph(kernel: &CompiledKernel, cluster: &ClusterSpec) -> TaskGraph {
    with_graph_scratch(|scratch| {
        build_graph_into(scratch, kernel, cluster, Subset::All, true);
        scratch.graph.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CacheSite, Compiler};
    use crate::config::{CommMapping, OverlapConfig};
    use crate::ir::{BlockDesc, ComputeKind, TileProgram};
    use crate::mapping::StaticMapping;
    use crate::primitives::{NotifyScope, PushTarget};
    use tilelink_sim::{analytic_cost, Trace};

    /// A pull-mode AllGather + GEMM over `tiles` tiles of `rows x cols` values.
    fn ag_gemm_program(world: usize, tiles: usize, tile_bytes: f64, gemm_k: usize) -> TileProgram {
        let mut p = TileProgram::new("ag_gemm", world);
        for rank in 0..world {
            let mut comm = BlockDesc::new(format!("ag/r{rank}"), rank, BlockRole::Producer);
            for t in 0..tiles {
                // pull every remote tile into the local gathered buffer
                comm = comm
                    .op(TileOp::PullTile {
                        buffer: "tokens".into(),
                        bytes: tile_bytes,
                        tile: t,
                    })
                    .op(TileOp::StoreTile {
                        buffer: "gathered".into(),
                        bytes: tile_bytes,
                        tile: Some(t),
                    })
                    .op(TileOp::ProducerNotify {
                        tile: t,
                        scope: NotifyScope::Local,
                    });
            }
            p.add_block(comm);
            let mut gemm = BlockDesc::new(format!("gemm/r{rank}"), rank, BlockRole::Consumer);
            for t in 0..tiles {
                gemm = gemm
                    .op(TileOp::ConsumerWait { tile: t })
                    .op(TileOp::LoadTile {
                        buffer: "gathered".into(),
                        bytes: tile_bytes,
                        tile: Some(t),
                    })
                    .op(TileOp::Compute(ComputeKind::MatmulTile {
                        m: 128,
                        n: 128,
                        k: gemm_k,
                    }));
            }
            p.add_block(gemm);
        }
        p
    }

    fn compile(program: &TileProgram, config: OverlapConfig) -> CompiledKernel {
        let mapping = StaticMapping::new(128 * 8, 128, 8, 4);
        Compiler::new(config, &analytic_cost(&ClusterSpec::h800_node(8)))
            .compile(CacheSite::new("test.timed", []), program, &mapping)
            .unwrap()
    }

    /// The overlapped run's trace, recorded the way `reproduce --trace-out`
    /// records it: [`Engine::run`] over the labelled [`task_graph`].
    fn trace(kernel: &CompiledKernel, cost: &SharedCost) -> Trace {
        Engine::with_cost(cost.clone())
            .run(&task_graph(kernel, cost.cluster()))
            .unwrap()
    }

    /// The report priced the traced way: [`Engine::run`] over the labelled
    /// graph of each subset.
    fn traced_report(kernel: &CompiledKernel, cost: &SharedCost) -> OverlapReport {
        let engine = Engine::with_cost(cost.clone());
        let [full, comm, comp] = [Subset::All, Subset::CommOnly, Subset::ComputeOnly].map(|s| {
            let mut scratch = GraphScratch::default();
            build_graph_into(&mut scratch, kernel, cost.cluster(), s, true);
            engine.run(&scratch.graph).unwrap().makespan()
        });
        OverlapReport::new(full, comm, comp)
    }

    #[test]
    fn overlapped_time_is_less_than_serial_sum() {
        let program = ag_gemm_program(8, 8, 4.0e6, 4096);
        let kernel = compile(&program, OverlapConfig::default());
        let cost = analytic_cost(&ClusterSpec::h800_node(8));
        let report = simulate_report(&kernel, &cost).unwrap();
        assert!(report.total_s > 0.0);
        assert!(trace(&kernel, &cost).makespan() > 0.0);
        // Overlap: the fused kernel is faster than comm + compute run back to back,
        // and no faster than the slower of the two.
        let serial = report.comm_only_s + report.comp_only_s;
        assert!(report.total_s < serial, "no overlap achieved: {report}");
        assert!(report.total_s >= report.comp_only_s * 0.99);
        assert!(report.overlap_ratio() > 0.0);
    }

    #[test]
    fn report_only_path_is_bit_identical_to_the_trace_path() {
        let program = ag_gemm_program(4, 4, 4.0e6, 2048);
        let cluster = ClusterSpec::h800_node(4);
        for cost in [
            analytic_cost(&cluster),
            std::sync::Arc::new(tilelink_sim::CalibratedCostModel::h800_defaults(
                cluster.clone(),
            )) as tilelink_sim::SharedCost,
        ] {
            for cfg in [
                OverlapConfig::default(),
                OverlapConfig::default().with_comm_mapping(CommMapping::CopyEngine),
            ] {
                let kernel = compile(&program, cfg);
                let traced = traced_report(&kernel, &cost);
                let fast = simulate_report(&kernel, &cost).unwrap();
                assert_eq!(fast, traced, "fast path must not change any figure");
                let finished = BoundedMakespan::Finished(traced.total_s);
                assert_eq!(
                    simulate_makespan(&kernel, &cost, f64::INFINITY).unwrap(),
                    finished
                );
                // A cutoff at the exact makespan is not exceeded (strict
                // `>`), one just below it is.
                assert_eq!(
                    simulate_makespan(&kernel, &cost, traced.total_s).unwrap(),
                    finished
                );
                assert!(matches!(
                    simulate_makespan(&kernel, &cost, traced.total_s * 0.5).unwrap(),
                    BoundedMakespan::Exceeded(clock) if clock > traced.total_s * 0.5
                ));
            }
        }
    }

    #[test]
    fn task_graph_matches_the_simulated_graph() {
        let program = ag_gemm_program(4, 4, 4.0e6, 1024);
        let kernel = compile(&program, OverlapConfig::default());
        let cluster = ClusterSpec::h800_node(4);
        let graph = task_graph(&kernel, &cluster);
        assert!(!graph.is_empty());
        let makespan = tilelink_sim::Engine::new(cluster.clone())
            .makespan(&graph, f64::INFINITY)
            .unwrap()
            .clock();
        let report = simulate_report(&kernel, &analytic_cost(&cluster)).unwrap();
        assert_eq!(makespan.to_bits(), report.total_s.to_bits());
    }

    #[test]
    fn calibrated_provider_prices_communication_higher() {
        let program = ag_gemm_program(4, 4, 4.0e6, 1024);
        let kernel = compile(&program, OverlapConfig::default());
        let cluster = ClusterSpec::h800_node(4);
        let calibrated: tilelink_sim::SharedCost = std::sync::Arc::new(
            tilelink_sim::CalibratedCostModel::h800_defaults(cluster.clone()),
        );
        let analytic = simulate_report(&kernel, &analytic_cost(&cluster)).unwrap();
        let measured = simulate_report(&kernel, &calibrated).unwrap();
        // The H800 table never credits a transfer with more than 95% of peak,
        // so the comm-only phase must be strictly slower than pure-bandwidth.
        assert!(measured.comm_only_s > analytic.comm_only_s);
        // Compute-only work is priced by the shared analytic base.
        assert!((measured.comp_only_s - analytic.comp_only_s).abs() < 1e-12);
    }

    #[test]
    fn push_and_pull_transfers_occupy_links() {
        let program = ag_gemm_program(4, 4, 8.0e6, 1024);
        let kernel = compile(&program, OverlapConfig::default());
        let cluster = ClusterSpec::h800_node(4);
        let trace = trace(&kernel, &analytic_cost(&cluster));
        let link_tasks = trace
            .entries()
            .iter()
            .filter(|e| e.resource == ResourceKind::LinkOut)
            .count();
        assert!(link_tasks > 0, "expected link transfers in the trace");
    }

    #[test]
    fn copy_engine_lane_uses_dma_and_host_launches() {
        let program = ag_gemm_program(4, 4, 8.0e6, 1024);
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::CopyEngine);
        let kernel = compile(&program, cfg);
        let cluster = ClusterSpec::h800_node(4);
        let trace = trace(&kernel, &analytic_cost(&cluster));
        assert!(trace
            .entries()
            .iter()
            .any(|e| e.resource == ResourceKind::DmaEngine));
        // Device-initiated pulls on the copy engine do not pay a per-copy host
        // launch; only host-driven `rank_copy_data` (HostCopy) does.
        assert!(!trace
            .entries()
            .iter()
            .any(|e| e.name.contains("copy_launch")));
    }

    #[test]
    fn producer_consumer_edges_order_the_trace() {
        // With a single huge tile, the consumer segment cannot start before the
        // producer notify.
        let mut p = TileProgram::new("ordered", 1);
        p.add_block(
            BlockDesc::new("prod", 0, BlockRole::Producer)
                .op(TileOp::StoreTile {
                    buffer: "out".into(),
                    bytes: 1e6,
                    tile: Some(0),
                })
                .op(TileOp::ProducerNotify {
                    tile: 0,
                    scope: NotifyScope::Local,
                }),
        );
        p.add_block(
            BlockDesc::new("cons", 0, BlockRole::Consumer)
                .op(TileOp::ConsumerWait { tile: 0 })
                .op(TileOp::Compute(ComputeKind::MatmulTile {
                    m: 64,
                    n: 64,
                    k: 64,
                })),
        );
        let mapping = StaticMapping::new(64, 64, 1, 1);
        let cost = analytic_cost(&ClusterSpec::h800_node(1));
        let kernel = Compiler::new(OverlapConfig::default(), &cost)
            .compile(CacheSite::new("test.timed", []), &p, &mapping)
            .unwrap();
        let trace = trace(&kernel, &cost);
        let producer_end = trace
            .entries()
            .iter()
            .filter(|e| e.name.contains("comm_prod"))
            .map(|e| e.end)
            .fold(0.0, f64::max);
        let consumer_start = trace
            .entries()
            .iter()
            .filter(|e| e.name.contains("compute_cons"))
            .map(|e| e.start)
            .fold(f64::INFINITY, f64::min);
        assert!(consumer_start >= producer_end);
    }

    #[test]
    fn more_comm_sms_slow_down_compute_only_marginally() {
        let program = ag_gemm_program(8, 8, 2.0e6, 2048);
        let few = compile(
            &program,
            OverlapConfig::default().with_comm_mapping(CommMapping::Sm { sms: 8 }),
        );
        let many = compile(
            &program,
            OverlapConfig::default().with_comm_mapping(CommMapping::Sm { sms: 64 }),
        );
        let cluster = ClusterSpec::h800_node(8);
        let cost = analytic_cost(&cluster);
        let r_few = simulate_report(&few, &cost).unwrap();
        let r_many = simulate_report(&many, &cost).unwrap();
        // The comm-SM knob trades compute throughput against communication
        // throughput; both settings must stay in the same regime rather than
        // collapse or explode.
        assert!(r_many.total_s < r_few.total_s * 2.0);
        assert!(r_few.total_s < r_many.total_s * 2.0);
        assert_eq!(few.plan.compute_sms, 124);
        assert_eq!(many.plan.compute_sms, 68);
    }

    #[test]
    fn pushes_to_broadcast_generate_world_minus_one_transfers() {
        let mut p = TileProgram::new("bcast", 4);
        p.add_block(
            BlockDesc::new("comm/r0", 0, BlockRole::Producer)
                .op(TileOp::PushTile {
                    buffer: "tokens".into(),
                    bytes: 1e6,
                    tile: 0,
                    target: PushTarget::Broadcast,
                })
                .op(TileOp::ProducerNotify {
                    tile: 0,
                    scope: NotifyScope::Broadcast,
                }),
        );
        let mapping = StaticMapping::new(512, 128, 4, 1);
        let cost = analytic_cost(&ClusterSpec::h800_node(4));
        let kernel = Compiler::new(OverlapConfig::default(), &cost)
            .compile(CacheSite::new("test.timed", []), &p, &mapping)
            .unwrap();
        let trace = trace(&kernel, &cost);
        let pushes = trace
            .entries()
            .iter()
            .filter(|e| e.name.contains("comm_push"))
            .count();
        assert_eq!(pushes, 3);
    }
}

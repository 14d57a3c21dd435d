//! The scheduling core shared by the trace path and the makespan fast path.
//!
//! [`schedule`] is the resource-constrained list scheduler behind
//! [`crate::Engine`]: a task starts as soon as (a) all of its dependencies
//! have finished and (b) its requested resource units are free on its rank,
//! with ready tasks considered in submission order. Both [`crate::Engine::run`]
//! (which records a full [`crate::Trace`]) and [`crate::Engine::makespan`]
//! (which records nothing and may stop at a cutoff) drive this one
//! implementation through the `on_start` recorder callback, so the two paths
//! cannot drift apart.
//!
//! # Hot-path layout
//!
//! Resource availability lives in a flat `Vec<u64>` indexed by
//! `rank * ResourceKind::COUNT + kind.index()` instead of a `HashMap`, and the
//! extra `LinkIn` units a cross-rank transfer holds at its destination live in
//! a `Vec<Option<..>>` indexed by task id. Blocked tasks wait in a per-slot
//! wait list, so a completion only re-examines tasks actually blocked on the
//! freed resource instead of rescanning one global FIFO (the old engine's
//! O(T²) behaviour on deep graphs).
//!
//! # FIFO equivalence
//!
//! The old engine kept every not-yet-startable task in one FIFO deque and
//! rescanned all of it after each completion batch. Start order there was the
//! order tasks *entered* the deque. This scheduler preserves that order
//! exactly: every task gets a monotonically increasing sequence number when it
//! becomes ready, keeps it while parked in wait lists, and each wake batch is
//! sorted by it before the start pass. A task parked on resource `R` can only
//! have become startable if some completion freed `R` (availability never
//! increases otherwise), and any completion freeing `R` wakes `R`'s entire
//! wait list — so skipping the tasks whose resources did not free is
//! invisible: those attempts would have failed in the old engine too.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{CostProvider, ResourceKind, Result, Seconds, SimError, Task, TaskGraph, TaskId, Work};

/// A completion event in the event queue. Ordered by time, then task id for
/// determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Completion {
    time: Seconds,
    task: TaskId,
}

impl Eq for Completion {}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.task.cmp(&other.task))
    }
}

/// Reusable scheduler state for the makespan fast path.
///
/// One simulation allocates nothing when it runs on a warm scratch of the same
/// shape: [`crate::Engine::makespan`] keeps one per thread, so callers that
/// price many graphs in a row (the tuner's worker threads, the report-only
/// executor) reuse its buffers without any plumbing.
#[derive(Debug, Default)]
pub(crate) struct SimScratch {
    /// Free units per `rank * ResourceKind::COUNT + kind.index()` slot.
    available: Vec<u64>,
    /// Extra destination-`LinkIn` `(slot, units)` held by a running transfer,
    /// indexed by task id.
    extra_held: Vec<Option<(usize, u64)>>,
    /// Unfinished-predecessor count per task.
    predecessor_count: Vec<usize>,
    /// Ready sequence number per task (`usize::MAX` = not ready yet).
    seq: Vec<usize>,
    /// Tasks blocked on each resource slot.
    wait_lists: Vec<Vec<usize>>,
    /// Tasks to attempt in the current start pass, sorted by `seq`.
    pending: Vec<usize>,
    /// Resource slots freed by the current completion batch.
    freed: Vec<usize>,
    /// Pending completions.
    events: BinaryHeap<Reverse<Completion>>,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, tasks: usize, slots: usize) {
        self.available.clear();
        self.available.resize(slots, 0);
        self.extra_held.clear();
        self.extra_held.resize(tasks, None);
        self.seq.clear();
        self.seq.resize(tasks, usize::MAX);
        if self.wait_lists.len() < slots {
            self.wait_lists.resize_with(slots, Vec::new);
        }
        for list in &mut self.wait_lists {
            list.clear();
        }
        self.pending.clear();
        self.freed.clear();
        self.events.clear();
    }
}

/// Outcome of a cutoff-bounded schedule: either the exact makespan, or proof
/// that it exceeds the caller's cutoff.
///
/// `Exceeded(clock)` carries the partial makespan at the abort point — a
/// certified *lower bound* on the true makespan (task end times only grow),
/// not the final value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedMakespan {
    /// The graph ran to completion; the makespan is exact and bit-identical
    /// to the traced one.
    Finished(Seconds),
    /// Scheduling stopped early: some already-started task ends after the
    /// cutoff, so the true makespan is at least this value.
    Exceeded(Seconds),
}

impl BoundedMakespan {
    /// The clock value carried either way (exact makespan or its certified
    /// lower bound).
    #[must_use]
    pub fn clock(self) -> Seconds {
        match self {
            Self::Finished(s) | Self::Exceeded(s) => s,
        }
    }
}

/// Runs `graph`, invoking `on_start` for every task as it is scheduled (with
/// its id, the task, its start and its end time), and returns the makespan:
/// the maximum end time over all tasks (0 for an empty graph).
///
/// The loop stops as soon as the running makespan (the max end time over all
/// *started* tasks, which only grows) strictly exceeds `cutoff`, returning
/// [`BoundedMakespan::Exceeded`]. With `cutoff = f64::INFINITY` nothing can
/// exceed it and every task is scheduled, so bounded and exact results are
/// bit-identical whenever the cutoff is not hit.
///
/// The caller ([`crate::Engine`]) is responsible for validating the graph
/// first; this function assumes ranks are in range and no task requests more
/// units than its resource's capacity.
///
/// # Errors
///
/// Returns [`SimError::DependencyCycle`] if the graph cannot make progress.
pub(crate) fn schedule(
    cost: &dyn CostProvider,
    graph: &TaskGraph,
    scratch: &mut SimScratch,
    cutoff: Seconds,
    mut on_start: impl FnMut(TaskId, &Task, Seconds, Seconds),
) -> Result<BoundedMakespan> {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    scratch.reset(graph.len(), world * ResourceKind::COUNT);
    let SimScratch {
        available,
        extra_held,
        predecessor_count,
        seq,
        wait_lists,
        pending,
        freed,
        events,
    } = scratch;

    let capacity: [u64; ResourceKind::COUNT] =
        ResourceKind::ALL.map(|kind| cluster.resource_capacity(kind));
    for (slot, free) in available.iter_mut().enumerate() {
        *free = capacity[slot % ResourceKind::COUNT];
    }

    graph.fill_predecessor_counts(predecessor_count);
    let mut next_seq = 0usize;
    for (id, _) in graph.iter() {
        if predecessor_count[id.0] == 0 {
            seq[id.0] = next_seq;
            next_seq += 1;
            pending.push(id.0);
        }
    }

    let mut now: Seconds = 0.0;
    let mut makespan: Seconds = 0.0;
    let mut completed = 0usize;
    let mut running = 0usize;

    loop {
        // Start pass: attempt every woken/new ready task, in ready order.
        for &tid in pending.iter() {
            let id = TaskId(tid);
            let task = graph.task(id);
            let slot = task.rank * ResourceKind::COUNT + task.resource.index();
            // A link transfer also needs ingress capacity at the destination.
            let link_dst = match task.work {
                Work::LinkBytes { dst_rank, .. } if dst_rank != task.rank => {
                    Some(dst_rank * ResourceKind::COUNT + ResourceKind::LinkIn.index())
                }
                _ => None,
            };
            if available[slot] < task.units {
                wait_lists[slot].push(tid);
                continue;
            }
            if let Some(dst_slot) = link_dst {
                if available[dst_slot] < task.units {
                    wait_lists[dst_slot].push(tid);
                    continue;
                }
            }
            available[slot] -= task.units;
            if let Some(dst_slot) = link_dst {
                available[dst_slot] -= task.units;
                extra_held[tid] = Some((dst_slot, task.units));
            }
            let end = now + cost.duration(task, task.units);
            events.push(Reverse(Completion {
                time: end,
                task: id,
            }));
            running += 1;
            makespan = makespan.max(end);
            on_start(id, task, now, end);
        }
        pending.clear();

        // The makespan is monotone in started tasks, so exceeding the cutoff
        // here proves the final makespan would too — abort before draining
        // any more completions. Strict `>` keeps ties (a candidate exactly
        // matching the incumbent) on the exact path.
        if makespan > cutoff {
            return Ok(BoundedMakespan::Exceeded(makespan));
        }

        if running == 0 {
            if completed == graph.len() {
                break;
            }
            // Nothing is running and nothing could start: the remaining
            // tasks are blocked on predecessors that will never finish.
            return Err(SimError::DependencyCycle {
                stuck: graph.len() - completed,
            });
        }

        // Advance to the next completion and drain everything at the same
        // instant before trying to start new work, so resources freed
        // "simultaneously" are pooled.
        freed.clear();
        let mut batch_time: Option<Seconds> = None;
        while let Some(&Reverse(Completion { time, .. })) = events.peek() {
            match batch_time {
                None => batch_time = Some(time),
                Some(t) if time > t => break,
                Some(_) => {}
            }
            let Reverse(Completion { task: id, .. }) = events.pop().expect("peeked");
            now = time;
            running -= 1;
            completed += 1;
            let task = graph.task(id);
            let slot = task.rank * ResourceKind::COUNT + task.resource.index();
            available[slot] += task.units;
            freed.push(slot);
            if let Some((dst_slot, units)) = extra_held[id.0].take() {
                available[dst_slot] += units;
                freed.push(dst_slot);
            }
            for &succ in graph.successors(id) {
                predecessor_count[succ.0] -= 1;
                if predecessor_count[succ.0] == 0 {
                    seq[succ.0] = next_seq;
                    next_seq += 1;
                    pending.push(succ.0);
                }
            }
        }

        // Wake only the tasks blocked on a freed resource, merged with the
        // newly readied ones in ready order (see the module docs for why this
        // is exactly the old global-FIFO order).
        for &slot in freed.iter() {
            pending.append(&mut wait_lists[slot]);
        }
        pending.sort_unstable_by_key(|&tid| seq[tid]);
    }

    Ok(BoundedMakespan::Finished(makespan))
}

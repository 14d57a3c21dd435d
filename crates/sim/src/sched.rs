//! The scheduling core shared by the trace path and the makespan fast path.
//!
//! [`schedule`] is the resource-constrained list scheduler behind
//! [`crate::Engine`]: a task starts as soon as (a) all of its dependencies
//! have finished and (b) its requested resource units are free on its rank,
//! with ready tasks considered in the order they became ready. Both
//! [`crate::Engine::run`] (which records a full [`crate::Trace`]) and
//! [`crate::Engine::makespan`] (which records nothing and may stop at a
//! cutoff) drive this one implementation through the `on_start` recorder
//! callback, so the two paths cannot drift apart.
//!
//! The semantics are those of one global FIFO: every ready, unstarted task
//! waits in one queue in the order it became ready; after each completion
//! batch (every completion at the next event time) the whole queue is
//! rescanned in that order, starting each task whose units are free on its
//! slot and, for a cross-rank transfer, on its destination's `LinkIn` slot
//! too; after each start pass the run aborts once its makespan exceeds the
//! cutoff. `crates/sim/tests/parity.rs` implements exactly that and checks
//! this scheduler against it bit for bit.
//!
//! # Hot-path layout
//!
//! A slot is one `(rank, resource)` pair, at `rank * ResourceKind::COUNT +
//! kind.index()` in a flat table that holds its free units and the tasks
//! parked on it (ready tasks that did not fit). The set-up pass, which
//! already walks the graph, copies each task's slot, destination slot and
//! unit count into a flat 12-byte row, so the loop reads the graph only for
//! a started task's duration and a finished task's successors.
//!
//! Completions wait in a min-heap of `u128` keys: the end time mapped to a
//! `u64` that orders exactly as [`f64::total_cmp`] orders the floats (every
//! `f64`, negative ones and NaNs included), then the task id. Keys pop in
//! the `(time, task id)` order that comparing the floats gives, but compare
//! as integers.
//!
//! # FIFO equivalence
//!
//! Every task gets a monotonically increasing sequence number when it
//! becomes ready. A task parked on slot `S` can only become startable after
//! a completion frees `S` (free units never grow otherwise), so a batch
//! re-attempts only the tasks parked on the slots it freed: the skipped
//! attempts would fail in the global scan too. Each freed slot is woken once
//! per batch, and the set-up pass classifies every slot one of two ways:
//!
//! * A slot is *shared* if some cross-rank transfer uses it as its source
//!   slot or as its destination `LinkIn` slot. A freed shared slot hands its
//!   whole parked list to the start pass, which sorts it with the newly
//!   ready tasks by sequence number: a transfer that fits its own slot but
//!   not its destination re-parks there, possibly behind a younger task.
//! * Every other slot is *single-owner*; in the builders' graphs that is
//!   every SM and host slot. Only tasks that hold it alone touch it, so its
//!   start decisions depend only on its own requests in ready order. Its
//!   parked tasks are older than any newly ready one, and its list stays in
//!   sequence order, because only newly ready tasks are ever appended to it,
//!   in order. So a freed single-owner slot starts its parked tasks in place
//!   before the start pass: it walks the list in order, starts each task that
//!   fits, leaves the rest where they are, and stops once its free units fall
//!   below the smallest request ever parked on it. The newly ready tasks on
//!   it are attempted after, in the start pass, as in the global scan.
//!
//! The order in which tasks start within one pass changes no result:
//! completions pop in `(time, task id)` order whatever order they were pushed
//! in, the makespan is a maximum, and the trace is indexed by task.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::{CostProvider, ResourceKind, Result, Seconds, SimError, Task, TaskGraph, TaskId, Work};

/// Ranks the scheduler can index: every slot, and [`NO_SLOT`] above them,
/// fits a `u32`.
pub(crate) const MAX_RANKS: usize = (u32::MAX / ResourceKind::COUNT as u32) as usize;

/// Units one task can request: rows count units in `u32`.
pub(crate) const MAX_UNITS: u64 = u32::MAX as u64;

/// The destination slot of a task that holds only its own slot.
const NO_SLOT: u32 = u32::MAX;

/// Maps `time` to a `u64` that orders exactly as [`f64::total_cmp`] orders
/// the floats: a negative float (sign bit set) has every bit flipped, so a
/// larger magnitude sorts lower; any other float has its sign bit set, so it
/// sorts above every negative one.
fn time_key(time: Seconds) -> u64 {
    let bits = time.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The inverse of [`time_key`], bit for bit.
fn key_time(key: u64) -> Seconds {
    f64::from_bits(key ^ ((((!key as i64) >> 63) as u64) | (1 << 63)))
}

/// A completion's heap key: [`time_key`] of its end time above its task id,
/// so keys order by `(time, task id)`.
fn event_key(end: Seconds, task: usize) -> u128 {
    (u128::from(time_key(end)) << 64) | task as u128
}

/// A task's slots and units, copied out of the graph once per simulation.
#[derive(Debug, Clone, Copy)]
struct TaskRow {
    /// The slot of the task's own resource.
    slot: u32,
    /// The destination `LinkIn` slot a cross-rank transfer also holds, else
    /// [`NO_SLOT`].
    dst: u32,
    /// Units held on each of its slots.
    units: u32,
}

/// One `(rank, resource)` slot.
#[derive(Debug, Default)]
struct Slot {
    /// Free units.
    free: u64,
    /// Ready tasks that did not fit; in ready order on a single-owner slot.
    parked: VecDeque<usize>,
    /// Smallest request ever parked here in this simulation.
    min_parked: u32,
    /// Some cross-rank transfer holds this slot (see the module docs).
    shared: bool,
    /// Already listed among the current batch's freed slots.
    freed: bool,
}

impl Slot {
    fn park(&mut self, task: usize, units: u32) {
        self.parked.push_back(task);
        self.min_parked = self.min_parked.min(units);
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
    /// Slot state, indexed by `rank * ResourceKind::COUNT + kind.index()`.
    slots: Vec<Slot>,
    /// Each task's slots and units, indexed by task id.
    rows: Vec<TaskRow>,
    /// Unfinished-predecessor count per task.
    predecessor_count: Vec<usize>,
    /// Ready sequence number per task (`usize::MAX` = not ready yet).
    seq: Vec<usize>,
    /// Tasks to attempt in the current start pass, sorted by `seq`.
    pending: Vec<usize>,
    /// Slots freed by the current completion batch, each listed once.
    freed: Vec<usize>,
    /// Pending completions, keyed by [`event_key`].
    events: BinaryHeap<Reverse<u128>>,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, tasks: usize, slots: usize, capacity: [u64; ResourceKind::COUNT]) {
        if self.slots.len() < slots {
            self.slots.resize_with(slots, Slot::default);
        }
        for (index, slot) in self.slots.iter_mut().enumerate() {
            slot.free = capacity[index % ResourceKind::COUNT];
            slot.parked.clear();
            slot.min_parked = u32::MAX;
            slot.shared = false;
            slot.freed = false;
        }
        self.rows.clear();
        self.seq.clear();
        self.seq.resize(tasks, usize::MAX);
        self.pending.clear();
        self.freed.clear();
        self.events.clear();
    }
}

/// The slot of `kind` on `rank`.
fn slot_of(rank: usize, kind: ResourceKind) -> u32 {
    u32::try_from(rank * ResourceKind::COUNT + kind.index())
        .expect("Engine::validate bounds ranks by MAX_RANKS")
}

/// Adds `units` back to `slot` and lists it among the batch's freed slots
/// unless it already is.
fn release(slots: &mut [Slot], freed: &mut Vec<usize>, slot: u32, units: u32) {
    let state = &mut slots[slot as usize];
    state.free += u64::from(units);
    if !state.freed {
        state.freed = true;
        freed.push(slot as usize);
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
/// first; this function assumes ranks are in range (and below
/// [`MAX_RANKS`]) and no task requests more units than its resource's
/// capacity (or [`MAX_UNITS`]).
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
    let capacity = ResourceKind::ALL.map(|kind| cluster.resource_capacity(kind));
    scratch.reset(
        graph.len(),
        cluster.world_size() * ResourceKind::COUNT,
        capacity,
    );
    let SimScratch {
        slots,
        rows,
        predecessor_count,
        seq,
        pending,
        freed,
        events,
    } = scratch;

    // Set-up pass: the per-task rows, the shared slots and the initially
    // ready tasks, in id order.
    graph.fill_predecessor_counts(predecessor_count);
    let mut next_seq = 0usize;
    for (id, task) in graph.iter() {
        let slot = slot_of(task.rank, task.resource);
        let dst = match task.work {
            Work::LinkBytes { dst_rank, .. } if dst_rank != task.rank => {
                let dst = slot_of(dst_rank, ResourceKind::LinkIn);
                slots[slot as usize].shared = true;
                slots[dst as usize].shared = true;
                dst
            }
            _ => NO_SLOT,
        };
        let units = u32::try_from(task.units).expect("Engine::validate bounds units by MAX_UNITS");
        rows.push(TaskRow { slot, dst, units });
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
    // Starts `tid` at `now` (its caller has taken its units): queues its
    // completion, records it and returns its end time.
    let mut launch = |tid: usize, now: Seconds, events: &mut BinaryHeap<Reverse<u128>>| {
        let id = TaskId(tid);
        let task = graph.task(id);
        let end = now + cost.duration(task, task.units);
        events.push(Reverse(event_key(end, tid)));
        on_start(id, task, now, end);
        end
    };

    loop {
        // Start pass: attempt every newly ready or woken task, in ready order.
        for &tid in pending.iter() {
            let TaskRow { slot, dst, units } = rows[tid];
            let needed = u64::from(units);
            if slots[slot as usize].free < needed {
                slots[slot as usize].park(tid, units);
                continue;
            }
            // A cross-rank transfer also needs ingress at its destination.
            if dst != NO_SLOT {
                let dst = &mut slots[dst as usize];
                if dst.free < needed {
                    dst.park(tid, units);
                    continue;
                }
                dst.free -= needed;
            }
            slots[slot as usize].free -= needed;
            makespan = makespan.max(launch(tid, now, events));
            running += 1;
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
        let batch_time = events
            .peek()
            .map(|&Reverse(key)| key_time((key >> 64) as u64))
            .expect("a running task has a queued completion");
        while let Some(&Reverse(key)) = events.peek() {
            let time = key_time((key >> 64) as u64);
            if time > batch_time {
                break;
            }
            events.pop();
            let tid = key as u64 as usize;
            now = time;
            running -= 1;
            completed += 1;
            let TaskRow { slot, dst, units } = rows[tid];
            release(slots, freed, slot, units);
            if dst != NO_SLOT {
                release(slots, freed, dst, units);
            }
            for &succ in graph.successors(TaskId(tid)) {
                predecessor_count[succ.0] -= 1;
                if predecessor_count[succ.0] == 0 {
                    seq[succ.0] = next_seq;
                    next_seq += 1;
                    pending.push(succ.0);
                }
            }
        }

        // Wake each freed slot once (see the module docs for why this is
        // exactly the global scan's order): a single-owner slot starts its
        // parked tasks in place; a shared one merges its list with the newly
        // ready tasks, which are already in ready order.
        let mut merged = false;
        for &index in freed.iter() {
            let slot = &mut slots[index];
            slot.freed = false;
            if slot.shared {
                merged |= !slot.parked.is_empty();
                pending.extend(slot.parked.drain(..));
                continue;
            }
            let (mut kept, mut next) = (0, 0);
            while next < slot.parked.len() && slot.free >= u64::from(slot.min_parked) {
                let tid = slot.parked[next];
                next += 1;
                let needed = u64::from(rows[tid].units);
                if slot.free < needed {
                    slot.parked[kept] = tid;
                    kept += 1;
                    continue;
                }
                slot.free -= needed;
                makespan = makespan.max(launch(tid, now, events));
                running += 1;
            }
            slot.parked.drain(kept..next);
        }
        if merged {
            pending.sort_unstable_by_key(|&tid| seq[tid]);
        }
    }

    Ok(BoundedMakespan::Finished(makespan))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Floats across every class: both zeros and NaN signs, infinities,
    /// subnormals, the extremes and ordinary values of both signs.
    fn samples() -> Vec<f64> {
        let mut floats = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1.0,
            -1.0,
            1e-6,
            -1e-6,
            3.5e3,
            -3.5e3,
        ];
        // Arbitrary bit patterns (splitmix64).
        let mut state = 0x1234_5678_9abc_def0_u64;
        for _ in 0..500 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            floats.push(f64::from_bits(z ^ (z >> 31)));
        }
        floats
    }

    #[test]
    fn time_keys_order_as_total_cmp_and_round_trip() {
        let floats = samples();
        for &a in &floats {
            assert_eq!(key_time(time_key(a)).to_bits(), a.to_bits(), "{a:e}");
            for &b in &floats {
                assert_eq!(
                    time_key(a).cmp(&time_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    fn event_keys_break_time_ties_by_task_id() {
        assert!(event_key(1.0, 3) < event_key(1.0, 4));
        assert!(event_key(1.0, usize::MAX) < event_key(1.5, 0));
        assert!(event_key(-0.0, 9) < event_key(0.0, 0));
        let key = event_key(2.5, 7);
        assert_eq!(key_time((key >> 64) as u64), 2.5);
        assert_eq!(key as u64 as usize, 7);
    }
}

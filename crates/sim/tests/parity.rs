//! Fast-path / trace-path parity: `Engine::makespan` must be bit-identical to
//! `Engine::run(..).makespan()` — one scheduler, two recorders — across
//! randomized graphs under both cost models, plus a wakeup-order regression
//! for the per-resource wait lists. Both must also match, bit for bit, a
//! reference scheduler that implements the documented semantics directly (one
//! global ready-order rescan after each completion batch), on the random
//! graphs and on graphs shaped like the timed executor's.

use std::ops::Deref;
use std::sync::Arc;

use tilelink_sim::{
    BoundedMakespan, CalibratedCostModel, ClusterSpec, CostProvider, Engine, ResourceKind,
    SharedCost, Task, TaskGraph, TaskId, Work,
};

/// Deterministic splitmix64 (same generator the routing sampler uses; no
/// external dependencies allowed in this environment).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A task graph together with each task's successors in `add_dep` order,
/// which the reference scheduler walks (the graph keeps its own private).
#[derive(Default)]
struct Built {
    graph: TaskGraph,
    successors: Vec<Vec<usize>>,
}

impl Built {
    fn add_task(
        &mut self,
        name: String,
        rank: usize,
        resource: ResourceKind,
        units: u64,
        work: Work,
    ) -> TaskId {
        self.successors.push(Vec::new());
        self.graph.add_task(name, rank, resource, units, work)
    }

    fn add_host_latency(&mut self, name: String, rank: usize, seconds: f64) -> TaskId {
        self.add_task(name, rank, ResourceKind::Host, 1, Work::Latency { seconds })
    }

    fn add_dep(&mut self, before: TaskId, after: TaskId) {
        self.graph.add_dep(before, after);
        self.successors[before.0].push(after.0);
    }
}

impl Deref for Built {
    type Target = TaskGraph;

    fn deref(&self) -> &TaskGraph {
        &self.graph
    }
}

/// A random graph mixing Sm / DMA / LinkBytes / Host tasks with fan-in and
/// fan-out dependencies, saturated enough that tasks genuinely contend (the
/// wait lists are exercised, not just the happy path).
fn random_graph(seed: u64, world: usize) -> Built {
    let mut rng = Rng(seed);
    let mut g = Built::default();
    let tasks = 40 + rng.below(80) as usize;
    for i in 0..tasks {
        let rank = rng.below(world as u64) as usize;
        let id = match rng.below(4) {
            0 => g.add_task(
                format!("sm/{i}"),
                rank,
                ResourceKind::Sm,
                // Often more than half the SMs, so two tasks cannot share.
                33 + rng.below(99),
                match rng.below(3) {
                    0 => Work::MatmulFlops {
                        flops: 1e9 + rng.below(64) as f64 * 1e9,
                        efficiency: 0.5,
                    },
                    1 => Work::HbmBytes {
                        bytes: 1e6 + rng.below(512) as f64 * 1e6,
                    },
                    _ => Work::Latency {
                        seconds: 1e-5 * (1 + rng.below(40)) as f64,
                    },
                },
            ),
            1 => {
                let dst = rng.below(world as u64) as usize;
                g.add_task(
                    format!("dma/{i}"),
                    rank,
                    ResourceKind::DmaEngine,
                    1 + rng.below(4),
                    Work::LinkBytes {
                        bytes: 1e5 + rng.below(1024) as f64 * 1e5,
                        dst_rank: dst,
                    },
                )
            }
            2 => {
                let dst = rng.below(world as u64) as usize;
                g.add_task(
                    format!("link/{i}"),
                    rank,
                    ResourceKind::LinkOut,
                    // 34..100 shares: at most two transfers share a port.
                    34 + rng.below(67),
                    Work::LinkBytes {
                        bytes: 1e5 + rng.below(1024) as f64 * 1e5,
                        dst_rank: dst,
                    },
                )
            }
            _ => g.add_host_latency(format!("host/{i}"), rank, 1e-6 * (1 + rng.below(30)) as f64),
        };
        // Fan-in: up to 3 predecessors among earlier tasks (fan-out arises
        // naturally when several later tasks pick the same predecessor).
        for _ in 0..rng.below(4) {
            if id.0 > 0 {
                let pred = rng.below(id.0 as u64) as usize;
                g.add_dep(tilelink_sim::TaskId(pred), id);
            }
        }
    }
    g
}

fn providers(world: usize) -> Vec<(&'static str, SharedCost)> {
    let cluster = if world > 8 {
        ClusterSpec::h800_multi_node(world / 8)
    } else {
        ClusterSpec::h800_node(world)
    };
    vec![
        ("analytic", tilelink_sim::analytic_cost(&cluster)),
        (
            "calibrated",
            Arc::new(CalibratedCostModel::h800_defaults(cluster)),
        ),
    ]
}

#[test]
fn fast_path_makespan_is_bit_identical_to_the_trace_path() {
    for world in [4usize, 16] {
        for (model, cost) in providers(world) {
            let engine = Engine::with_cost(cost);
            for seed in 0..24u64 {
                let g = random_graph(seed * 7919 + 1, world);
                let traced = engine.run(&g).expect("trace path").makespan();
                let fast = engine
                    .makespan(&g, f64::INFINITY)
                    .expect("fast path")
                    .clock();
                assert_eq!(
                    fast.to_bits(),
                    traced.to_bits(),
                    "seed {seed}, world {world}, {model}: fast {fast} != traced {traced}"
                );
            }
        }
    }
}

#[test]
fn repeated_scratch_reuse_does_not_leak_state_between_graphs() {
    let engine = Engine::new(ClusterSpec::h800_node(4));
    // Alternate between differently-shaped graphs on this thread's one
    // scratch; every result must match the trace path, which schedules on a
    // fresh scratch of its own.
    for seed in 0..10u64 {
        let g = random_graph(seed, 4);
        let fresh = engine.run(&g).unwrap().makespan();
        let reused = engine.makespan(&g, f64::INFINITY).unwrap().clock();
        assert_eq!(reused.to_bits(), fresh.to_bits(), "seed {seed}");
    }
}

/// The scenario where naive per-resource wait lists would reorder starts
/// relative to the old single-FIFO scan:
///
/// * `early` (ready 3rd) first parks on rank 0's `LinkOut`;
/// * `late` (ready 4th) parks on rank 3's `LinkIn`;
/// * at t=1 rank 0's port frees, `early` wakes but re-parks on rank 3's
///   `LinkIn` — *behind* `late` in that list's insertion order;
/// * at t=2 rank 3's ingress frees with room for only one transfer.
///
/// FIFO start order says `early` (it became ready first) must win; an
/// insertion-ordered wait list would start `late` instead. The wake merge
/// sorts by ready sequence, so `early` starts at 2 s and `late` at 3 s.
#[test]
fn wakeup_order_preserves_global_fifo_ready_order() {
    let cluster = ClusterSpec::h800_node(4);
    let mut g = TaskGraph::new();
    let bw = cluster.gpu.nvlink_bytes_per_s();
    let transfer = |secs: f64, dst: usize| Work::LinkBytes {
        bytes: secs * bw,
        dst_rank: dst,
    };
    // Holds rank 0 LinkOut (and rank 1 LinkIn) for ~1 s.
    g.add_task(
        "hold_r0_out",
        0,
        ResourceKind::LinkOut,
        100,
        transfer(1.0, 1),
    );
    // Holds rank 3 LinkIn (and rank 2 LinkOut) for ~2 s.
    g.add_task(
        "hold_r3_in",
        2,
        ResourceKind::LinkOut,
        100,
        transfer(2.0, 3),
    );
    let early = g.add_task("early", 0, ResourceKind::LinkOut, 100, transfer(1.0, 3));
    let late = g.add_task("late", 1, ResourceKind::LinkOut, 100, transfer(1.0, 3));

    let engine = Engine::new(cluster);
    let trace = engine.run(&g).unwrap();
    let early_start = trace.entry(early).unwrap().start;
    let late_start = trace.entry(late).unwrap().start;
    assert!(
        early_start < late_start,
        "FIFO ready order violated: early starts at {early_start}, late at {late_start}"
    );
    // early runs 2s..3s (after both blockers), late only after early frees
    // rank 3's ingress again.
    assert!((early_start - 2.0).abs() < 1e-6, "early at {early_start}");
    assert!((late_start - 3.0).abs() < 1e-6, "late at {late_start}");
    // And the fast path agrees to the bit.
    assert_eq!(
        engine
            .makespan(&g, f64::INFINITY)
            .unwrap()
            .clock()
            .to_bits(),
        trace.makespan().to_bits()
    );
}

/// A graph shaped like the timed executor's, on `cluster`:
///
/// * per rank, a host launch that every task of the rank's blocks follows;
/// * AllGather producers: per rank, a chain pushing each channel's tile to
///   every rank, itself included — cross-rank transfers and self-copies on
///   the same port (or copy engine, some behind host copy launches);
/// * consumer blocks: per rank, long runs of equal-unit SM tasks, each behind
///   a channel wait on every transfer into its rank for that channel;
/// * a ReduceScatter ring of SM reductions with another unit count, each
///   behind one of its rank's compute tiles and the previous rank's send,
///   plus a communication-SM reservation of a third unit count.
fn builder_graph(seed: u64, cluster: &ClusterSpec) -> Built {
    let world = cluster.world_size();
    let mut rng = Rng(seed);
    let mut g = Built::default();
    let sms = cluster.gpu.sm_count;
    let launch_s = cluster.gpu.kernel_launch_s();
    let compute_units = [sms, sms / 2, sms / 3, sms / 4, 16][rng.below(5) as usize];
    let comm_units = 1 + rng.below(8);
    let copy_engine = rng.below(3) == 0;
    let (port, port_units) = if copy_engine {
        (ResourceKind::DmaEngine, 1)
    } else {
        (
            ResourceKind::LinkOut,
            [100, 50, 34, 25][rng.below(4) as usize],
        )
    };
    let channels = 2 + rng.below(3) as usize;
    let blocks = 6 + rng.below(14) as usize;

    let launches: Vec<TaskId> = (0..world)
        .map(|r| g.add_host_latency(format!("launch/r{r}"), r, launch_s))
        .collect();
    // chain(rank, prev, task): after the launch and the block's previous task.
    let chain = |g: &mut Built, rank: usize, prev: Option<TaskId>, task: TaskId| {
        g.add_dep(launches[rank], task);
        if let Some(p) = prev {
            g.add_dep(p, task);
        }
    };

    // notifiers[channel][rank]: the transfers that signal `channel` on `rank`.
    let mut notifiers = vec![vec![Vec::new(); world]; channels];
    for r in 0..world {
        let mut prev = None;
        for (channel, signals) in notifiers.iter_mut().enumerate() {
            for offset in 0..world {
                let dst = (r + offset) % world;
                if copy_engine && rng.below(2) == 0 {
                    let launch = g.add_host_latency(format!("copy_launch/r{r}"), r, launch_s);
                    if let Some(p) = prev {
                        g.add_dep(p, launch);
                    }
                    prev = Some(launch);
                }
                let push = g.add_task(
                    format!("push/r{r}/c{channel}/d{dst}"),
                    r,
                    port,
                    port_units,
                    Work::LinkBytes {
                        bytes: 2e5 * (1 + rng.below(32)) as f64,
                        dst_rank: dst,
                    },
                );
                chain(&mut g, r, prev, push);
                prev = Some(push);
                signals[dst].push(push);
            }
        }
        if !copy_engine {
            let reserve = g.add_task(
                format!("comm_sm_reservation/r{r}"),
                r,
                ResourceKind::Sm,
                2 * comm_units,
                Work::Latency {
                    seconds: 1e-5 * (1 + rng.below(40)) as f64,
                },
            );
            chain(&mut g, r, None, reserve);
        }
    }

    let mut tiles = vec![Vec::new(); world];
    for (r, rank_tiles) in tiles.iter_mut().enumerate() {
        for b in 0..blocks {
            let mut prev = None;
            for step in 0..channels {
                let tile = g.add_task(
                    format!("compute/r{r}/b{b}/{step}"),
                    r,
                    ResourceKind::Sm,
                    compute_units,
                    Work::MatmulFlops {
                        flops: 2e9 * (1 + rng.below(8)) as f64,
                        efficiency: 0.55 + 0.05 * rng.below(6) as f64,
                    },
                );
                chain(&mut g, r, prev, tile);
                for &n in &notifiers[(b + step) % channels][r] {
                    g.add_dep(n, tile);
                }
                prev = Some(tile);
            }
            rank_tiles.push(prev.expect("every block has a tile"));
        }
    }

    let mut incoming: Vec<Option<TaskId>> = vec![None; world];
    for step in 0..channels {
        let mut sent = vec![None; world];
        for r in 0..world {
            let reduce = g.add_task(
                format!("reduce/r{r}/{step}"),
                r,
                ResourceKind::Sm,
                comm_units,
                Work::HbmBytes {
                    bytes: 1e6 * (1 + rng.below(32)) as f64,
                },
            );
            chain(&mut g, r, Some(tiles[r][step % blocks]), reduce);
            if let Some(recv) = incoming[r] {
                g.add_dep(recv, reduce);
            }
            let next = (r + 1) % world;
            let send = g.add_task(
                format!("send/r{r}/{step}"),
                r,
                port,
                port_units,
                Work::LinkBytes {
                    bytes: 1e5 * (1 + rng.below(64)) as f64,
                    dst_rank: next,
                },
            );
            chain(&mut g, r, Some(reduce), send);
            sent[next] = Some(send);
        }
        incoming = sent;
    }
    g
}

/// What the reference scheduler saw: the outcome, each started task's
/// `(start, end)`, and how many start attempts failed for want of units.
struct Reference {
    outcome: BoundedMakespan,
    times: Vec<Option<(f64, f64)>>,
    blocked: usize,
}

/// The documented semantics, implemented directly: every ready, unstarted
/// task waits in one queue in the order it became ready; after each
/// completion batch (every completion at the earliest end time, in
/// `(time, task id)` order) the whole queue is rescanned in that order, and
/// a task starts if its units are free on its rank's resource and, for a
/// cross-rank transfer, on its destination's `LinkIn`; after each start pass
/// the run aborts once its makespan exceeds `cutoff`.
fn reference(cost: &dyn CostProvider, built: &Built, cutoff: f64) -> Reference {
    let cluster = cost.cluster();
    let tasks: Vec<&Task> = built.iter().map(|(_, task)| task).collect();
    let capacity = ResourceKind::ALL.map(|kind| cluster.resource_capacity(kind));
    let mut free = vec![capacity; cluster.world_size()];
    let mut unfinished = vec![0usize; tasks.len()];
    for successors in &built.successors {
        for &s in successors {
            unfinished[s] += 1;
        }
    }
    let ingress = |task: &Task| match task.work {
        Work::LinkBytes { dst_rank, .. } if dst_rank != task.rank => Some(dst_rank),
        _ => None,
    };
    let link_in = ResourceKind::LinkIn.index();
    let mut waiting: Vec<usize> = (0..tasks.len()).filter(|&t| unfinished[t] == 0).collect();
    let mut running: Vec<(f64, usize)> = Vec::new();
    let mut times = vec![None; tasks.len()];
    let (mut now, mut makespan, mut completed, mut blocked) = (0.0f64, 0.0f64, 0usize, 0usize);
    loop {
        let mut still = Vec::new();
        for tid in waiting {
            let task = tasks[tid];
            let own = task.resource.index();
            let fits = free[task.rank][own] >= task.units
                && ingress(task).is_none_or(|d| free[d][link_in] >= task.units);
            if !fits {
                blocked += 1;
                still.push(tid);
                continue;
            }
            free[task.rank][own] -= task.units;
            if let Some(d) = ingress(task) {
                free[d][link_in] -= task.units;
            }
            let end = now + cost.duration(task, task.units);
            makespan = makespan.max(end);
            running.push((end, tid));
            times[tid] = Some((now, end));
        }
        waiting = still;
        let outcome = if makespan > cutoff {
            Some(BoundedMakespan::Exceeded(makespan))
        } else if running.is_empty() {
            assert_eq!(completed, tasks.len(), "reference: dependency cycle");
            Some(BoundedMakespan::Finished(makespan))
        } else {
            None
        };
        if let Some(outcome) = outcome {
            return Reference {
                outcome,
                times,
                blocked,
            };
        }
        // Latest first, so the next completion is last.
        running.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
        let batch = running.last().expect("a task is running").0;
        while let Some(&(time, tid)) = running.last() {
            if time > batch {
                break;
            }
            running.pop();
            now = time;
            completed += 1;
            let task = tasks[tid];
            free[task.rank][task.resource.index()] += task.units;
            if let Some(d) = ingress(task) {
                free[d][link_in] += task.units;
            }
            for &s in &built.successors[tid] {
                unfinished[s] -= 1;
                if unfinished[s] == 0 {
                    waiting.push(s);
                }
            }
        }
    }
}

/// The outcome's kind and clock bits.
fn kind_and_bits(outcome: BoundedMakespan) -> (&'static str, u64) {
    match outcome {
        BoundedMakespan::Finished(s) => ("finished", s.to_bits()),
        BoundedMakespan::Exceeded(s) => ("exceeded", s.to_bits()),
    }
}

/// Checks `Engine::run` entry by entry and `Engine::makespan` at the cutoffs
/// ∞, the exact makespan and just below it against the reference, bit for
/// bit, and returns how many start attempts the reference saw blocked.
fn assert_matches_reference(engine: &Engine, built: &Built, what: &str) -> usize {
    let exact = reference(engine.cost(), built, f64::INFINITY);
    let BoundedMakespan::Finished(makespan) = exact.outcome else {
        panic!("{what}: an infinite cutoff aborted");
    };
    let trace = engine.run(built).expect("trace path");
    assert_eq!(trace.entries().len(), built.len(), "{what}");
    for (id, _) in built.iter() {
        let entry = trace.entry(id).expect("every task is traced");
        let (start, end) = exact.times[id.0].expect("the reference starts every task");
        assert_eq!(
            (entry.start.to_bits(), entry.end.to_bits()),
            (start.to_bits(), end.to_bits()),
            "{what}: task {} ran {}..{}, reference {start}..{end}",
            id.0,
            entry.start,
            entry.end
        );
    }
    assert_eq!(trace.makespan().to_bits(), makespan.to_bits(), "{what}");
    for cutoff in [f64::INFINITY, makespan, makespan.next_down()] {
        let fast = engine.makespan(built, cutoff).expect("fast path");
        let expected = reference(engine.cost(), built, cutoff).outcome;
        assert_eq!(
            kind_and_bits(fast),
            kind_and_bits(expected),
            "{what}: cutoff {cutoff:e}"
        );
    }
    exact.blocked
}

#[test]
fn scheduler_matches_the_reference_on_random_graphs() {
    for world in [4usize, 8, 16] {
        for (model, cost) in providers(world) {
            let engine = Engine::with_cost(cost);
            for seed in 0..24u64 {
                let g = random_graph(seed * 7919 + 1, world);
                assert_matches_reference(
                    &engine,
                    &g,
                    &format!("seed {seed}, world {world}, {model}"),
                );
            }
        }
    }
}

#[test]
fn scheduler_matches_the_reference_on_builder_shaped_graphs() {
    for world in [4usize, 8, 16] {
        for (model, cost) in providers(world) {
            let engine = Engine::with_cost(cost);
            for seed in 0..8u64 {
                let g = builder_graph(seed * 104_729 + world as u64, engine.cluster());
                let blocked = assert_matches_reference(
                    &engine,
                    &g,
                    &format!("builder seed {seed}, world {world}, {model}"),
                );
                // The generator must keep tasks contending for units.
                assert!(
                    blocked > g.len(),
                    "builder seed {seed}, world {world}: only {blocked} blocked attempts"
                );
            }
        }
    }
}

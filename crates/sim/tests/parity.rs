//! Fast-path / trace-path parity: `Engine::makespan` must be bit-identical to
//! `Engine::run(..).makespan()` — one scheduler, two recorders — across
//! randomized graphs under both cost models, plus a wakeup-order regression
//! for the per-resource wait lists.

use std::sync::Arc;

use tilelink_sim::{
    CalibratedCostModel, ClusterSpec, Engine, ResourceKind, SharedCost, TaskGraph, Work,
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

/// A random graph mixing Sm / DMA / LinkBytes / Host tasks with fan-in and
/// fan-out dependencies, saturated enough that tasks genuinely contend (the
/// wait lists are exercised, not just the happy path).
fn random_graph(seed: u64, world: usize) -> TaskGraph {
    let mut rng = Rng(seed);
    let mut g = TaskGraph::new();
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

//! The discrete-event scheduler facade: validation plus the two recorders.

use std::cell::RefCell;

use crate::sched::{schedule, BoundedMakespan, SimScratch, MAX_RANKS, MAX_UNITS};
use crate::{
    analytic_cost, ClusterSpec, CostProvider, Result, Seconds, SharedCost, SimError, TaskGraph,
    Trace, TraceEntry, Work,
};

/// Executes [`TaskGraph`]s against a [`ClusterSpec`].
///
/// The engine is a resource-constrained list scheduler: a task starts as soon
/// as (a) all of its dependencies have finished and (b) its requested resource
/// units are free on its rank. Ready tasks are considered in the order they
/// became ready, which mirrors how a GPU's block scheduler drains a grid.
///
/// The scheduling core lives in the `sched` module; the engine exposes it twice:
///
/// * [`Engine::run`] records a full [`Trace`] (per-task timing, utilisation);
/// * [`Engine::makespan`] records nothing and returns only the makespan,
///   stopping early once it provably exceeds a cutoff. It is what search
///   loops that price thousands of candidate graphs should call: over 216
///   prebuilt 8×H800 kernel graphs (348k tasks, one thread of a 2-vCPU
///   host) an uncut sweep takes ~33 ms against ~50 ms for `run`.
///
/// Both reject a graph whose tasks name a rank outside the cluster, request
/// zero units or more than their resource's capacity, or carry invalid work
/// ([`SimError::InvalidWork`]), before scheduling anything.
#[derive(Debug, Clone)]
pub struct Engine {
    cost: SharedCost,
}

impl Engine {
    /// Creates an engine for the given cluster with the default analytic cost
    /// model.
    pub fn new(cluster: ClusterSpec) -> Self {
        Self::with_cost(analytic_cost(&cluster))
    }

    /// Creates an engine priced by an explicit cost provider (the cluster is
    /// taken from the provider, so the two can never disagree).
    pub fn with_cost(cost: SharedCost) -> Self {
        Self { cost }
    }

    /// The cluster being simulated.
    pub fn cluster(&self) -> &ClusterSpec {
        self.cost.cluster()
    }

    /// The cost provider used to convert work into durations.
    pub fn cost(&self) -> &dyn CostProvider {
        &*self.cost
    }

    fn validate(&self, graph: &TaskGraph) -> Result<()> {
        let world = self.cluster().world_size().min(MAX_RANKS);
        for (id, task) in graph.iter() {
            if task.rank >= world {
                return Err(SimError::InvalidRank {
                    rank: task.rank,
                    world_size: world,
                });
            }
            if let Work::LinkBytes { dst_rank, .. } = task.work {
                if dst_rank >= world {
                    return Err(SimError::InvalidRank {
                        rank: dst_rank,
                        world_size: world,
                    });
                }
            }
            let cap = self
                .cluster()
                .resource_capacity(task.resource)
                .min(MAX_UNITS);
            if task.units == 0 || task.units > cap {
                return Err(SimError::InsufficientCapacity {
                    task: id,
                    requested: task.units,
                    capacity: cap,
                });
            }
            if !work_is_valid(task.work) {
                return Err(SimError::InvalidWork { task: id });
            }
        }
        Ok(())
    }

    /// Runs the graph to completion and returns the execution trace.
    ///
    /// # Errors
    ///
    /// Returns an error if a task references an invalid rank, requests more
    /// units than exist, carries invalid work (see [`SimError::InvalidWork`]),
    /// or if the dependency graph contains a cycle.
    pub fn run(&self, graph: &TaskGraph) -> Result<Trace> {
        tilelink_probe::metrics::SIM_TRACE_RUNS.inc();
        self.validate(graph)?;
        let mut entries: Vec<Option<TraceEntry>> = vec![None; graph.len()];
        // The trace path allocates per-task entries anyway, so it pays for a
        // local scratch rather than borrowing the thread-local one — keeping
        // `run` re-entrant for cost providers that themselves simulate. An
        // infinite cutoff schedules every task.
        let mut scratch = SimScratch::new();
        schedule(
            &*self.cost,
            graph,
            &mut scratch,
            f64::INFINITY,
            |id, task, start, end| {
                entries[id.0] = Some(TraceEntry {
                    task: id,
                    name: task.name.to_arc(),
                    rank: task.rank,
                    resource: task.resource,
                    units: task.units,
                    start,
                    end,
                });
            },
        )?;
        let entries: Vec<TraceEntry> = entries.into_iter().flatten().collect();
        Ok(Trace::new(self.cluster().clone(), entries))
    }

    /// Runs the graph without recording a trace and returns its makespan,
    /// stopping as soon as the simulated clock provably exceeds `cutoff`.
    ///
    /// [`BoundedMakespan::Finished`] carries the exact makespan, bit-identical
    /// to [`Engine::run`]'s (one shared scheduler underneath);
    /// `f64::INFINITY` always gets it. [`BoundedMakespan::Exceeded`] carries
    /// the partial makespan at the abort, a certified lower bound on the true
    /// one: branch-and-bound search loops pass the incumbent-best as `cutoff`
    /// and discard candidates that exceed it without simulating their tail.
    /// No per-task entries are allocated, and buffers are reused through one
    /// scratch per thread.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Engine::run`].
    pub fn makespan(&self, graph: &TaskGraph, cutoff: Seconds) -> Result<BoundedMakespan> {
        // One relaxed counter bump per simulation (never per event) keeps the
        // fast path's throughput intact while the registry still sees every run.
        tilelink_probe::metrics::SIM_MAKESPAN_RUNS.inc();
        self.validate(graph)?;
        let result = SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
            Ok(mut scratch) => {
                tilelink_probe::metrics::SIM_SCRATCH_REUSES.inc();
                schedule(&*self.cost, graph, &mut scratch, cutoff, |_, _, _, _| {})
            }
            // Re-entrant simulation (a cost provider that itself simulates on
            // this thread): fall back to a fresh scratch instead of panicking
            // on the RefCell.
            Err(_) => {
                tilelink_probe::metrics::SIM_SCRATCH_COLD.inc();
                let mut cold = SimScratch::new();
                schedule(&*self.cost, graph, &mut cold, cutoff, |_, _, _, _| {})
            }
        })?;
        if matches!(result, BoundedMakespan::Exceeded(_)) {
            tilelink_probe::metrics::SIM_MAKESPAN_BOUNDED_ABORTS.inc();
        }
        Ok(result)
    }
}

/// Whether `work`'s amount is finite and non-negative and, for a GEMM, its
/// efficiency finite and positive.
fn work_is_valid(work: Work) -> bool {
    let amount = |x: f64| x.is_finite() && x >= 0.0;
    match work {
        Work::MatmulFlops { flops, efficiency } => {
            amount(flops) && efficiency.is_finite() && efficiency > 0.0
        }
        Work::HbmBytes { bytes } | Work::LinkBytes { bytes, .. } => amount(bytes),
        Work::Latency { seconds } => amount(seconds),
    }
}

thread_local! {
    /// One warm scratch per thread: repeated simulations (e.g. a tuner worker
    /// thread pricing candidates back to back) reuse its buffers without any
    /// caller-side plumbing.
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuSpec, ResourceKind, Task, TaskId};

    fn engine() -> Engine {
        Engine::new(ClusterSpec::h800_node(4))
    }

    #[test]
    fn empty_graph_has_zero_makespan() {
        let trace = engine().run(&TaskGraph::new()).unwrap();
        assert_eq!(trace.makespan(), 0.0);
        assert!(trace.entries().is_empty());
        assert_eq!(
            engine().makespan(&TaskGraph::new(), f64::INFINITY).unwrap(),
            BoundedMakespan::Finished(0.0)
        );
    }

    #[test]
    fn independent_tasks_on_different_resources_overlap() {
        let mut g = TaskGraph::new();
        g.add_task(
            "compute",
            0,
            ResourceKind::Sm,
            132,
            Work::Latency { seconds: 1.0 },
        );
        g.add_task(
            "copy",
            0,
            ResourceKind::DmaEngine,
            1,
            Work::Latency { seconds: 1.0 },
        );
        let trace = engine().run(&g).unwrap();
        assert!(
            (trace.makespan() - 1.0).abs() < 1e-9,
            "tasks should overlap"
        );
    }

    #[test]
    fn tasks_on_the_same_saturated_resource_serialise() {
        let mut g = TaskGraph::new();
        g.add_task(
            "a",
            0,
            ResourceKind::Sm,
            132,
            Work::Latency { seconds: 1.0 },
        );
        g.add_task(
            "b",
            0,
            ResourceKind::Sm,
            132,
            Work::Latency { seconds: 1.0 },
        );
        let trace = engine().run(&g).unwrap();
        assert!((trace.makespan() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn partial_sm_allocations_share_the_gpu() {
        let mut g = TaskGraph::new();
        g.add_task("a", 0, ResourceKind::Sm, 66, Work::Latency { seconds: 1.0 });
        g.add_task("b", 0, ResourceKind::Sm, 66, Work::Latency { seconds: 1.0 });
        let trace = engine().run(&g).unwrap();
        assert!((trace.makespan() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_serialise_even_across_resources() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 0, ResourceKind::Sm, 1, Work::Latency { seconds: 1.0 });
        let b = g.add_task(
            "b",
            1,
            ResourceKind::DmaEngine,
            1,
            Work::Latency { seconds: 0.5 },
        );
        g.add_dep(a, b);
        let trace = engine().run(&g).unwrap();
        assert!((trace.makespan() - 1.5).abs() < 1e-9);
        assert!(trace.entry(b).unwrap().start >= trace.entry(a).unwrap().end);
    }

    #[test]
    fn link_transfer_occupies_both_endpoints() {
        let mut g = TaskGraph::new();
        // Two transfers into rank 1 at full port share must serialise on rank 1's ingress.
        g.add_task(
            "c0",
            0,
            ResourceKind::LinkOut,
            100,
            Work::LinkBytes {
                bytes: 200e9,
                dst_rank: 1,
            },
        );
        g.add_task(
            "c2",
            2,
            ResourceKind::LinkOut,
            100,
            Work::LinkBytes {
                bytes: 200e9,
                dst_rank: 1,
            },
        );
        let trace = engine().run(&g).unwrap();
        // each transfer is 1 s at 200 GB/s
        assert!((trace.makespan() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = TaskGraph::new();
        let a = g.add_host_latency("a", 0, 1.0);
        let b = g.add_host_latency("b", 0, 1.0);
        g.add_dep(a, b);
        g.add_dep(b, a);
        assert!(matches!(
            engine().run(&g),
            Err(SimError::DependencyCycle { .. })
        ));
        assert!(matches!(
            engine().makespan(&g, f64::INFINITY),
            Err(SimError::DependencyCycle { .. })
        ));
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let mut g = TaskGraph::new();
        g.add_host_latency("a", 9, 1.0);
        assert!(matches!(
            engine().run(&g),
            Err(SimError::InvalidRank { .. })
        ));
    }

    #[test]
    fn oversized_request_is_rejected() {
        let mut g = TaskGraph::new();
        g.push(Task::new(
            "too-big",
            0,
            ResourceKind::Sm,
            500,
            Work::Latency { seconds: 1.0 },
        ));
        assert!(matches!(
            engine().run(&g),
            Err(SimError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn invalid_work_is_rejected_by_both_paths() {
        let bad = [
            Work::MatmulFlops {
                flops: -1.0,
                efficiency: 0.5,
            },
            Work::MatmulFlops {
                flops: f64::NAN,
                efficiency: 0.5,
            },
            Work::MatmulFlops {
                flops: 1e9,
                efficiency: 0.0,
            },
            Work::MatmulFlops {
                flops: 1e9,
                efficiency: -0.5,
            },
            Work::MatmulFlops {
                flops: 1e9,
                efficiency: f64::INFINITY,
            },
            Work::MatmulFlops {
                flops: 1e9,
                efficiency: f64::NAN,
            },
            Work::HbmBytes { bytes: -1.0 },
            Work::HbmBytes {
                bytes: f64::INFINITY,
            },
            Work::LinkBytes {
                bytes: -8.0,
                dst_rank: 1,
            },
            Work::LinkBytes {
                bytes: f64::NAN,
                dst_rank: 1,
            },
            Work::Latency { seconds: -1e-6 },
            Work::Latency {
                seconds: f64::NEG_INFINITY,
            },
            Work::Latency { seconds: f64::NAN },
        ];
        for work in bad {
            let mut g = TaskGraph::new();
            g.add_host_latency("ok", 0, 1e-6);
            let task = g.add_task("bad", 0, ResourceKind::LinkOut, 50, work);
            let expected = SimError::InvalidWork { task };
            assert_eq!(engine().run(&g).unwrap_err(), expected, "{work:?}");
            for cutoff in [f64::INFINITY, 0.0] {
                assert_eq!(
                    engine().makespan(&g, cutoff).unwrap_err(),
                    expected,
                    "{work:?}"
                );
            }
        }
        // Zero amounts are valid work: a zero-second latency ends where it
        // starts.
        let mut g = TaskGraph::new();
        g.add_host_latency("free", 0, 0.0);
        g.add_task(
            "empty",
            0,
            ResourceKind::Sm,
            1,
            Work::HbmBytes { bytes: 0.0 },
        );
        assert_eq!(engine().run(&g).unwrap().makespan(), 0.0);
        assert_eq!(
            engine().makespan(&g, f64::INFINITY).unwrap(),
            BoundedMakespan::Finished(0.0)
        );
    }

    #[test]
    fn matmul_work_uses_cost_model() {
        let gpu = GpuSpec::h800();
        let flops = 0.5 * gpu.peak_flops(); // half a second of work at peak
        let mut g = TaskGraph::new();
        g.add_task(
            "gemm",
            0,
            ResourceKind::Sm,
            gpu.sm_count,
            Work::MatmulFlops {
                flops,
                efficiency: 1.0,
            },
        );
        let trace = Engine::new(ClusterSpec::new(gpu, 1, 1)).run(&g).unwrap();
        assert!((trace.makespan() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn engine_with_calibrated_cost_slows_small_transfers() {
        let cluster = ClusterSpec::h800_node(2);
        let mut g = TaskGraph::new();
        g.add_task(
            "signal",
            0,
            ResourceKind::DmaEngine,
            1,
            Work::LinkBytes {
                bytes: 8.0,
                dst_rank: 1,
            },
        );
        let analytic = Engine::new(cluster.clone()).run(&g).unwrap().makespan();
        let calibrated = Engine::with_cost(std::sync::Arc::new(
            crate::CalibratedCostModel::h800_defaults(cluster),
        ))
        .run(&g)
        .unwrap()
        .makespan();
        assert!(analytic > 0.0, "α floor keeps signals from being free");
        assert!(calibrated > analytic);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut g = TaskGraph::new();
        for i in 0..50 {
            let t = g.add_task(
                format!("t{i}"),
                i % 4,
                ResourceKind::Sm,
                32,
                Work::Latency {
                    seconds: 0.01 * (i % 7 + 1) as f64,
                },
            );
            if i >= 4 {
                g.add_dep(TaskId(i - 4), t);
            }
        }
        let e = engine();
        let a = e.run(&g).unwrap();
        let b = e.run(&g).unwrap();
        assert_eq!(a.makespan(), b.makespan());
    }

    /// Prices every task by running a nested simulation on the same thread —
    /// the re-entrancy case the thread-local scratch must tolerate.
    #[derive(Debug)]
    struct RecursiveCost {
        inner: SharedCost,
    }

    impl CostProvider for RecursiveCost {
        fn cluster(&self) -> &ClusterSpec {
            self.inner.cluster()
        }

        fn duration(&self, task: &crate::Task, units: u64) -> Seconds {
            let mut sub = TaskGraph::new();
            sub.add_host_latency("nested", 0, 1e-6);
            let nested = Engine::with_cost(self.inner.clone())
                .makespan(&sub, f64::INFINITY)
                .expect("nested simulation")
                .clock();
            self.inner.duration(task, units) + nested
        }

        fn revision(&self) -> String {
            "recursive-test".to_string()
        }
    }

    #[test]
    fn engine_survives_reentrant_cost_providers() {
        let cluster = ClusterSpec::h800_node(2);
        let cost: SharedCost = std::sync::Arc::new(RecursiveCost {
            inner: analytic_cost(&cluster),
        });
        let engine = Engine::with_cost(cost);
        let mut g = TaskGraph::new();
        g.add_task("a", 0, ResourceKind::Sm, 66, Work::Latency { seconds: 1.0 });
        g.add_task("b", 1, ResourceKind::Sm, 66, Work::Latency { seconds: 2.0 });
        // Both recorders must price through the nested simulation without
        // panicking on the thread-local scratch.
        let traced = engine.run(&g).unwrap().makespan();
        let fast = engine.makespan(&g, f64::INFINITY).unwrap().clock();
        assert_eq!(fast.to_bits(), traced.to_bits());
        assert!((fast - (2.0 + 1e-6)).abs() < 1e-9);
    }

    fn chain_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        for i in 0..40 {
            let t = g.add_task(
                format!("t{i}"),
                i % 4,
                ResourceKind::Sm,
                48,
                Work::Latency {
                    seconds: 0.01 * (i % 5 + 1) as f64,
                },
            );
            if i >= 3 {
                g.add_dep(TaskId(i - 3), t);
            }
        }
        g
    }

    #[test]
    fn bounded_makespan_is_bit_identical_when_cutoff_not_hit() {
        let g = chain_graph();
        let e = engine();
        let exact = e.run(&g).unwrap().makespan();
        for cutoff in [f64::INFINITY, exact * 2.0, exact] {
            match e.makespan(&g, cutoff).unwrap() {
                BoundedMakespan::Finished(m) => assert_eq!(m.to_bits(), exact.to_bits()),
                BoundedMakespan::Exceeded(c) => panic!("cutoff {cutoff} wrongly aborted at {c}"),
            }
        }
    }

    #[test]
    fn bounded_makespan_aborts_below_the_true_makespan() {
        let g = chain_graph();
        let e = engine();
        let exact = e.run(&g).unwrap().makespan();
        let before = tilelink_probe::metrics::SIM_MAKESPAN_BOUNDED_ABORTS.get();
        match e.makespan(&g, exact * 0.25).unwrap() {
            BoundedMakespan::Exceeded(clock) => {
                assert!(clock > exact * 0.25, "abort clock must exceed the cutoff");
                assert!(
                    clock <= exact,
                    "abort clock is a lower bound on the true makespan"
                );
            }
            BoundedMakespan::Finished(m) => panic!("cutoff below makespan {m} did not abort"),
        }
        assert!(tilelink_probe::metrics::SIM_MAKESPAN_BOUNDED_ABORTS.get() > before);
        // Zero cutoff aborts at the very first completion batch.
        assert!(matches!(
            e.makespan(&g, 0.0).unwrap(),
            BoundedMakespan::Exceeded(_)
        ));
    }

    #[test]
    fn bounded_makespan_validates_like_the_unbounded_path() {
        let mut g = TaskGraph::new();
        g.add_host_latency("a", 9, 1.0);
        // Validation runs before any scheduling, whatever the cutoff.
        for cutoff in [f64::INFINITY, 0.0] {
            assert!(matches!(
                engine().makespan(&g, cutoff),
                Err(SimError::InvalidRank { .. })
            ));
        }
    }

    #[test]
    fn makespan_matches_run_and_reuses_scratch() {
        let mut g = TaskGraph::new();
        for i in 0..40 {
            let t = g.add_task(
                format!("t{i}"),
                i % 4,
                ResourceKind::Sm,
                48,
                Work::Latency {
                    seconds: 0.01 * (i % 5 + 1) as f64,
                },
            );
            if i >= 3 {
                g.add_dep(TaskId(i - 3), t);
            }
        }
        let e = engine();
        let traced = e.run(&g).unwrap().makespan();
        // The thread's scratch is reused across repeated runs without
        // changing the result.
        let before = tilelink_probe::metrics::SIM_SCRATCH_REUSES.get();
        for _ in 0..3 {
            assert_eq!(
                e.makespan(&g, f64::INFINITY).unwrap(),
                BoundedMakespan::Finished(traced)
            );
        }
        assert!(tilelink_probe::metrics::SIM_SCRATCH_REUSES.get() >= before + 3);
    }
}

//! Execution traces: per-task timing, makespan and utilisation.

use std::collections::HashMap;
use std::sync::Arc;

use crate::{ClusterSpec, ResourceKind, Seconds, TaskId};

/// Timing of one executed task.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Task id within the graph.
    pub task: TaskId,
    /// Task name (shares the interned allocation of [`crate::Task::name`]).
    pub name: Arc<str>,
    /// Rank the task ran on.
    pub rank: usize,
    /// Resource kind the task occupied.
    pub resource: ResourceKind,
    /// Units of the resource held.
    pub units: u64,
    /// Start time in seconds.
    pub start: Seconds,
    /// End time in seconds.
    pub end: Seconds,
}

impl TraceEntry {
    /// Duration of the task in seconds.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }
}

/// The result of running a [`crate::TaskGraph`] on the [`crate::Engine`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    cluster: ClusterSpec,
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Builds a trace from entries (used by the engine).
    pub fn new(cluster: ClusterSpec, entries: Vec<TraceEntry>) -> Self {
        Self { cluster, entries }
    }

    /// All trace entries in task-id order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The entry for one task, if it executed.
    pub fn entry(&self, id: TaskId) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.task == id)
    }

    /// Total simulated wall-clock time (seconds).
    pub fn makespan(&self) -> Seconds {
        self.entries.iter().map(|e| e.end).fold(0.0, f64::max)
    }

    /// Sum of `duration × occupied-fraction` for one resource on one rank,
    /// normalised by the makespan: 1.0 means the resource was fully busy.
    pub fn utilization(&self, rank: usize, resource: ResourceKind) -> f64 {
        let capacity = self.cluster.resource_capacity(resource) as f64;
        let makespan = self.makespan();
        if makespan == 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .entries
            .iter()
            .filter(|e| e.rank == rank && e.resource == resource)
            .map(|e| e.duration() * e.units as f64 / capacity)
            .sum();
        busy / makespan
    }

    /// Sum of the durations of every entry whose name contains `needle`.
    ///
    /// Useful to separate "communication time" from "computation time" when
    /// computing the paper's overlap ratio (Section 7.2).
    pub fn total_time_of(&self, needle: &str) -> Seconds {
        self.entries
            .iter()
            .filter(|e| e.name.contains(needle))
            .map(|e| e.duration())
            .sum()
    }

    /// Per-rank busy time of one resource kind, in seconds.
    pub fn busy_seconds(&self) -> HashMap<(usize, ResourceKind), Seconds> {
        let mut map = HashMap::new();
        for e in &self.entries {
            *map.entry((e.rank, e.resource)).or_insert(0.0) += e.duration();
        }
        map
    }

    /// Serialises the trace in the Chrome `trace_event` JSON array format.
    ///
    /// Ranks map to processes (`pid`), resource kinds to thread lanes (`tid`
    /// = [`ResourceKind::index`], with `thread_name`/`thread_sort_index`
    /// metadata so lanes are labelled and stably ordered). Times are emitted
    /// in microseconds as the format requires. The output loads in
    /// `chrome://tracing` or Perfetto to inspect the overlap visually.
    pub fn to_chrome_json(&self) -> String {
        let mut trace = tilelink_probe::ChromeTrace::new();
        let mut ranks: Vec<usize> = self.entries.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for &rank in &ranks {
            trace.process_name(rank as u64, &format!("rank {rank}"));
            for kind in ResourceKind::ALL {
                if self
                    .entries
                    .iter()
                    .any(|e| e.rank == rank && e.resource == kind)
                {
                    let tid = kind.index() as u64;
                    trace.thread_name(rank as u64, tid, &kind.to_string());
                    trace.thread_sort_index(rank as u64, tid, tid);
                }
            }
        }
        for e in &self.entries {
            let category = match e.resource {
                ResourceKind::Sm => "compute",
                ResourceKind::Host => "host",
                _ => "comm",
            };
            trace.complete_event(
                &e.name,
                category,
                e.rank as u64,
                e.resource.index() as u64,
                e.start * 1e6,
                e.duration() * 1e6,
            );
        }
        trace.to_json()
    }

    /// Aggregates the trace into a per-rank × per-resource busy-time and
    /// utilisation table plus a comm-vs-compute overlap ratio.
    ///
    /// The overlap ratio mirrors the paper's Section 7.2 definition (the
    /// fraction of communication hidden behind computation): with `comm` and
    /// `comp` the summed busy time of `comm_*` / `compute_*` tasks (via
    /// [`Trace::total_time_of`]), it is `(comm + comp - makespan) / comm`
    /// clamped to `[0, 1]`.
    pub fn summary(&self) -> TraceSummary {
        let busy = self.busy_seconds();
        let makespan = self.makespan();
        let mut rows = Vec::new();
        let mut ranks: Vec<usize> = busy.keys().map(|&(rank, _)| rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for rank in ranks {
            for resource in ResourceKind::ALL {
                if let Some(&busy_s) = busy.get(&(rank, resource)) {
                    rows.push(SummaryRow {
                        rank,
                        resource,
                        busy_s,
                        utilization: self.utilization(rank, resource),
                    });
                }
            }
        }
        let comm_busy_s = self.total_time_of("comm_");
        let compute_busy_s = self.total_time_of("compute_");
        let overlap_ratio = if comm_busy_s > 0.0 {
            ((comm_busy_s + compute_busy_s - makespan) / comm_busy_s).clamp(0.0, 1.0)
        } else {
            0.0
        };
        TraceSummary {
            rows,
            makespan_s: makespan,
            comm_busy_s,
            compute_busy_s,
            overlap_ratio,
        }
    }
}

/// One row of a [`TraceSummary`]: one resource kind on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Rank the resource belongs to.
    pub rank: usize,
    /// Resource kind.
    pub resource: ResourceKind,
    /// Summed busy time of the resource in seconds.
    pub busy_s: Seconds,
    /// Capacity-weighted busy fraction of the makespan (see
    /// [`Trace::utilization`]).
    pub utilization: f64,
}

/// Per-rank × per-resource utilisation summary of a [`Trace`], produced by
/// [`Trace::summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Rows sorted by rank then resource lane order, only for resources that
    /// actually ran work.
    pub rows: Vec<SummaryRow>,
    /// Makespan of the trace in seconds.
    pub makespan_s: Seconds,
    /// Summed busy time of `comm_*` tasks in seconds.
    pub comm_busy_s: Seconds,
    /// Summed busy time of `compute_*` tasks in seconds.
    pub compute_busy_s: Seconds,
    /// Fraction of communication hidden behind computation, in `[0, 1]`.
    pub overlap_ratio: f64,
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>5} {:>9} {:>12} {:>6}",
            "rank", "resource", "busy ms", "util"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>5} {:>9} {:>12.4} {:>5.1}%",
                row.rank,
                row.resource.to_string(),
                row.busy_s * 1e3,
                row.utilization * 100.0
            )?;
        }
        writeln!(
            f,
            "makespan {:.4} ms | comm busy {:.4} ms | compute busy {:.4} ms | overlap {:.1}%",
            self.makespan_s * 1e3,
            self.comm_busy_s * 1e3,
            self.compute_busy_s * 1e3,
            self.overlap_ratio * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, TaskGraph, Work};

    fn simple_trace() -> Trace {
        let mut g = TaskGraph::new();
        let a = g.add_task(
            "comm_copy",
            0,
            ResourceKind::LinkOut,
            100,
            Work::Latency { seconds: 1.0 },
        );
        let b = g.add_task(
            "compute_gemm",
            0,
            ResourceKind::Sm,
            66,
            Work::Latency { seconds: 2.0 },
        );
        g.add_dep(a, b);
        Engine::new(ClusterSpec::h800_node(2)).run(&g).unwrap()
    }

    #[test]
    fn makespan_and_entries() {
        let t = simple_trace();
        assert!((t.makespan() - 3.0).abs() < 1e-9);
        assert_eq!(t.entries().len(), 2);
        assert!(t.entry(TaskId(0)).is_some());
        assert!(t.entry(TaskId(9)).is_none());
    }

    #[test]
    fn utilization_accounts_for_partial_occupancy() {
        let t = simple_trace();
        // GEMM holds 66/132 SMs for 2 of the 3 seconds → 1/3 utilisation.
        let sm = t.utilization(0, ResourceKind::Sm);
        assert!((sm - 2.0 / 3.0 * 0.5).abs() < 1e-9);
        // Nothing ran on rank 1.
        assert_eq!(t.utilization(1, ResourceKind::Sm), 0.0);
    }

    #[test]
    fn total_time_of_filters_by_name() {
        let t = simple_trace();
        assert!((t.total_time_of("comm") - 1.0).abs() < 1e-9);
        assert!((t.total_time_of("compute") - 2.0).abs() < 1e-9);
        assert_eq!(t.total_time_of("nonexistent"), 0.0);
    }

    #[test]
    fn busy_seconds_by_rank_and_kind() {
        let t = simple_trace();
        let busy = t.busy_seconds();
        assert!((busy[&(0, ResourceKind::Sm)] - 2.0).abs() < 1e-9);
        assert!((busy[&(0, ResourceKind::LinkOut)] - 1.0).abs() < 1e-9);
    }

    /// A deterministic two-rank trace with hand-computable numbers:
    /// rank 0 runs comm (2 s) → compute (1 s) serially, rank 1 runs the same
    /// pair fully in parallel.
    fn two_rank_trace() -> Trace {
        let mut g = TaskGraph::new();
        let a = g.add_task(
            "comm_copy/r0",
            0,
            ResourceKind::LinkOut,
            100,
            Work::Latency { seconds: 2.0 },
        );
        let b = g.add_task(
            "compute_gemm/r0",
            0,
            ResourceKind::Sm,
            66,
            Work::Latency { seconds: 1.0 },
        );
        g.add_dep(a, b);
        g.add_task(
            "comm_copy/r1",
            1,
            ResourceKind::LinkOut,
            100,
            Work::Latency { seconds: 2.0 },
        );
        g.add_task(
            "compute_gemm/r1",
            1,
            ResourceKind::Sm,
            66,
            Work::Latency { seconds: 1.0 },
        );
        Engine::new(ClusterSpec::h800_node(2)).run(&g).unwrap()
    }

    #[test]
    fn chrome_json_is_validator_grade() {
        let t = simple_trace();
        let json = t.to_chrome_json();
        let parsed = tilelink_probe::parse_json(&json).expect("chrome trace must be valid JSON");
        let events = parsed.as_array().expect("trace_event array format");
        // 2 task events + process/thread metadata for the one active rank.
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(tilelink_probe::JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        for ev in &complete {
            // Rank → process, resource lane → thread.
            let pid = ev
                .get("pid")
                .and_then(tilelink_probe::JsonValue::as_f64)
                .unwrap();
            let tid = ev
                .get("tid")
                .and_then(tilelink_probe::JsonValue::as_f64)
                .unwrap();
            assert_eq!(pid, 0.0);
            assert!(tid < ResourceKind::COUNT as f64);
            // ts and dur are non-negative microseconds within the makespan.
            let ts = ev
                .get("ts")
                .and_then(tilelink_probe::JsonValue::as_f64)
                .unwrap();
            let dur = ev
                .get("dur")
                .and_then(tilelink_probe::JsonValue::as_f64)
                .unwrap();
            assert!(ts >= 0.0 && dur >= 0.0);
            assert!(ts + dur <= t.makespan() * 1e6 + 1e-3);
        }
        // The copy ran on the link lane, the GEMM on the SM lane.
        let lane_of = |needle: &str| {
            complete
                .iter()
                .find(|e| {
                    e.get("name")
                        .and_then(tilelink_probe::JsonValue::as_str)
                        .is_some_and(|n| n.contains(needle))
                })
                .and_then(|e| e.get("tid"))
                .and_then(tilelink_probe::JsonValue::as_f64)
                .unwrap()
        };
        assert_eq!(lane_of("comm_copy"), ResourceKind::LinkOut.index() as f64);
        assert_eq!(lane_of("compute_gemm"), ResourceKind::Sm.index() as f64);
        // Metadata names the process after its rank.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(tilelink_probe::JsonValue::as_str) == Some("process_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(tilelink_probe::JsonValue::as_str)
                    == Some("rank 0")
        }));
    }

    #[test]
    fn summary_on_a_known_two_rank_graph() {
        let t = two_rank_trace();
        let s = t.summary();
        assert!((s.makespan_s - 3.0).abs() < 1e-9);
        // comm: 2 s on each rank; compute: 1 s on each rank.
        assert!((s.comm_busy_s - 4.0).abs() < 1e-9);
        assert!((s.compute_busy_s - 2.0).abs() < 1e-9);
        // overlap = (comm + comp - makespan) / comm = (4 + 2 - 3) / 4.
        assert!((s.overlap_ratio - 0.75).abs() < 1e-9);
        // One link row and one SM row per rank, sorted by rank then lane.
        assert_eq!(s.rows.len(), 4);
        assert_eq!(s.rows[0].rank, 0);
        assert_eq!(s.rows[0].resource, ResourceKind::Sm);
        assert_eq!(s.rows[1].resource, ResourceKind::LinkOut);
        // Rank 0's SM: 1 s × 66/132 SMs over a 3 s makespan.
        assert!((s.rows[0].busy_s - 1.0).abs() < 1e-9);
        assert!((s.rows[0].utilization - 1.0 / 3.0 * 0.5).abs() < 1e-9);
        // The rendered table carries the headline numbers.
        let text = s.to_string();
        assert!(text.contains("rank"));
        assert!(text.contains("overlap 75.0%"));
    }

    #[test]
    fn empty_trace_metrics() {
        let t = Trace::new(ClusterSpec::h800_node(1), Vec::new());
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.utilization(0, ResourceKind::Sm), 0.0);
    }
}

//! Task-graph construction API.

use crate::{ResourceKind, Task, TaskId, TaskLabel, Work};

/// A dependency graph of simulated tasks.
///
/// Graphs are built by the timed executor of the `tilelink` crate (one graph
/// per compiled kernel or per baseline implementation) and executed by
/// [`crate::Engine::run`]. Edges express "must finish before": the tile-centric
/// notify/wait pairs of the functional runtime become dependency edges here.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    /// `edges[i]` lists the tasks that depend on task `i`. May hold warm
    /// spare slots beyond `tasks.len()` after a [`Self::reset`]; only the
    /// first `tasks.len()` entries are live.
    successors: Vec<Vec<TaskId>>,
    /// Number of unfinished predecessors per task.
    predecessor_count: Vec<usize>,
}

/// Equality over the *live* graph only: warm spare successor slots kept by
/// [`TaskGraph::reset`] for reuse do not affect comparisons.
impl PartialEq for TaskGraph {
    fn eq(&self, other: &Self) -> bool {
        self.tasks == other.tasks
            && self.predecessor_count == other.predecessor_count
            && self.successors[..self.tasks.len()] == other.successors[..other.tasks.len()]
    }
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the graph for rebuilding while keeping every allocation warm:
    /// the task table, the predecessor counts and — crucially — each per-task
    /// successor `Vec`, so the next build's `add_dep`s do not reallocate.
    pub fn reset(&mut self) {
        self.tasks.clear();
        self.predecessor_count.clear();
        for edges in &mut self.successors {
            edges.clear();
        }
    }

    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` if the graph holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task and returns its id.
    pub fn add_task(
        &mut self,
        name: impl Into<TaskLabel>,
        rank: usize,
        resource: ResourceKind,
        units: u64,
        work: Work,
    ) -> TaskId {
        self.push(Task::new(name, rank, resource, units, work))
    }

    /// Adds an already-constructed task and returns its id.
    pub fn push(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(task);
        if self.successors.len() < self.tasks.len() {
            self.successors.push(Vec::new());
        }
        self.predecessor_count.push(0);
        id
    }

    /// Declares that `before` must finish before `after` may start.
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this graph.
    pub fn add_dep(&mut self, before: TaskId, after: TaskId) {
        assert!(before.0 < self.tasks.len(), "unknown predecessor task");
        assert!(after.0 < self.tasks.len(), "unknown successor task");
        self.successors[before.0].push(after);
        self.predecessor_count[after.0] += 1;
    }

    /// Adds a fixed-latency host task, a common convenience for kernel-launch
    /// and synchronisation overheads.
    pub fn add_host_latency(
        &mut self,
        name: impl Into<TaskLabel>,
        rank: usize,
        seconds: f64,
    ) -> TaskId {
        self.add_task(name, rank, ResourceKind::Host, 1, Work::Latency { seconds })
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Iterates over `(id, task)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Tasks that depend on `id`.
    pub(crate) fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.successors[id.0]
    }

    /// Copies the predecessor counts into `out`, reusing its allocation (the
    /// scheduler runs this once per simulation).
    pub(crate) fn fill_predecessor_counts(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.predecessor_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn add_tasks_and_deps() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 0, ResourceKind::Sm, 1, Work::Latency { seconds: 1.0 });
        let b = g.add_task("b", 0, ResourceKind::Sm, 1, Work::Latency { seconds: 1.0 });
        let c = g.add_host_latency("c", 0, 0.5);
        g.add_dep(a, b);
        g.add_dep(a, c);
        g.add_dep(b, c);
        assert_eq!(g.len(), 3);
        assert_eq!(g.successors(a), &[b, c]);
        let mut counts = Vec::new();
        g.fill_predecessor_counts(&mut counts);
        assert_eq!(counts, vec![0, 1, 2]);
        assert_eq!(&*g.task(c).name, "c");
    }

    #[test]
    #[should_panic(expected = "unknown successor task")]
    fn dep_on_unknown_task_panics() {
        let mut g = TaskGraph::new();
        let a = g.add_host_latency("a", 0, 0.0);
        g.add_dep(a, TaskId(7));
    }

    #[test]
    fn reset_keeps_slots_warm_and_rebuilds_identically() {
        let build = |g: &mut TaskGraph| {
            let a = g.add_task("a", 0, ResourceKind::Sm, 1, Work::Latency { seconds: 1.0 });
            let b = g.add_task("b", 0, ResourceKind::Sm, 1, Work::Latency { seconds: 1.0 });
            g.add_dep(a, b);
        };
        let mut fresh = TaskGraph::new();
        build(&mut fresh);
        // A bigger graph first, so reset leaves spare warm slots behind.
        let mut reused = TaskGraph::new();
        for i in 0..5 {
            reused.add_host_latency(format!("t{i}"), 0, 0.0);
        }
        reused.add_dep(TaskId(0), TaskId(4));
        reused.reset();
        assert!(reused.is_empty());
        build(&mut reused);
        assert_eq!(reused, fresh);
        assert_eq!(fresh, reused);
        assert_eq!(reused.successors(TaskId(0)), &[TaskId(1)]);
        let mut counts = Vec::new();
        reused.fill_predecessor_counts(&mut counts);
        assert_eq!(counts, vec![0, 1]);
    }

    #[test]
    fn iter_visits_in_insertion_order() {
        let mut g = TaskGraph::new();
        g.add_host_latency("first", 0, 0.0);
        g.add_host_latency("second", 0, 0.0);
        let names: Vec<&str> = g.iter().map(|(_, t)| &*t.name).collect();
        assert_eq!(names, vec!["first", "second"]);
    }
}

//! Error type for the cluster simulator.

use std::fmt;

use crate::TaskId;

/// Errors produced while building or executing a simulated task graph.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A dependency edge referenced a task id that does not exist.
    UnknownTask {
        /// The offending task id.
        task: TaskId,
    },
    /// A task requested more resource units than the rank's capacity.
    InsufficientCapacity {
        /// The offending task id.
        task: TaskId,
        /// Units requested.
        requested: u64,
        /// Capacity of the resource on that rank.
        capacity: u64,
    },
    /// A task referenced a rank outside the cluster.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// World size of the cluster.
        world_size: usize,
    },
    /// A task's work has a negative or non-finite amount (`flops`, `bytes` or
    /// `seconds`), or a GEMM efficiency that is not finite and positive.
    InvalidWork {
        /// The offending task id.
        task: TaskId,
    },
    /// The dependency graph contains a cycle, so it can never complete.
    DependencyCycle {
        /// Number of tasks that could not be scheduled.
        stuck: usize,
    },
    /// A cost-model calibration table could not be read or parsed, or a
    /// cost-model selector string was malformed.
    Calibration {
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownTask { task } => write!(f, "unknown task id {task:?}"),
            SimError::InsufficientCapacity {
                task,
                requested,
                capacity,
            } => write!(
                f,
                "task {task:?} requested {requested} resource units but only {capacity} exist"
            ),
            SimError::InvalidRank { rank, world_size } => {
                write!(
                    f,
                    "rank {rank} is invalid for a cluster of {world_size} GPUs"
                )
            }
            SimError::InvalidWork { task } => write!(
                f,
                "task {task:?} has a negative or non-finite amount of work, or an efficiency that is not finite and positive"
            ),
            SimError::DependencyCycle { stuck } => {
                write!(
                    f,
                    "dependency cycle detected: {stuck} tasks can never start"
                )
            }
            SimError::Calibration { message } => {
                write!(f, "cost-model calibration error: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let errs = [
            SimError::UnknownTask { task: TaskId(3) },
            SimError::InsufficientCapacity {
                task: TaskId(0),
                requested: 200,
                capacity: 132,
            },
            SimError::InvalidRank {
                rank: 9,
                world_size: 8,
            },
            SimError::InvalidWork { task: TaskId(1) },
            SimError::DependencyCycle { stuck: 2 },
            SimError::Calibration {
                message: "bad table".to_string(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}

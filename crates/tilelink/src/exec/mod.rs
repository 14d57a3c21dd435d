//! Kernel runtimes: functional (threads + real data) and timed (simulator).

pub mod functional;
pub mod timed;

pub use functional::{run_blocks, run_comm_compute};
pub use timed::{simulate_makespan, simulate_report, task_graph};

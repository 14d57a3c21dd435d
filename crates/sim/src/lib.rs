//! # tilelink-sim
//!
//! A discrete-event performance simulator of a multi-GPU cluster. It stands in
//! for the 8×H800 / 16×H800 test beds used in the paper's evaluation
//! (Section 7), which are not available in this environment.
//!
//! The simulator models exactly the resources whose concurrent use produces the
//! paper's speedups:
//!
//! * **streaming multiprocessors (SMs)** — compute kernels and SM-driven copies
//!   occupy a configurable number of SMs for their duration; the GEMM cost model
//!   accounts for tile efficiency and wave quantisation;
//! * **DMA copy engines** — host-triggered `rank_copy_data` transfers run on copy
//!   engines and do not contend with SMs;
//! * **NVLink / InfiniBand ports** — every transfer occupies a share of the
//!   source rank's egress and the destination rank's ingress bandwidth;
//! * **the host** — kernel launches and host-driven synchronisation add latency,
//!   which is what makes the decomposition baseline slow.
//!
//! Work is described as a dependency graph of [`Task`]s ([`TaskGraph`]) and
//! executed by [`Engine::run`], producing a [`Trace`] with per-task timing, a
//! makespan, and per-resource utilisation. Search loops that only need the
//! makespan call [`Engine::makespan`]: the same scheduler with trace
//! recording compiled out and one warm scratch per thread (~33 ms against
//! ~50 ms for `run` over 216 prebuilt 8×H800 kernel graphs of 348k tasks on
//! one thread of a 2-vCPU host). It takes a cutoff and stops once the
//! makespan provably exceeds it ([`BoundedMakespan`]); `f64::INFINITY`
//! prices the graph exactly.
//!
//! Work is priced by a pluggable [`CostProvider`]: the analytic [`CostModel`]
//! (the default — roofline GEMMs, pure-bandwidth links with a per-message α
//! floor) or the measured [`CalibratedCostModel`] (α/β latency plus a
//! size-bucketed achieved-bandwidth table per link class, loadable from a
//! TSV). [`CostModelSpec`] parses `--cost-model` command-line selectors, and
//! every provider exposes a [`CostProvider::revision`] fingerprint that
//! downstream caches fold into their keys.
//!
//! # Example
//!
//! ```
//! use tilelink_sim::{ClusterSpec, Engine, ResourceKind, TaskGraph, Work};
//!
//! let cluster = ClusterSpec::h800_node(2);
//! let mut graph = TaskGraph::new();
//! // A GEMM on rank 0 using all SMs, followed by a copy of its output to rank 1.
//! let gemm = graph.add_task("gemm", 0, ResourceKind::Sm, 132, Work::MatmulFlops {
//!     flops: 2.0 * 4096.0 * 4096.0 * 4096.0,
//!     efficiency: 0.8,
//! });
//! let copy = graph.add_task("push", 0, ResourceKind::LinkOut, 100, Work::LinkBytes {
//!     bytes: 4096.0 * 4096.0 * 2.0,
//!     dst_rank: 1,
//! });
//! graph.add_dep(gemm, copy);
//! let trace = Engine::new(cluster).run(&graph).unwrap();
//! assert!(trace.makespan() > 0.0);
//! ```

#![deny(missing_docs)]

mod calibration;
mod cluster;
mod cost;
mod engine;
mod error;
mod gpu;
mod graph;
mod provider;
mod sched;
mod task;
mod trace;

pub use calibration::{BandwidthBucket, CalibratedCostModel, LinkCalibration};
pub use cluster::{ClusterSpec, LinkClass};
pub use cost::{link_alpha_s, CostModel, ALPHA_INTER_NODE_S, ALPHA_INTRA_NODE_S, ALPHA_SELF_S};
pub use engine::Engine;
pub use error::SimError;
pub use gpu::GpuSpec;
pub use graph::TaskGraph;
pub use provider::{analytic_cost, CostModelSpec, CostProvider, SharedCost};
pub use sched::BoundedMakespan;
pub use task::{ResourceKind, Task, TaskId, TaskLabel, Work};
pub use trace::{Trace, TraceEntry};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SimError>;

/// Simulated time in seconds.
pub type Seconds = f64;

/// Converts microseconds to [`Seconds`].
pub fn us(v: f64) -> Seconds {
    v * 1e-6
}

/// Converts milliseconds to [`Seconds`].
pub fn ms(v: f64) -> Seconds {
    v * 1e-3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_helpers() {
        assert!((us(1.0) - 1e-6).abs() < 1e-12);
        assert!((ms(1.0) - 1e-3).abs() < 1e-9);
    }
}

//! Root crate of the TileLink reproduction workspace.
//!
//! This crate only re-exports the member crates so that the workspace-level
//! examples and integration tests can use a single dependency. See the
//! individual crates for the actual implementation:
//!
//! * [`tilelink`] — the paper's contribution (primitives, mapping, compiler, runtime)
//! * [`tilelink_shmem`] — NVSHMEM-like symmetric memory substrate
//! * [`tilelink_sim`] — discrete-event GPU cluster simulator
//! * [`tilelink_compute`] — dense compute kernels and cost models
//! * [`tilelink_collectives`] — NCCL-like collectives
//! * [`tilelink_tune`] — simulator-guided autotuner over the overlap design space
//! * [`tilelink_workloads`] — MLP / MoE / attention workloads and baselines
//! * [`tilelink_serve`] — tuning-as-a-service daemon (LRU warm cache, deduped searches)
//! * [`tilelink_probe`] — span profiler, metrics registry and Chrome-trace export

pub use tilelink;
pub use tilelink_collectives;
pub use tilelink_compute;
pub use tilelink_probe;
pub use tilelink_serve;
pub use tilelink_shmem;
pub use tilelink_sim;
pub use tilelink_tune;
pub use tilelink_workloads;

//! # tilelink-collectives
//!
//! Collective communication for the TileLink reproduction, standing in for
//! NCCL. Two views of every collective are provided:
//!
//! * **functional** ([`Comm`]) — real data movement between rank threads over
//!   the [`tilelink_shmem`] symmetric memory, used to validate that the
//!   overlapped kernels produce bit-identical results to an unoverlapped
//!   collective + compute reference;
//! * **timed** ([`timed`]) — closed-form ring estimates, used by every
//!   baseline ("cuBLAS+NCCL", "CUTLASS+NCCL", Async-TP) to price the
//!   non-overlapped or decomposed collectives, plus task-graph builders for
//!   the [`tilelink_sim`] discrete-event simulator that serve as their test
//!   reference.
//!
//! The supported collectives are the ones the paper's workloads need
//! (Section 2.1): AllGather, ReduceScatter, AllReduce, All-to-All and
//! Broadcast.
//!
//! # Example
//!
//! ```
//! use tilelink_shmem::ProcessGroup;
//! use tilelink_collectives::Comm;
//!
//! let outputs = ProcessGroup::launch(4, |ctx| {
//!     let mut comm = Comm::new(ctx);
//!     // every rank contributes one value; all-reduce sums them
//!     comm.all_reduce(&[comm.rank() as f32 + 1.0])
//! });
//! assert!(outputs.iter().all(|o| o == &vec![10.0]));
//! ```

#![deny(missing_docs)]

mod functional;
pub mod timed;

pub use functional::Comm;

//! Kernel runtimes: functional (threads + real data) and timed (simulator).
//!
//! The timed runtime prices a compiled kernel three ways:
//!
//! * [`simulate_report`] — the exact [`crate::OverlapReport`] (full,
//!   comm-only and compute-only makespans) of figures and baselines;
//! * [`simulate_makespan`] — the full graph only, under an abort cutoff;
//! * [`MakespanMemo::makespan`] — [`simulate_makespan`] behind a memo keyed
//!   by [`crate::KernelKey`], which simulates each distinct kernel once
//!   (and again only when a recorded abort floor does not settle a new
//!   cutoff). The layer oracles price every candidate a search ranks through
//!   one memo each;
//! * [`MakespanMemo::report`] — [`simulate_report`] with the overlapped
//!   makespan read from the memo: the exact report of a search winner, whose
//!   full graphs the search has already simulated, costs only its comm-only
//!   and compute-only runs.

pub mod functional;
mod memo;
pub mod timed;

pub use functional::{run_blocks, run_comm_compute};
pub use memo::MakespanMemo;
pub use timed::{simulate_makespan, simulate_report, task_graph};

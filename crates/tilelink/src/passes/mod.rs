//! Compiler passes over the tile-level IR.
//!
//! The backend of the paper compiles the frontend primitives into device code
//! through a handful of transformations. The reproduction keeps the same pass
//! structure:
//!
//! * [`lower`](mod@lower) — resolves tile ids through the tile-centric mapping into
//!   concrete channels and destination ranks (the paper's shape / rank /
//!   channel mapping, Section 4.1);
//! * [`consistency`] — verifies that every access to remotely-produced data is
//!   ordered by an acquire wait and every notify is preceded by the stores it
//!   publishes (Section 4.2);
//! * [`pipeline`] — software-pipelines tile loads ahead of compute steps while
//!   respecting the constraints the consistency pass checks (Section 4.2's
//!   discussion of multi-stage pipelining interacting with the primitives);
//! * [`resource`] — maps communication blocks to SMs, the copy engine or a
//!   hybrid of both and decides how many SMs the computation keeps
//!   (Section 3.1's resource-binding subspace).

pub mod consistency;
pub mod lower;
pub mod pipeline;
pub mod resource;

pub use consistency::check_consistency;
pub use lower::{lower, BlockInfo, LoweredBlockRef, LoweredOp, LoweredProgram, Targets};
pub use pipeline::{pipeline_ops, pipeline_program, pipelining_moves};
pub use resource::{PlanInputs, ResourcePlan, TransferLane};

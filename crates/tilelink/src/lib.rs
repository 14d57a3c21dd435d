//! # tilelink
//!
//! The core of the reproduction: the paper's tile-centric programming model for
//! generating compute–communication overlapping kernels.
//!
//! The crate mirrors the paper's frontend/backend split:
//!
//! * **Frontend — tile-centric primitives** ([`primitives`], Table 3 of the
//!   paper): `producer_tile_notify`, `consumer_tile_wait`, `peer_tile_notify`,
//!   `peer_tile_wait`, `rank_notify`, `rank_wait`, `tile_push_data`,
//!   `tile_pull_data` and `rank_copy_data`, with release/acquire memory
//!   consistency. Overlapped kernels are written as per-block programs that use
//!   these primitives, exactly like the pseudo-code of Figures 4–6.
//! * **Backend — tile-centric mapping** ([`mapping`], Section 4.1): static
//!   (affine) and dynamic (lookup-table) mappings from tile ids to shape
//!   ranges, ranks and barrier channels, and the derived [`channel::BlockChannel`]
//!   barrier configuration (Figure 7).
//! * **Compiler** ([`ir`], [`passes`], [`compile`]): a tile-level IR describing
//!   each block's operations, with lowering, memory-consistency checking,
//!   software pipelining and resource-mapping passes, compiled into either an
//!   executable functional kernel or a simulator task graph.
//! * **Runtimes** ([`exec`]): the *functional* runtime executes blocks as
//!   threads over real data (validating numerics of the overlapped
//!   algorithms), and the *timed* runtime executes the compiled kernel on the
//!   `tilelink-sim` cluster simulator (producing the performance numbers for
//!   the paper's figures).
//!
//! See `tilelink-workloads` for the tensor-parallel MLP, MoE and
//! sequence-parallel attention layers built on these APIs.

#![deny(missing_docs)]

pub mod channel;
pub mod compile;
pub mod config;
pub mod error;
pub mod exec;
pub mod ir;
pub mod mapping;
pub mod passes;
pub mod primitives;
pub mod report;
pub mod tile;

pub use channel::BlockChannel;
pub use compile::{reset_compile_cache, CacheSite, CompiledKernel, Compiler, KernelKey};
pub use config::{CommMapping, OverlapConfig, TileOrder, TileShape, TransferMode};
pub use error::TileLinkError;
pub use mapping::{DynamicMapping, StaticMapping, TileMapping};
pub use primitives::DeviceHandle;
pub use report::OverlapReport;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TileLinkError>;

//! Tile-level intermediate representation of fused kernels.
//!
//! A [`TileProgram`] describes one fused compute–communication kernel as a set
//! of per-rank *blocks* (the unit a GPU block scheduler dispatches). Each block
//! is a straight-line sequence of [`TileOp`]s: tile-granular loads, stores,
//! compute steps, data transfers and the tile-centric synchronisation
//! primitives. Loops that the paper's kernels write over ranks or stages
//! (Figure 4's ring, Figure 5's K loop) are unrolled when the program is
//! constructed, because the world size and tile counts are known at compile
//! time — the same property the paper's static mapping exploits.
//!
//! The IR deliberately stays at tile granularity: it is the representation the
//! compiler passes reason about (lowering, memory consistency, pipelining,
//! resource mapping) and the input of the timed executor. Functional execution
//! uses the primitives API directly (see [`crate::exec::functional`]).

mod intern;
mod name;
mod op;
mod program;

pub use intern::Symbol;
pub use name::{BlockName, NamePattern};
pub use op::{ComputeKind, TileOp};
pub use program::{BlockDesc, BlockRole, TileProgram};

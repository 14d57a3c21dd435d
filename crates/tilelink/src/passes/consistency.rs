//! Memory-consistency verification.
//!
//! Section 4.2 of the paper: notify primitives carry release semantics and wait
//! primitives carry acquire semantics, and the compiler must make sure that
//! pipelining passes never move a data access across the primitive that orders
//! it. This pass checks the two invariants on the (possibly pipelined) IR:
//!
//! 1. every load of remotely-produced tile data is preceded, in program order,
//!    by a wait that covers that tile's channel (acquire-before-load);
//! 2. every notify is preceded by the store/push of the tile it publishes
//!    (store-before-release).
//!
//! The per-block membership sets ("which channels are acquired", "which tiles
//! are published") are generation-stamped dense arrays held in a thread-local
//! scratch: clearing them between blocks is a generation bump, not a
//! reallocation, so a compile of thousands of blocks allocates the scratch
//! once per thread.

use std::cell::RefCell;

use crate::ir::{BlockRole, TileOp};
use crate::passes::lower::{LoweredBlockRef, LoweredProgram};
use crate::{Result, TileLinkError};

/// A dense set of small integers with O(1) generation-stamped clearing.
#[derive(Default)]
struct StampedSet {
    stamps: Vec<u32>,
    generation: u32,
    len: usize,
}

impl StampedSet {
    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: old stamps could alias the new generation, so reset.
            self.stamps.clear();
            self.generation = 1;
        }
        self.len = 0;
    }

    fn insert(&mut self, key: usize) {
        if key >= self.stamps.len() {
            self.stamps.resize(key + 1, 0);
        }
        if self.stamps[key] != self.generation {
            self.stamps[key] = self.generation;
            self.len += 1;
        }
    }

    fn contains(&self, key: usize) -> bool {
        self.stamps.get(key) == Some(&self.generation)
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Default)]
struct CheckScratch {
    acquired_channels: StampedSet,
    acquired_peer_slots: StampedSet,
    published_tiles: StampedSet,
}

thread_local! {
    static CHECK_SCRATCH: RefCell<CheckScratch> = RefCell::default();
}

/// Checks the acquire/release ordering invariants on every block.
///
/// # Errors
///
/// Returns [`TileLinkError::ConsistencyViolation`] describing the first
/// offending operation.
pub fn check_consistency(program: &LoweredProgram) -> Result<()> {
    CHECK_SCRATCH.with(|scratch| {
        // `try_borrow_mut` guards against re-entrant checks on one thread (a
        // cost callback compiling another kernel); the fallback path just
        // allocates a private scratch.
        match scratch.try_borrow_mut() {
            Ok(mut s) => check_with(&mut s, program),
            Err(_) => check_with(&mut CheckScratch::default(), program),
        }
    })
}

fn check_with(scratch: &mut CheckScratch, program: &LoweredProgram) -> Result<()> {
    for block in program.iter_blocks() {
        check_block(scratch, &block)?;
    }
    Ok(())
}

fn check_block(scratch: &mut CheckScratch, block: &LoweredBlockRef<'_>) -> Result<()> {
    // Channels already acquired by a wait, and peer slots already waited on.
    scratch.acquired_channels.clear();
    scratch.acquired_peer_slots.clear();
    // Tiles whose data this block has stored or pushed.
    scratch.published_tiles.clear();
    let mut pushed_any = false;
    // Host-driven copies publish whole segments rather than individual tiles.
    let mut host_copied = false;

    for (idx, lop) in block.ops.iter().enumerate() {
        match &lop.op {
            TileOp::ConsumerWait { .. } => {
                if let Some(c) = lop.channel {
                    scratch.acquired_channels.insert(c as usize);
                }
            }
            TileOp::PeerWait { slot, .. } => {
                scratch.acquired_peer_slots.insert(*slot);
            }
            TileOp::RankNotifySegment { .. } => {
                // host-side release; nothing to check locally
            }
            TileOp::LoadTile { tile: Some(_), .. } => {
                // A load of remotely produced data must be covered by an
                // acquire on its channel (consumer blocks) or a peer wait
                // (ring-style peers).
                let channel_ok = lop
                    .channel
                    .map(|c| scratch.acquired_channels.contains(c as usize))
                    .unwrap_or(false);
                let peer_ok = !scratch.acquired_peer_slots.is_empty();
                if block.role == BlockRole::Consumer && !channel_ok && !peer_ok {
                    return Err(TileLinkError::ConsistencyViolation {
                        block: block.name.to_string(),
                        op_index: idx,
                        reason: format!(
                            "load of tile data on channel {:?} is not ordered after a wait",
                            lop.channel
                        ),
                    });
                }
            }
            TileOp::StoreTile { tile: Some(t), .. } => {
                scratch.published_tiles.insert(*t);
            }
            TileOp::PushTile { tile, .. } => {
                scratch.published_tiles.insert(*tile);
                pushed_any = true;
            }
            TileOp::HostCopy { .. } => {
                host_copied = true;
            }
            TileOp::ProducerNotify { tile, .. }
                if !scratch.published_tiles.contains(*tile) && !host_copied =>
            {
                return Err(TileLinkError::ConsistencyViolation {
                        block: block.name.to_string(),
                        op_index: idx,
                        reason: format!(
                            "producer_tile_notify for tile {tile} is not preceded by a store or push of that tile"
                        ),
                    });
            }
            TileOp::PeerNotify { .. } if !pushed_any && scratch.published_tiles.is_empty() => {
                return Err(TileLinkError::ConsistencyViolation {
                    block: block.name.to_string(),
                    op_index: idx,
                    reason: "peer_tile_notify is not preceded by any data publication".to_string(),
                });
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockDesc, ComputeKind, TileProgram};
    use crate::mapping::StaticMapping;
    use crate::passes::lower::lower;
    use crate::primitives::{NotifyScope, PushTarget};

    fn lower_single(block: BlockDesc) -> LoweredProgram {
        let mapping = StaticMapping::new(8, 2, 2, 2);
        let mut p = TileProgram::new("p", 2);
        p.add_block(block);
        lower(&p, &mapping).unwrap()
    }

    #[test]
    fn well_ordered_consumer_passes() {
        let block = BlockDesc::new("gemm", 0, BlockRole::Consumer)
            .op(TileOp::ConsumerWait { tile: 1 })
            .op(TileOp::LoadTile {
                buffer: "tokens".into(),
                bytes: 8.0,
                tile: Some(1),
            })
            .op(TileOp::Compute(ComputeKind::MatmulTile {
                m: 2,
                n: 2,
                k: 2,
            }));
        assert!(check_consistency(&lower_single(block)).is_ok());
    }

    #[test]
    fn load_before_wait_is_rejected() {
        let block = BlockDesc::new("gemm", 0, BlockRole::Consumer)
            .op(TileOp::LoadTile {
                buffer: "tokens".into(),
                bytes: 8.0,
                tile: Some(1),
            })
            .op(TileOp::ConsumerWait { tile: 1 });
        let err = check_consistency(&lower_single(block)).unwrap_err();
        assert!(matches!(
            err,
            TileLinkError::ConsistencyViolation { op_index: 0, .. }
        ));
    }

    #[test]
    fn wait_on_wrong_channel_is_rejected() {
        // Waiting for tile 0 (channel 0) does not license a load of tile 3 (channel 3).
        let block = BlockDesc::new("gemm", 0, BlockRole::Consumer)
            .op(TileOp::ConsumerWait { tile: 0 })
            .op(TileOp::LoadTile {
                buffer: "tokens".into(),
                bytes: 8.0,
                tile: Some(3),
            });
        assert!(check_consistency(&lower_single(block)).is_err());
    }

    #[test]
    fn notify_without_store_is_rejected() {
        let block = BlockDesc::new("comm", 0, BlockRole::Producer).op(TileOp::ProducerNotify {
            tile: 0,
            scope: NotifyScope::Broadcast,
        });
        assert!(check_consistency(&lower_single(block)).is_err());
    }

    #[test]
    fn push_then_notify_passes() {
        let block = BlockDesc::new("comm", 0, BlockRole::Producer)
            .op(TileOp::PushTile {
                buffer: "tokens".into(),
                bytes: 8.0,
                tile: 0,
                target: PushTarget::Broadcast,
            })
            .op(TileOp::ProducerNotify {
                tile: 0,
                scope: NotifyScope::Broadcast,
            });
        assert!(check_consistency(&lower_single(block)).is_ok());
    }

    #[test]
    fn peer_wait_licenses_peer_loads() {
        let block = BlockDesc::new("reduce", 0, BlockRole::Consumer)
            .op(TileOp::PeerWait {
                slot: 4,
                expected: 1,
            })
            .op(TileOp::LoadTile {
                buffer: "partials".into(),
                bytes: 8.0,
                tile: Some(2),
            });
        assert!(check_consistency(&lower_single(block)).is_ok());
    }

    #[test]
    fn producer_loads_of_local_weights_need_no_wait() {
        let block = BlockDesc::new("gemm", 0, BlockRole::Consumer)
            .op(TileOp::LoadTile {
                buffer: "weights".into(),
                bytes: 8.0,
                tile: None,
            })
            .op(TileOp::Compute(ComputeKind::MatmulTile {
                m: 2,
                n: 2,
                k: 2,
            }));
        assert!(check_consistency(&lower_single(block)).is_ok());
    }

    #[test]
    fn stamped_set_state_does_not_leak_between_blocks() {
        // Block 0 acquires channel 0; block 1 loads on channel 0 without its
        // own wait and must still be rejected.
        let mapping = StaticMapping::new(8, 2, 2, 2);
        let mut p = TileProgram::new("p", 2);
        p.add_block(
            BlockDesc::new("ok", 0, BlockRole::Consumer)
                .op(TileOp::ConsumerWait { tile: 0 })
                .op(TileOp::LoadTile {
                    buffer: "tokens".into(),
                    bytes: 8.0,
                    tile: Some(0),
                }),
        );
        p.add_block(
            BlockDesc::new("bad", 0, BlockRole::Consumer).op(TileOp::LoadTile {
                buffer: "tokens".into(),
                bytes: 8.0,
                tile: Some(0),
            }),
        );
        let lowered = lower(&p, &mapping).unwrap();
        let err = check_consistency(&lowered).unwrap_err();
        assert!(matches!(
            err,
            TileLinkError::ConsistencyViolation { op_index: 0, .. }
        ));
    }
}

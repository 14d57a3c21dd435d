//! Software pipelining of tile loads.
//!
//! Compute kernels overlap global-memory loads with tensor-core math by
//! issuing loads a few iterations ahead (multi-stage pipelining). Section 4.2
//! of the paper points out the hazard: a pipelining pass that hoists loads
//! without knowing about the tile-centric primitives could move a load *above*
//! the `consumer_tile_wait` that orders it. The reproduction's pass therefore
//! has one hoisting rule: a load hoists past compute steps only. It never
//! crosses a wait, notify, transfer, store or another load, so the output
//! always still satisfies [`crate::passes::check_consistency`].

use crate::ir::TileOp;
use crate::passes::lower::{LoweredOp, LoweredProgram};

/// The hoisting rule: a load moves up past `op` only if `op` is a compute
/// step.
fn hoists_past(op: &TileOp) -> bool {
    matches!(op, TileOp::Compute(_))
}

/// Whether pipelining `program` at two or more stages moves an op: some load
/// directly follows a compute step in its block.
///
/// Such a load hoists at least one step at any stage count above one.
/// Hoisting only ever swaps a load with the compute step right before it,
/// so a program without such a pair is left unchanged at every stage count.
pub fn pipelining_moves(program: &LoweredProgram) -> bool {
    program.iter_blocks().any(|block| {
        block
            .ops
            .windows(2)
            .any(|w| matches!(w[1].op, TileOp::LoadTile { .. }) && hoists_past(&w[0].op))
    })
}

/// Hoists each `LoadTile` in `ops` up to `stages - 1` positions earlier,
/// in place, past compute steps only. Returns whether any op moved.
///
/// `stages == 1` leaves the ops untouched (no pipelining). Ops are `Copy`, so
/// reordering is pure swaps — no allocation.
pub fn pipeline_ops(ops: &mut [LoweredOp], stages: usize) -> bool {
    if stages <= 1 {
        return false;
    }
    let max_hoist = stages - 1;
    let mut moved = false;
    // Walk forward; for every load, try to move it earlier past compute ops.
    let mut i = 0;
    while i < ops.len() {
        if matches!(ops[i].op, TileOp::LoadTile { .. }) {
            let mut pos = i;
            let mut hoisted = 0;
            while pos > 0 && hoisted < max_hoist && hoists_past(&ops[pos - 1].op) {
                ops.swap(pos - 1, pos);
                pos -= 1;
                hoisted += 1;
                moved = true;
            }
        }
        i += 1;
    }
    moved
}

/// Pipelines every block of `program` in place and returns whether any op
/// moved (if none did, the program is unchanged).
pub fn pipeline_program(program: &mut LoweredProgram, stages: usize) -> bool {
    let mut moved = false;
    for idx in 0..program.block_count() {
        moved |= pipeline_ops(program.block_ops_mut(idx), stages);
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockDesc, BlockRole, ComputeKind, TileProgram};
    use crate::mapping::StaticMapping;
    use crate::passes::{check_consistency, lower};

    fn lowered(block: BlockDesc) -> LoweredProgram {
        let mapping = StaticMapping::new(8, 2, 2, 2);
        let mut p = TileProgram::new("p", 2);
        p.add_block(block);
        lower(&p, &mapping).unwrap()
    }

    fn kinds(ops: &[LoweredOp]) -> Vec<&'static str> {
        ops.iter()
            .map(|o| match o.op {
                TileOp::ConsumerWait { .. } => "wait",
                TileOp::LoadTile { .. } => "load",
                TileOp::Compute(_) => "compute",
                TileOp::StoreTile { .. } => "store",
                _ => "other",
            })
            .collect()
    }

    fn k_loop_block() -> BlockDesc {
        // wait, load, compute, load, compute, store — a two-iteration K loop.
        BlockDesc::new("gemm", 0, BlockRole::Consumer)
            .op(TileOp::ConsumerWait { tile: 0 })
            .op(TileOp::LoadTile {
                buffer: "a".into(),
                bytes: 8.0,
                tile: Some(0),
            })
            .op(TileOp::Compute(ComputeKind::MatmulTile {
                m: 2,
                n: 2,
                k: 2,
            }))
            .op(TileOp::LoadTile {
                buffer: "a".into(),
                bytes: 8.0,
                tile: Some(0),
            })
            .op(TileOp::Compute(ComputeKind::MatmulTile {
                m: 2,
                n: 2,
                k: 2,
            }))
            .op(TileOp::StoreTile {
                buffer: "c".into(),
                bytes: 8.0,
                tile: None,
            })
    }

    #[test]
    fn single_stage_is_identity() {
        let b = lowered(k_loop_block());
        let mut p = b.clone();
        assert!(!pipeline_program(&mut p, 1));
        assert_eq!(p, b);
    }

    #[test]
    fn loads_are_hoisted_past_compute() {
        let mut p = lowered(k_loop_block());
        assert!(pipeline_program(&mut p, 2));
        // The second load moves above the first compute.
        assert_eq!(
            kinds(p.block(0).ops),
            vec!["wait", "load", "load", "compute", "compute", "store"]
        );
    }

    #[test]
    fn loads_never_cross_the_wait() {
        let b = lowered(k_loop_block());
        for stages in 2..6 {
            let mut p = b.clone();
            pipeline_program(&mut p, stages);
            // the wait must stay first
            assert_eq!(kinds(p.block(0).ops)[0], "wait");
            // and the pipelined program must still be consistent
            assert!(check_consistency(&p).is_ok(), "stages={stages}");
        }
    }

    #[test]
    fn loads_behind_waits_report_nothing_moved() {
        // wait, load, compute per tile: every load follows its wait, so no
        // stage count can move it.
        let mut block = BlockDesc::new("gemm", 0, BlockRole::Consumer);
        for tile in 0..2 {
            block = block
                .op(TileOp::ConsumerWait { tile })
                .op(TileOp::LoadTile {
                    buffer: "a".into(),
                    bytes: 8.0,
                    tile: Some(tile),
                })
                .op(TileOp::Compute(ComputeKind::MatmulTile {
                    m: 2,
                    n: 2,
                    k: 2,
                }));
        }
        let b = lowered(block);
        for stages in 1..6 {
            let mut p = b.clone();
            assert!(!pipeline_program(&mut p, stages), "stages={stages}");
            assert_eq!(p, b, "stages={stages}");
        }
    }

    #[test]
    fn pipelining_moves_predicts_the_pass() {
        let wait_load_compute = BlockDesc::new("gemm", 0, BlockRole::Consumer)
            .op(TileOp::ConsumerWait { tile: 0 })
            .op(TileOp::LoadTile {
                buffer: "a".into(),
                bytes: 8.0,
                tile: Some(0),
            })
            .op(TileOp::Compute(ComputeKind::Elementwise { elems: 1 }));
        let compute_then_load = BlockDesc::new("gemm", 0, BlockRole::Consumer)
            .op(TileOp::Compute(ComputeKind::Elementwise { elems: 1 }))
            .op(TileOp::LoadTile {
                buffer: "a".into(),
                bytes: 8.0,
                tile: None,
            });
        for (block, moves) in [
            (k_loop_block(), true),
            (wait_load_compute, false),
            (compute_then_load, true),
        ] {
            let p = lowered(block);
            assert_eq!(pipelining_moves(&p), moves);
            for stages in 1..6 {
                let mut copy = p.clone();
                let moved = pipeline_program(&mut copy, stages);
                assert_eq!(moved, moves && stages > 1, "stages={stages}");
                assert_eq!(copy != p, moved, "stages={stages}");
            }
        }
    }

    #[test]
    fn hoisting_is_limited_by_stage_count() {
        // With many compute ops before the load, stages bounds the distance.
        let block = BlockDesc::new("b", 0, BlockRole::Consumer)
            .op(TileOp::ConsumerWait { tile: 0 })
            .op(TileOp::Compute(ComputeKind::Elementwise { elems: 1 }))
            .op(TileOp::Compute(ComputeKind::Elementwise { elems: 1 }))
            .op(TileOp::Compute(ComputeKind::Elementwise { elems: 1 }))
            .op(TileOp::LoadTile {
                buffer: "a".into(),
                bytes: 8.0,
                tile: Some(0),
            });
        let b = lowered(block);
        let mut p2 = b.clone();
        pipeline_program(&mut p2, 2);
        assert_eq!(
            kinds(p2.block(0).ops),
            vec!["wait", "compute", "compute", "load", "compute"]
        );
        let mut p4 = b.clone();
        pipeline_program(&mut p4, 4);
        assert_eq!(
            kinds(p4.block(0).ops),
            vec!["wait", "load", "compute", "compute", "compute"]
        );
    }
}

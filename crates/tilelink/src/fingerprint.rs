//! Content fingerprints of compiled kernels.
//!
//! A [`Fingerprint`] is a 128-bit hash of everything the timed executor reads
//! from a [`crate::CompiledKernel`]: every field of the lowered program's op
//! and block tables (`f64`s by their bits) and every field of the resource
//! plan. Two kernels with equal fingerprints build the same task graph
//! (barring a 128-bit hash collision), so under one cost provider they
//! simulate to the same makespan. That is what
//! lets [`crate::exec::MakespanMemo`] price each distinct kernel once, however
//! many configurations compile to it.
//!
//! The compiler fingerprints in two steps. It hashes the lowered program once
//! per compile-cache miss; each compile then mixes in what its own config
//! changes on top: the stage count, only when pipelining moved an op (an
//! unmoved program is the cached one), and the plan.

use crate::ir::{BlockRole, ComputeKind, Symbol, TileOp};
use crate::passes::{LoweredOp, LoweredProgram, ResourcePlan, Targets, TransferLane};
use crate::primitives::{NotifyScope, PushTarget};

/// A 128-bit content fingerprint of a compiled kernel (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(u128);

/// Word-at-a-time hashing state: two 64-bit lanes with different
/// multipliers. Each step is a bijection of a lane's state for a fixed input
/// word, so two word streams that differ in a single word never collide.
#[derive(Clone, Copy)]
pub(crate) struct Fingerprinter {
    lo: u64,
    hi: u64,
}

impl Fingerprinter {
    /// Hashes a lowered program: its name and world size, then every field
    /// of its block and op tables.
    pub(crate) fn of_lowered(name: Symbol, world_size: usize, lowered: &LoweredProgram) -> Self {
        let mut h = Self {
            lo: 0x243f_6a88_85a3_08d3,
            hi: 0x1319_8a2e_0370_7344,
        };
        h.words([
            u64::from(name.id()),
            world_size as u64,
            lowered.blocks.len() as u64,
            lowered.ops.len() as u64,
        ]);
        for b in &lowered.blocks {
            let role = match b.role {
                BlockRole::Producer => 0,
                BlockRole::Consumer => 1,
                BlockRole::Host => 2,
            };
            h.words([
                u64::from(b.name.id()),
                b.rank as u64,
                role,
                u64::from(b.start),
                u64::from(b.end),
            ]);
        }
        for op in &lowered.ops {
            h.op(op);
        }
        h
    }

    /// Mixes in the stage count a pipelining pass applied; `moved` says
    /// whether it moved any op (if not, the program is unchanged and the
    /// count is not mixed in).
    pub(crate) fn pipelined(&mut self, stages: usize, moved: bool) {
        self.word(if moved { stages as u64 } else { 0 });
    }

    /// Mixes in every field of a resource plan.
    pub(crate) fn plan(&mut self, plan: &ResourcePlan) {
        let (lane, port_share) = match plan.lane {
            TransferLane::SmPort { port_share } => (0, port_share),
            TransferLane::CopyEngine => (1, 0),
        };
        self.words([
            plan.comm_sms,
            plan.compute_sms,
            plan.sms_per_compute_block,
            lane,
            port_share,
            u64::from(plan.host_launch_per_copy),
            plan.compute_efficiency.to_bits(),
        ]);
    }

    /// The fingerprint of everything mixed in so far.
    pub(crate) fn finish(self) -> Fingerprint {
        Fingerprint(u128::from(self.hi) << 64 | u128::from(self.lo))
    }

    fn word(&mut self, w: u64) {
        self.lo = (self.lo ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(31);
        self.hi = (self.hi ^ w)
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .rotate_left(27);
    }

    fn words<const N: usize>(&mut self, ws: [u64; N]) {
        for w in ws {
            self.word(w);
        }
    }

    /// One lowered op: a variant tag and its fields (the tag fixes how many
    /// words follow), then the mapping results.
    fn op(&mut self, lop: &LoweredOp) {
        match lop.op {
            TileOp::ConsumerWait { tile } => self.words([0, tile as u64]),
            TileOp::ProducerNotify { tile, scope } => {
                let scope = match scope {
                    NotifyScope::Local => 0,
                    NotifyScope::Owner => 1,
                    NotifyScope::Broadcast => 2,
                };
                self.words([1, tile as u64, scope]);
            }
            TileOp::PeerWait { slot, expected } => self.words([2, slot as u64, expected]),
            TileOp::PeerNotify { slot, dst_rank } => {
                self.words([3, slot as u64, dst_rank as u64]);
            }
            TileOp::LoadTile {
                buffer,
                bytes,
                tile,
            } => self.words([4, u64::from(buffer.id()), bytes.to_bits(), opt(tile)]),
            TileOp::StoreTile {
                buffer,
                bytes,
                tile,
            } => self.words([5, u64::from(buffer.id()), bytes.to_bits(), opt(tile)]),
            TileOp::PushTile {
                buffer,
                bytes,
                tile,
                target,
            } => {
                let target = match target {
                    PushTarget::Owner => 0,
                    PushTarget::Broadcast => 1,
                    PushTarget::Rank(r) => r as u64 + 2,
                };
                self.words([
                    6,
                    u64::from(buffer.id()),
                    bytes.to_bits(),
                    tile as u64,
                    target,
                ]);
            }
            TileOp::PullTile {
                buffer,
                bytes,
                tile,
            } => self.words([7, u64::from(buffer.id()), bytes.to_bits(), tile as u64]),
            TileOp::Compute(kind) => {
                let [tag, a, b, c] = match kind {
                    ComputeKind::MatmulTile { m, n, k } => [8, m, n, k],
                    ComputeKind::FlashAttnTile {
                        q_rows,
                        kv_rows,
                        head_dim,
                    } => [9, q_rows, kv_rows, head_dim],
                    ComputeKind::Elementwise { elems } => [10, elems, 0, 0],
                    ComputeKind::Reduction { elems } => [11, elems, 0, 0],
                };
                self.words([tag as u64, a as u64, b as u64, c as u64]);
            }
            TileOp::HostCopy { bytes, src_rank } => {
                self.words([12, bytes.to_bits(), src_rank as u64]);
            }
            TileOp::RankNotifySegment { segment } => self.words([13, segment as u64]),
        }
        let targets = match lop.targets {
            Targets::None => 0,
            Targets::All => 1,
            Targets::One(r) => r as u64 + 2,
        };
        self.words([
            opt(lop.channel),
            lop.threshold.map_or(0, |t| t + 1),
            targets,
        ]);
    }
}

/// One word per optional index or count: `None` as 0, `Some(v)` as `v + 1`,
/// distinct for every value below `u64::MAX`. A rank in `Targets` or
/// `PushTarget` sits above those enums' other variants the same way.
fn opt(v: Option<usize>) -> u64 {
    v.map_or(0, |v| v as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockDesc, TileProgram};
    use crate::mapping::StaticMapping;
    use crate::passes::lower;

    /// A one-block program loading `bytes` and running one matmul tile.
    fn lowered(bytes: f64) -> LoweredProgram {
        let mut p = TileProgram::new("p", 2);
        p.add_block(
            BlockDesc::new("gemm", 0, BlockRole::Consumer)
                .op(TileOp::ConsumerWait { tile: 0 })
                .op(TileOp::LoadTile {
                    buffer: "a".into(),
                    bytes,
                    tile: Some(0),
                })
                .op(TileOp::Compute(ComputeKind::MatmulTile {
                    m: 2,
                    n: 2,
                    k: 2,
                })),
        );
        lower(&p, &StaticMapping::new(8, 2, 2, 2)).unwrap()
    }

    fn plan() -> ResourcePlan {
        ResourcePlan {
            comm_sms: 20,
            compute_sms: 112,
            sms_per_compute_block: 1,
            lane: TransferLane::SmPort { port_share: 5 },
            host_launch_per_copy: false,
            compute_efficiency: 0.8,
        }
    }

    fn fingerprint(
        lowered: &LoweredProgram,
        plan: &ResourcePlan,
        stages: usize,
        moved: bool,
    ) -> Fingerprint {
        let mut h = Fingerprinter::of_lowered(Symbol::intern("p"), 2, lowered);
        h.pipelined(stages, moved);
        h.plan(plan);
        h.finish()
    }

    #[test]
    fn every_plan_field_moves_the_fingerprint() {
        let program = lowered(8.0);
        let base = fingerprint(&program, &plan(), 2, false);
        assert_eq!(base, fingerprint(&program, &plan(), 2, false));
        let variants = [
            ResourcePlan {
                lane: TransferLane::CopyEngine,
                ..plan()
            },
            ResourcePlan {
                lane: TransferLane::SmPort { port_share: 4 },
                ..plan()
            },
            ResourcePlan {
                compute_efficiency: 0.81,
                ..plan()
            },
            ResourcePlan {
                comm_sms: 16,
                ..plan()
            },
            ResourcePlan {
                compute_sms: 116,
                ..plan()
            },
            ResourcePlan {
                sms_per_compute_block: 2,
                ..plan()
            },
            ResourcePlan {
                host_launch_per_copy: true,
                ..plan()
            },
        ];
        for variant in &variants {
            assert_ne!(
                fingerprint(&program, variant, 2, false),
                base,
                "{variant:?}"
            );
        }
    }

    #[test]
    fn op_bytes_and_moving_stage_counts_move_the_fingerprint() {
        let program = lowered(8.0);
        let base = fingerprint(&program, &plan(), 2, false);
        assert_ne!(fingerprint(&lowered(16.0), &plan(), 2, false), base);
        // An unmoved program is the cached one whatever the stage count.
        assert_eq!(fingerprint(&program, &plan(), 4, false), base);
        let moved = fingerprint(&program, &plan(), 2, true);
        assert_ne!(moved, base);
        assert_ne!(fingerprint(&program, &plan(), 3, true), moved);
    }
}

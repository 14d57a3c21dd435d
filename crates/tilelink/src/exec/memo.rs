//! Priced-kernel memo: each distinct kernel simulated at most once per search.
//!
//! A search compiles many configurations to the same kernel: neighbours on
//! axes no builder or pass reads, second halves that ignore the comm tile,
//! halves forced onto one lane. [`MakespanMemo`] keys prices by
//! [`crate::KernelKey`] (the program's compile-cache site, the stage count
//! if pipelining moved an op, and the resource plan), so only the first of
//! them builds a task graph and simulates; the rest are answered from the
//! price it recorded. A search winner's exact report
//! ([`MakespanMemo::report`]) reads its overlapped makespan there too, and
//! simulates only the comm-only and compute-only runs.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use tilelink_probe::metrics::{EXEC_MEMO_HITS, EXEC_MEMO_MISSES};
use tilelink_sim::{BoundedMakespan, SharedCost};

use crate::compile::CompiledKernel;
use crate::exec::simulate_makespan;
use crate::exec::timed::simulate_split;
use crate::{KernelKey, OverlapReport, Result};

/// What the memo knows about one kernel's makespan.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Price {
    /// The exact makespan (a simulation finished).
    Exact(f64),
    /// The highest certified floor an aborted simulation reported.
    Floor(f64),
}

/// Makespans of compiled kernels under one cost provider, keyed by
/// [`KernelKey`]: [`MakespanMemo::makespan`] is [`simulate_makespan`] that
/// simulates each distinct kernel only until it knows enough to answer.
///
/// A simulation finishes exactly when the makespan is within the cutoff, so
/// every answer classifies as a fresh simulation would: `Finished` with the
/// same bits, or `Exceeded` with a certified lower bound on the makespan.
/// Only the graph builds and simulations disappear.
pub struct MakespanMemo {
    cost: SharedCost,
    prices: Mutex<HashMap<KernelKey, Price>>,
}

impl MakespanMemo {
    /// An empty memo pricing under `cost`.
    pub fn new(cost: SharedCost) -> Self {
        Self {
            cost,
            prices: Mutex::new(HashMap::new()),
        }
    }

    /// The cost provider every price is simulated under.
    pub fn cost(&self) -> &SharedCost {
        &self.cost
    }

    /// The makespan of `kernel` under `cutoff`, answered from the memo where
    /// it can be:
    ///
    /// * an exact makespan `t` is known: `Finished(t)` if `t <= cutoff`,
    ///   else `Exceeded(t)`;
    /// * a floor `f > cutoff` is known: `Exceeded(f)`;
    /// * otherwise [`simulate_makespan`] runs (outside the memo's lock) and
    ///   its result is recorded.
    ///
    /// A key does not cover the cost provider, so `kernel` must be compiled
    /// for this memo's.
    ///
    /// # Errors
    ///
    /// Returns the simulation's error; nothing is recorded then.
    pub fn makespan(&self, kernel: &CompiledKernel, cutoff: f64) -> Result<BoundedMakespan> {
        let known = self.lock().get(&kernel.key).copied();
        let answer = match known {
            Some(Price::Exact(t)) if t <= cutoff => Some(BoundedMakespan::Finished(t)),
            Some(Price::Exact(t)) => Some(BoundedMakespan::Exceeded(t)),
            Some(Price::Floor(f)) if f > cutoff => Some(BoundedMakespan::Exceeded(f)),
            _ => None,
        };
        if let Some(answer) = answer {
            EXEC_MEMO_HITS.inc();
            debug_assert!(
                agrees(answer, simulate_makespan(kernel, &self.cost, cutoff)),
                "memo answered {answer:?} for {} at cutoff {cutoff}",
                kernel.name
            );
            return Ok(answer);
        }
        EXEC_MEMO_MISSES.inc();
        let priced = simulate_makespan(kernel, &self.cost, cutoff)?;
        let price = match priced {
            BoundedMakespan::Finished(t) => Price::Exact(t),
            BoundedMakespan::Exceeded(f) => Price::Floor(f),
        };
        match self.lock().entry(kernel.key) {
            Entry::Vacant(slot) => {
                slot.insert(price);
            }
            Entry::Occupied(mut slot) => {
                // Another thread may have priced the kernel meanwhile: an
                // exact makespan beats any floor, and a higher floor a lower.
                let merged = match (*slot.get(), price) {
                    (Price::Exact(t), _) | (_, Price::Exact(t)) => Price::Exact(t),
                    (Price::Floor(a), Price::Floor(b)) => Price::Floor(a.max(b)),
                };
                slot.insert(merged);
            }
        }
        Ok(priced)
    }

    /// The exact [`OverlapReport`] of `kernel`, bit-identical to
    /// [`crate::exec::simulate_report`]: the overlapped makespan is
    /// [`MakespanMemo::makespan`] at an infinite cutoff, so it simulates only
    /// when no run of the kernel has finished yet, and the comm-only and
    /// compute-only runs are simulated as [`crate::exec::simulate_report`]
    /// simulates them.
    ///
    /// # Errors
    ///
    /// Returns the first simulation error.
    pub fn report(&self, kernel: &CompiledKernel) -> Result<OverlapReport> {
        let total = self.makespan(kernel, f64::INFINITY)?.clock();
        let (comm, comp) = simulate_split(kernel, &self.cost)?;
        Ok(OverlapReport::new(total, comm, comp))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<KernelKey, Price>> {
        self.prices.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Whether a memo `answer` is what the fresh simulation `fresh` at the same
/// cutoff returned: the same bits when finished, and when exceeded, a floor
/// no lower than the one the simulation certified (an abort stops at the
/// first point the clock passes the cutoff, so any other certified floor
/// is at least that clock).
fn agrees(answer: BoundedMakespan, fresh: Result<BoundedMakespan>) -> bool {
    match (answer, fresh) {
        (BoundedMakespan::Finished(a), Ok(BoundedMakespan::Finished(b))) => {
            a.to_bits() == b.to_bits()
        }
        (BoundedMakespan::Exceeded(a), Ok(BoundedMakespan::Exceeded(b))) => a >= b,
        _ => false,
    }
}

impl Clone for MakespanMemo {
    fn clone(&self) -> Self {
        Self {
            cost: self.cost.clone(),
            prices: Mutex::new(self.lock().clone()),
        }
    }
}

impl fmt::Debug for MakespanMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MakespanMemo")
            .field("cost", &self.cost.revision())
            .field("kernels", &self.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CacheSite, Compiler};
    use crate::config::OverlapConfig;
    use crate::exec::simulate_report;
    use crate::ir::{BlockDesc, BlockRole, ComputeKind, TileOp, TileProgram};
    use crate::mapping::StaticMapping;
    use crate::primitives::{NotifyScope, PushTarget};
    use tilelink_sim::{analytic_cost, ClusterSpec};

    /// A two-rank AllGather + GEMM, `tiles` tiles of `bytes` bytes each.
    fn kernel(cost: &SharedCost, bytes: usize) -> CompiledKernel {
        let tiles = 4;
        let mut p = TileProgram::new("ag_gemm", 2);
        for rank in 0..2 {
            let mut comm = BlockDesc::new(format!("comm/r{rank}"), rank, BlockRole::Producer);
            for tile in (0..tiles).filter(|t| t % 2 == rank) {
                comm = comm
                    .op(TileOp::PushTile {
                        buffer: "tokens".into(),
                        bytes: bytes as f64,
                        tile,
                        target: PushTarget::Broadcast,
                    })
                    .op(TileOp::ProducerNotify {
                        tile,
                        scope: NotifyScope::Broadcast,
                    });
            }
            p.add_block(comm);
            let mut gemm = BlockDesc::new(format!("gemm/r{rank}"), rank, BlockRole::Consumer);
            for tile in 0..tiles {
                gemm = gemm.op(TileOp::ConsumerWait { tile }).op(TileOp::Compute(
                    ComputeKind::MatmulTile {
                        m: 1024,
                        n: 1024,
                        k: 1024,
                    },
                ));
            }
            p.add_block(gemm);
        }
        let mapping = StaticMapping::new(256, 64, 2, 2);
        Compiler::new(OverlapConfig::default(), cost)
            .compile(CacheSite::new("test.memo", [bytes]), &p, &mapping)
            .unwrap()
    }

    /// The memo's answer, checked against a fresh simulation at the same
    /// cutoff, and whether the memo answered it without simulating.
    fn priced(
        memo: &MakespanMemo,
        kernel: &CompiledKernel,
        cutoff: f64,
    ) -> (BoundedMakespan, bool) {
        let hits = EXEC_MEMO_HITS.get();
        let answer = memo.makespan(kernel, cutoff).unwrap();
        let fresh = simulate_makespan(kernel, memo.cost(), cutoff);
        assert!(agrees(answer, fresh), "{answer:?} at cutoff {cutoff}");
        (answer, EXEC_MEMO_HITS.get() > hits)
    }

    #[test]
    fn memo_answers_every_cutoff_as_a_fresh_simulation_would() {
        // The only test in this crate that prices through a memo, so the
        // hit counter moves for its lookups alone.
        let cost = analytic_cost(&ClusterSpec::h800_node(2));
        let memo = MakespanMemo::new(cost.clone());
        let k = kernel(&cost, 1_000_000);
        let exact = simulate_makespan(&k, &cost, f64::INFINITY).unwrap().clock();

        // A first abort records a floor; it answers only cutoffs below it.
        let (first, hit) = priced(&memo, &k, exact / 2.0);
        assert!(!hit);
        let BoundedMakespan::Exceeded(floor) = first else {
            panic!("cutoff below the makespan finished: {first:?}")
        };
        assert_eq!(priced(&memo, &k, floor / 2.0), (first, true));
        assert!(
            !priced(&memo, &k, floor).1,
            "a floor at the cutoff settles nothing"
        );

        // Once a run finishes, every cutoff is answered from the exact price.
        assert_eq!(
            priced(&memo, &k, f64::INFINITY),
            (BoundedMakespan::Finished(exact), false)
        );
        for (cutoff, answer) in [
            (exact, BoundedMakespan::Finished(exact)),
            (f64::INFINITY, BoundedMakespan::Finished(exact)),
            (exact / 2.0, BoundedMakespan::Exceeded(exact)),
        ] {
            assert_eq!(priced(&memo, &k, cutoff), (answer, true), "cutoff {cutoff}");
        }

        // A kernel built from another input is priced afresh.
        let other = kernel(&cost, 2_000_000);
        assert_ne!(other.key, k.key);
        assert!(!priced(&memo, &other, f64::INFINITY).1);

        // An exact report reads a finished makespan from the memo; a kernel
        // known only by an abort floor is simulated to completion first.
        let floored = kernel(&cost, 3_000_000);
        assert!(!priced(&memo, &floored, exact / 2.0).1);
        for (kernel, hit) in [(&k, true), (&floored, false), (&floored, true)] {
            let hits = EXEC_MEMO_HITS.get();
            let report = memo.report(kernel).unwrap();
            let fresh = simulate_report(kernel, &cost).unwrap();
            assert_eq!(report.total_s.to_bits(), fresh.total_s.to_bits());
            assert_eq!(report.comm_only_s.to_bits(), fresh.comm_only_s.to_bits());
            assert_eq!(report.comp_only_s.to_bits(), fresh.comp_only_s.to_bits());
            assert_eq!(EXEC_MEMO_HITS.get() > hits, hit);
        }
    }
}

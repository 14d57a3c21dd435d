//! Golden regression test pinning the analytic figures.
//!
//! The analytic cost model is the reference the repository's figures were
//! built on: Figure 8/9 default-config speedups over the baselines, and the
//! `--tune` tuned-vs-default geomeans. Any edit to the cost model — e.g. the
//! ROADMAP's bottleneck-aware ring-hop pricing fix — moves these numbers, and
//! that *must* be a deliberate decision, not silent drift.
//!
//! RE-BASELINE DELIBERATELY: if a test here fails because you changed the
//! cost model (or the search space / strategy defaults) on purpose, update
//! the pinned constants to the values printed in the assertion message, and
//! say so in the commit message. Do not loosen the tolerance.

use tilelink_bench::{cost_for, default_cluster, fig11, fig8, fig9, geomean, MlpPanel, MoePanel};
use tilelink_sim::CostModelSpec;
use tilelink_workloads::autotune::{self, TuneOptions};
use tilelink_workloads::shapes;

/// Relative tolerance: the simulator is deterministic, so figure geomeans are
/// bit-stable; the margin only absorbs benign float-noise from refactors that
/// reorder mathematically-identical operations.
const REL_TOL: f64 = 1e-9;

fn assert_pinned(label: &str, actual: f64, pinned: f64) {
    let rel = (actual - pinned).abs() / pinned;
    assert!(
        rel < REL_TOL,
        "{label} drifted: pinned {pinned:.15}, got {actual:.15} (rel {rel:.2e}).\n\
         If this change is deliberate, re-baseline the constant to the value above."
    );
}

#[test]
fn fig8_full_mlp_geomean_is_pinned() {
    let cost = cost_for(&default_cluster(), &CostModelSpec::Analytic);
    let groups = fig8(MlpPanel::Full, &cost);
    let actual = geomean(groups.iter().map(|g| g.speedup("TileLink", "cuBLAS+NCCL")));
    assert_pinned("fig8 full-MLP geomean", actual, 1.309702108081508);
}

#[test]
fn fig9_full_moe_geomean_is_pinned() {
    let cost = cost_for(&default_cluster(), &CostModelSpec::Analytic);
    let groups = fig9(MoePanel::Full, &cost);
    let actual = geomean(groups.iter().map(|g| g.speedup("TileLink", "cuBLAS+NCCL")));
    assert_pinned("fig9 full-MoE geomean", actual, 3.976571952754703);
}

#[test]
fn fig11_e2e_geomeans_are_pinned() {
    // End-to-end Figure 11 speedup geomeans under the analytic model, both
    // cluster setups. The 16-GPU value was re-baselined deliberately when the
    // ring baselines started paying the InfiniBand bottleneck hop
    // (1.492083017131577 before the fix, when every hop was priced as the
    // intra-node rank 0→1 link); the 8-GPU value is bit-identical to the
    // pre-fix figure because every single-node hop rides NVLink.
    let single = fig11(false, &CostModelSpec::Analytic, None);
    let actual = geomean(single.iter().map(|r| r.speedup()));
    assert_pinned("fig11 8xH800 geomean", actual, 1.650689315301968);

    let two_node = fig11(true, &CostModelSpec::Analytic, None);
    let actual = geomean(two_node.iter().map(|r| r.speedup()));
    assert_pinned("fig11 16xH800 geomean", actual, 2.831073385410031);

    // The two-node torch baselines must stay strictly costlier than the
    // single-node ones (IB pricing + doubled tokens), model by model.
    for (one, two) in single.iter().zip(&two_node) {
        assert_eq!(one.torch.model, two.torch.model);
        assert!(
            two.torch.total_s > 2.0 * one.torch.total_s,
            "{}",
            one.torch.model
        );
    }
}

#[test]
fn tuned_vs_default_geomeans_are_pinned() {
    // The `reproduce --tune` headline numbers: default beam strategy over the
    // standard space, analytic costs, all six shapes per figure.
    //
    // Checked for re-baselining when branch-and-bound pruning landed and
    // `SearchSpace::standard()` picked up the RING_REQUIRES_PUSH constraint:
    // both values stayed bit-identical, because pruning is admissible (the
    // winner is never discarded) and no beam winner was ever a pull-mode
    // ring — the constraint only stops the search from wasting evaluations
    // on combinations that would deadlock on real hardware.
    let cluster = default_cluster();
    let opts = TuneOptions::default();

    let mlp = geomean(shapes::mlp_shapes().iter().map(|shape| {
        let tuned = autotune::tuned_full_mlp(shape, &cluster, &opts).expect("mlp tuning");
        default_total(&tuned) / tuned.layer.total_s
    }));
    assert_pinned("fig8 tuned-vs-default geomean", mlp, 1.515577185072659);

    let moe = geomean(shapes::moe_shapes().iter().map(|shape| {
        let tuned = autotune::tuned_full_moe(shape, &cluster, &opts).expect("moe tuning");
        default_total(&tuned) / tuned.layer.total_s
    }));
    assert_pinned("fig9 tuned-vs-default geomean", moe, 2.146300772725036);
}

/// Makespan of the default config out of the search's own ranking (the
/// default is always a beam seed under the default options).
fn default_total(tuned: &tilelink_workloads::TunedLayer) -> f64 {
    let default = tilelink::OverlapConfig::default();
    tuned
        .search
        .ranked
        .iter()
        .find(|c| c.config == default)
        .expect("default config is a beam seed")
        .total_s
}

//! Incremental-recompile bit-identity over the standard search space.
//!
//! Beam and coordinate-descent searches move one [`OverlapConfig`] axis at a
//! time, so a tuning run compiles long chains of axis-neighbour candidates
//! against a warm compile cache — a neighbour whose builder reads the same
//! values as the base takes the patch path, and one that changes a value
//! the builder reads (a tile's row count, the channel count) is a keyed full
//! rebuild. The incremental-recompile contract is that none of this is
//! observable: for every axis-neighbour pair of the standard space,
//! compiling the neighbour against a cache warmed by the base must produce
//! the same compiled kernel, the same task graph and a bit-identical overlap
//! report as a cold compile of the neighbour alone, under both cost models —
//! and the makespan-only price a search ranks by must finish with that
//! report's `total_s`, bit for bit.

use tilelink::exec::{simulate_makespan, simulate_report, task_graph};
use tilelink::{
    reset_compile_cache, CacheSite, CommMapping, CompiledKernel, Compiler, OverlapConfig,
    OverlapReport, TileOrder, TileShape, TransferMode,
};
use tilelink_sim::{analytic_cost, BoundedMakespan, CalibratedCostModel, ClusterSpec, SharedCost};
use tilelink_workloads::moe::{ag_group_gemm_program, group_gemm_rs_program};
use tilelink_workloads::shapes::moe_shapes;
use tilelink_workloads::MoeShape;

/// Every axis-neighbour of `base` in the standard space: for each of the
/// seven axes, each candidate value of that axis with all other axes held at
/// `base` (mirrors `SearchSpace::standard()` in `tilelink-tune`).
fn standard_axis_neighbours(base: &OverlapConfig) -> Vec<OverlapConfig> {
    let mut out = Vec::new();
    for comm in [
        TileShape::new(64, 64),
        TileShape::new(128, 128),
        TileShape::new(256, 128),
    ] {
        out.push(base.with_comm_tile(comm));
    }
    for compute in [
        TileShape::new(64, 128),
        TileShape::new(128, 128),
        TileShape::new(128, 256),
    ] {
        out.push(base.with_compute_tile(compute));
    }
    for order in [TileOrder::AllToAll, TileOrder::Ring] {
        out.push(base.with_order(order));
    }
    for mode in [TransferMode::Pull, TransferMode::Push] {
        out.push(base.with_mode(mode));
    }
    for mapping in [
        CommMapping::CopyEngine,
        CommMapping::Sm { sms: 8 },
        CommMapping::Sm { sms: 20 },
        CommMapping::Sm { sms: 40 },
        CommMapping::Hybrid { sms: 8 },
        CommMapping::Hybrid { sms: 20 },
    ] {
        out.push(base.with_comm_mapping(mapping));
    }
    // The standard space has a single channels value (4); list the axis
    // anyway so widening the space later extends coverage automatically.
    let channel_values = [4usize];
    for &channels in &channel_values {
        let mut cfg = *base;
        cfg.channels_per_rank = channels;
        out.push(cfg);
    }
    for stages in [2, 3, 4] {
        let mut cfg = *base;
        cfg.num_stages = stages;
        out.push(cfg);
    }
    out
}

fn compile_kernel(
    site: &'static str,
    shape: &MoeShape,
    cluster: &ClusterSpec,
    cfg: &OverlapConfig,
    cost: &SharedCost,
) -> CompiledKernel {
    let world = cluster.world_size();
    let compiler = Compiler::new(*cfg, cost);
    match site {
        "ag" => compiler
            .compile_cached(
                CacheSite::new(
                    "test.axis_neighbour.ag",
                    [cfg.comm_tile.m, cfg.compute_tile.m, cfg.channels_per_rank],
                ),
                || Ok(ag_group_gemm_program(shape, world, cfg)),
            )
            .expect("compile ag"),
        _ => compiler
            .compile_cached(
                CacheSite::new(
                    "test.axis_neighbour.rs",
                    [cfg.compute_tile.m, cfg.channels_per_rank],
                ),
                || Ok(group_gemm_rs_program(shape, world, cfg)),
            )
            .expect("compile rs"),
    }
}

fn assert_reports_bit_identical(a: &OverlapReport, b: &OverlapReport, ctx: &str) {
    assert_eq!(a.total_s.to_bits(), b.total_s.to_bits(), "total_s: {ctx}");
    assert_eq!(
        a.comm_only_s.to_bits(),
        b.comm_only_s.to_bits(),
        "comm_only_s: {ctx}"
    );
    assert_eq!(
        a.comp_only_s.to_bits(),
        b.comp_only_s.to_bits(),
        "comp_only_s: {ctx}"
    );
}

#[test]
fn warm_axis_neighbour_compiles_match_cold_compiles_for_both_cost_models() {
    let shape = moe_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let sm_count = cluster.gpu.sm_count;
    let analytic: SharedCost = analytic_cost(&cluster);
    let calibrated: SharedCost =
        std::sync::Arc::new(CalibratedCostModel::h800_defaults(cluster.clone()));
    let base = OverlapConfig::default();

    let mut checked = 0usize;
    for nb in standard_axis_neighbours(&base) {
        if nb == base || nb.validate(sm_count).is_err() {
            continue;
        }
        // Ring schedules forward partials to a neighbour, which is inherently
        // a push; the standard space prunes ring+pull the same way.
        if nb.order == TileOrder::Ring && nb.mode != TransferMode::Push {
            continue;
        }
        for site in ["ag", "rs"] {
            for (model, cost) in [("analytic", &analytic), ("calibrated", &calibrated)] {
                let ctx = format!("{site}/{model}: {base:?} -> {nb:?}");

                // Warm path: the cache holds the base candidate, exactly as a
                // search leaves it before stepping to the neighbour.
                reset_compile_cache();
                let _ = compile_kernel(site, &shape, &cluster, &base, cost);
                let warm = compile_kernel(site, &shape, &cluster, &nb, cost);
                let warm_graph = task_graph(&warm, &cluster);
                let warm_report = simulate_report(&warm, cost).expect("warm report");

                // Cold path: the same neighbour compiled from nothing.
                reset_compile_cache();
                let cold = compile_kernel(site, &shape, &cluster, &nb, cost);
                let cold_graph = task_graph(&cold, &cluster);
                let cold_report = simulate_report(&cold, cost).expect("cold report");

                assert_eq!(warm, cold, "compiled kernel: {ctx}");
                assert_eq!(warm_graph, cold_graph, "task graph: {ctx}");
                assert_reports_bit_identical(&warm_report, &cold_report, &ctx);
                match simulate_makespan(&warm, cost, f64::INFINITY).expect("warm makespan") {
                    BoundedMakespan::Finished(total) => assert_eq!(
                        total.to_bits(),
                        warm_report.total_s.to_bits(),
                        "makespan-only total_s: {ctx}"
                    ),
                    BoundedMakespan::Exceeded(_) => panic!("infinite cutoff aborted: {ctx}"),
                }
                checked += 1;
            }
        }
    }
    // 13 distinct neighbours survive pruning; each is checked for both
    // kernels and both cost models. Guard the loop against silently
    // vacuous pruning.
    assert!(checked >= 40, "only {checked} neighbour cases checked");
}

//! Figure 9: MoE layers across MoE-1..6.
//!
//! Run with `cargo bench -p tilelink-bench --bench fig9_moe`.

use tilelink_bench::{bench_case, cost_for, default_cluster, fig9, geomean, MoePanel};
use tilelink_sim::CostModelSpec;
use tilelink_workloads::{moe, shapes};

fn main() {
    let cost = cost_for(&default_cluster(), &CostModelSpec::Analytic);
    for shape in shapes::moe_shapes().iter().take(2) {
        bench_case(
            &format!("fig9/tilelink_full_moe/{}", shape.name),
            10,
            || {
                moe::timed_full_moe(shape, &cost).unwrap();
            },
        );
    }

    for (panel, name) in [
        (MoePanel::First, "AG+Gather+GroupGEMM"),
        (MoePanel::Second, "GroupGEMM+Scatter+TopK+RS"),
        (MoePanel::Full, "full MoE"),
    ] {
        let groups = fig9(panel, &cost);
        println!(
            "Figure 9 {name}: TileLink geomean speedup over cuBLAS+NCCL = {:.2}x, over vLLM-Op = {:.2}x",
            geomean(groups.iter().map(|g| g.speedup("TileLink", "cuBLAS+NCCL"))),
            geomean(groups.iter().map(|g| g.speedup("TileLink", "vLLM-Op"))),
        );
    }
}

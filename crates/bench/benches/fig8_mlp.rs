//! Figure 8: MLP layers (AG+GEMM, GEMM+RS, full MLP) across MLP-1..6.
//!
//! Run with `cargo bench -p tilelink-bench --bench fig8_mlp`.

use tilelink_bench::{bench_case, cost_for, default_cluster, fig8, geomean, MlpPanel};
use tilelink_sim::CostModelSpec;
use tilelink_workloads::{mlp, shapes};

fn main() {
    let cost = cost_for(&default_cluster(), &CostModelSpec::Analytic);
    // Benchmark the TileLink kernel generation + simulation for two shapes.
    for shape in shapes::mlp_shapes().iter().take(2) {
        bench_case(
            &format!("fig8/tilelink_full_mlp/{}", shape.name),
            10,
            || {
                mlp::timed_full_mlp(shape, &cost).unwrap();
            },
        );
    }

    for (panel, name) in [
        (MlpPanel::AgGemm, "AG+GEMM"),
        (MlpPanel::GemmRs, "GEMM+RS"),
        (MlpPanel::Full, "full MLP"),
    ] {
        let groups = fig8(panel, &cost);
        println!(
            "Figure 8 {name}: TileLink geomean speedup over cuBLAS+NCCL = {:.2}x, over FLUX = {:.2}x",
            geomean(groups.iter().map(|g| g.speedup("TileLink", "cuBLAS+NCCL"))),
            geomean(groups.iter().map(|g| g.speedup("TileLink", "FLUX"))),
        );
    }
}

//! Figure 11: end-to-end models on 8×H800 and 16×H800.
//!
//! Run with `cargo bench -p tilelink-bench --bench fig11_e2e`.

use tilelink_bench::{bench_case, fig11, geomean};
use tilelink_sim::{analytic_cost, CostModelSpec};
use tilelink_workloads::{e2e, shapes};

fn main() {
    let (cluster, tokens) = e2e::single_node_setup();
    let cost = analytic_cost(&cluster);
    // Benchmark one dense and one MoE model end to end.
    for model in [&shapes::model_configs()[1], &shapes::model_configs()[5]] {
        bench_case(&format!("fig11/tilelink_e2e/{}", model.name), 10, || {
            e2e::tilelink_model_timing(model, tokens, &cost).unwrap();
        });
    }

    for (two_nodes, label) in [(false, "8xH800"), (true, "16xH800")] {
        let rows = fig11(two_nodes, usize::MAX, &CostModelSpec::Analytic);
        println!(
            "Figure 11 ({label}): geomean TileLink speedup over PyTorch = {:.2}x",
            geomean(rows.iter().map(|r| r.speedup()))
        );
        for r in &rows {
            println!("  {:<16} {:.2}x", r.model, r.speedup());
        }
    }
}

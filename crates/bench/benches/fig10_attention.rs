//! Figure 10: sequence-parallel self-attention and overlap ratio.
//!
//! Run with `cargo bench -p tilelink-bench --bench fig10_attention`.

use tilelink::exec::simulate_report;
use tilelink_bench::{bench_case, cost_for, default_cluster, fig10, geomean};
use tilelink_sim::CostModelSpec;
use tilelink_workloads::{attention, shapes};

fn main() {
    let cost = cost_for(&default_cluster(), &CostModelSpec::Analytic);
    let shape = &shapes::attn_shapes()[0];
    for &seq in &[16_384usize, 65_536] {
        bench_case(
            &format!("fig10/tilelink_sp_attention/{}k", seq / 1024),
            10,
            || {
                let cfg = attention::attention_config();
                let kernel = attention::sp_attention_kernel(shape, seq, &cfg, &cost).unwrap();
                simulate_report(&kernel, &cost).unwrap();
            },
        );
    }

    for idx in 0..shapes::attn_shapes().len() {
        let rows = fig10(idx, &cost);
        println!(
            "Figure 10 {}: geomean speedup over Torch = {:.2}x, over RingAttn = {:.2}x, mean overlap ratio = {:.1}%",
            shapes::attn_shapes()[idx].name,
            geomean(rows.iter().map(|r| r.group.speedup("TileLink", "Torch"))),
            geomean(rows.iter().map(|r| r.group.speedup("TileLink", "RingAttn"))),
            100.0 * rows.iter().map(|r| r.overlap_ratio).sum::<f64>() / rows.len() as f64,
        );
    }
}

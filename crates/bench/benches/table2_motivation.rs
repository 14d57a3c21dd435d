//! Table 2: the motivational MLP-1 example under the four techniques.
//!
//! Run with `cargo bench -p tilelink-bench --bench table2_motivation`.

use tilelink::exec::simulate_report;
use tilelink_bench::{bench_case, cost_for, default_cluster, table2};
use tilelink_sim::CostModelSpec;
use tilelink_workloads::{baselines, mlp, shapes};

fn main() {
    let cost = cost_for(&default_cluster(), &CostModelSpec::Analytic);
    let shape = &shapes::mlp_shapes()[0];
    bench_case("table2/non_overlap_ag_gemm", 10, || {
        baselines::non_overlap_ag_gemm(shape, &*cost);
    });
    bench_case("table2/tilelink_ag_gemm", 10, || {
        let kernel = mlp::ag_gemm_kernel(shape, &mlp::ag_gemm_config(), &cost).unwrap();
        simulate_report(&kernel, &cost).unwrap();
    });
    bench_case("table2/tilelink_gemm_rs", 10, || {
        let kernel = mlp::gemm_rs_kernel(shape, &mlp::gemm_rs_config(), &cost).unwrap();
        simulate_report(&kernel, &cost).unwrap();
    });

    // Print the actual table once so `cargo bench` output records it.
    for g in table2(&cost) {
        println!("{}:", g.label);
        for e in &g.entries {
            println!("  {:<15} {:>9.3} ms", e.method, e.ms);
        }
    }
}

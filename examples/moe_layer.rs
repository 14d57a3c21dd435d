//! MoE layer example: dynamic routing, dynamic mapping and overlap.
//!
//! Run with `cargo run --release --example moe_layer`.

use tilelink_compute::topk::topk_routing;
use tilelink_compute::Tensor;
use tilelink_sim::{analytic_cost, ClusterSpec};
use tilelink_workloads::{baselines, moe, shapes};

fn main() {
    // --- functional overlapped AG + Gather + GroupGEMM ----------------------
    let world = 2;
    let (m, h, experts, i_local, top_k) = (16, 8, 4, 6, 2);
    let tokens = Tensor::random(&[m, h], 1);
    let logits = Tensor::random(&[m, experts], 2);
    let weights: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[experts, h, i_local], 40 + r as u64))
        .collect();
    let routing = topk_routing(&logits, top_k);
    println!(
        "router put {:?} tokens on each expert",
        routing.expert_counts()
    );

    let results = moe::ag_moe_functional(world, &tokens, &logits, &weights, top_k, 4, 4);
    println!(
        "overlapped MoE first half produced expert outputs of shape {:?} on {} ranks",
        results[0].expert_out.shape(),
        results.len()
    );

    // --- simulated Figure 9 comparison --------------------------------------
    let cost = analytic_cost(&ClusterSpec::h800_node(8));
    for shape in shapes::moe_shapes().iter().take(3) {
        let cublas = baselines::cublas_nccl_full_moe(shape, &*cost);
        let vllm = baselines::vllm_full_moe(shape, &*cost);
        let tilelink = moe::timed_full_moe(shape, &cost).expect("simulation");
        println!(
            "{}: cuBLAS+NCCL {:>7.3} ms | vLLM-Op {:>7.3} ms | TileLink {:>7.3} ms ({:.2}x over cuBLAS)",
            shape.name,
            cublas.total_ms(),
            vllm.total_ms(),
            tilelink.total_ms(),
            tilelink.speedup_over(&cublas),
        );
    }
}

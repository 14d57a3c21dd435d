//! Tensor-parallel MLP example: functional correctness + simulated performance.
//!
//! Runs the overlapped AllGather+GEMM and GEMM+ReduceScatter kernels on real
//! data (checked against the unoverlapped reference), then reproduces the
//! Table 2 comparison on the simulated 8×H800 node.
//!
//! Run with `cargo run --release --example tp_mlp`.

use tilelink_compute::gemm::matmul;
use tilelink_compute::Tensor;
use tilelink_sim::{analytic_cost, ClusterSpec};
use tilelink_workloads::{baselines, mlp, shapes};

fn main() {
    // --- functional check on a small problem -------------------------------
    let world = 4;
    let tokens = Tensor::random(&[32, 16], 1);
    let weights: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[16, 8], 10 + r as u64))
        .collect();
    let outputs = mlp::ag_gemm_functional(world, &tokens, &weights, 4, 8);
    for (rank, out) in outputs.iter().enumerate() {
        let reference = matmul(&tokens, &weights[rank]);
        assert!(out.allclose(&reference, 1e-4));
    }
    println!("functional AG+GEMM matches the unoverlapped reference on {world} ranks");

    let acts: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[32, 8], 20 + r as u64))
        .collect();
    let w2: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[8, 12], 30 + r as u64))
        .collect();
    let rs_out = mlp::gemm_rs_functional(world, &acts, &w2, 4);
    println!(
        "functional GEMM+ReduceScatter produced {} shards of shape {:?}",
        rs_out.len(),
        rs_out[0].shape()
    );

    // --- simulated performance on 8xH800 (Table 2 / Figure 8) --------------
    let cost = analytic_cost(&ClusterSpec::h800_node(8));
    let shape = &shapes::mlp_shapes()[0];
    let non_overlap = baselines::non_overlap_full_mlp(shape, &*cost);
    let flux = baselines::flux_full_mlp(shape, &*cost);
    let tilelink = mlp::timed_full_mlp(shape, &cost).expect("simulation");
    println!("\nMLP-1 ({}) on simulated 8xH800:", shape.source);
    println!("  cuBLAS+NCCL : {:>8.3} ms", non_overlap.total_ms());
    println!("  FLUX        : {:>8.3} ms", flux.total_ms());
    println!(
        "  TileLink    : {:>8.3} ms  ({})",
        tilelink.total_ms(),
        tilelink
    );
    println!(
        "  speedup over non-overlap: {:.2}x",
        tilelink.speedup_over(&non_overlap)
    );
}

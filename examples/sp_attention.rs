//! Sequence-parallel attention example: AllGather-KV overlapped with flash
//! attention (Figure 6 / Figure 10 of the paper).
//!
//! Run with `cargo run --release --example sp_attention`.

use tilelink::exec::simulate_report;
use tilelink_compute::attention::attention_reference;
use tilelink_compute::Tensor;
use tilelink_sim::{analytic_cost, ClusterSpec};
use tilelink_workloads::{attention, baselines, shapes};

fn main() {
    // --- functional check ----------------------------------------------------
    let world = 4;
    let (s_per_rank, d) = (8, 8);
    let q: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[s_per_rank, d], r as u64))
        .collect();
    let k: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[s_per_rank, d], 10 + r as u64))
        .collect();
    let v: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[s_per_rank, d], 20 + r as u64))
        .collect();
    let outputs = attention::sp_attention_functional(world, &q, &k, &v, 4);
    let k_full = Tensor::concat_rows(&k);
    let v_full = Tensor::concat_rows(&v);
    for (rank, out) in outputs.iter().enumerate() {
        assert!(out.allclose(&attention_reference(&q[rank], &k_full, &v_full), 1e-3));
    }
    println!("overlapped AG-KV + flash attention matches the reference on {world} ranks");

    // --- simulated Figure 10 -------------------------------------------------
    let cost = analytic_cost(&ClusterSpec::h800_node(8));
    let cfg = attention::attention_config();
    let shape = &shapes::attn_shapes()[0];
    println!("\n{} on simulated 8xH800:", shape.name);
    for &seq in &shape.seq_lens {
        let torch = baselines::torch_attention(shape, seq, &*cost);
        let ring = baselines::ring_attention(shape, seq, &*cost);
        let kernel = attention::sp_attention_kernel(shape, seq, &cfg, &cost).expect("compile");
        let tl = simulate_report(&kernel, &cost).expect("simulation");
        println!(
            "  seq {:>6}: Torch {:>9.2} ms | RingAttn {:>9.2} ms | TileLink {:>9.2} ms | overlap ratio {:>5.1}%",
            seq,
            torch.total_ms(),
            ring.total_ms(),
            tl.total_ms(),
            tl.overlap_ratio() * 100.0
        );
    }
}

//! Cross-crate integration tests: overlapped kernels against collective +
//! compute references, and compiled kernels against the simulator.

use tilelink::exec::simulate_report;
use tilelink_collectives::Comm;
use tilelink_compute::attention::attention_reference;
use tilelink_compute::gemm::matmul;
use tilelink_compute::Tensor;
use tilelink_shmem::ProcessGroup;
use tilelink_sim::{analytic_cost, ClusterSpec};
use tilelink_workloads::{attention, baselines, mlp, moe, shapes};

#[test]
fn overlapped_ag_gemm_equals_collective_then_gemm() {
    // The fused kernel must produce exactly what "NCCL AllGather then cuBLAS
    // GEMM" produces.
    let world = 4;
    let (m, k, n_local) = (32, 8, 6);
    let tokens = Tensor::random(&[m, k], 1);
    let weights: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[k, n_local], 7 + r as u64))
        .collect();

    let overlapped = mlp::ag_gemm_functional(world, &tokens, &weights, 4, 8);

    let tokens2 = tokens.clone();
    let weights2 = weights.clone();
    let reference = ProcessGroup::launch(world, move |ctx| {
        let rank = ctx.rank();
        let mut comm = Comm::new(ctx);
        let shard = tokens2.slice_rows(rank * m / world..(rank + 1) * m / world);
        let gathered = comm.all_gather(shard.data());
        let gathered = Tensor::from_vec(gathered, &[m, k]);
        matmul(&gathered, &weights2[rank])
    });

    for (o, r) in overlapped.iter().zip(&reference) {
        assert!(o.allclose(r, 1e-4));
    }
}

#[test]
fn overlapped_gemm_rs_equals_gemm_then_reduce_scatter() {
    let world = 4;
    let (m, k_local, n) = (16, 4, 6);
    let acts: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[m, k_local], 11 + r as u64))
        .collect();
    let weights: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[k_local, n], 17 + r as u64))
        .collect();

    let overlapped = mlp::gemm_rs_functional(world, &acts, &weights, 2);

    let acts2 = acts.clone();
    let weights2 = weights.clone();
    let reference = ProcessGroup::launch(world, move |ctx| {
        let mut comm = Comm::new(ctx);
        let partial = matmul(&acts2[comm.rank()], &weights2[comm.rank()]);
        Tensor::from_vec(comm.reduce_scatter(partial.data()), &[m / world, n])
    });

    for (o, r) in overlapped.iter().zip(&reference) {
        assert!(o.allclose(r, 1e-3));
    }
}

#[test]
fn full_functional_mlp_layer_matches_single_device_math() {
    // AG+GEMM -> SiLU-mul -> GEMM+RS pieced together from the functional
    // overlapped kernels equals the plain single-device computation.
    let world = 2;
    let (m, h, i) = (16, 6, 8);
    let tokens = Tensor::random(&[m, h], 3);
    // gate and up projections, column-sharded
    let w_gate: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[h, i / world], 31 + r as u64))
        .collect();
    let w_up: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[h, i / world], 41 + r as u64))
        .collect();
    // second projection, row-sharded
    let w_down: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[i / world, h], 51 + r as u64))
        .collect();

    let gate = mlp::ag_gemm_functional(world, &tokens, &w_gate, 4, 4);
    let up = mlp::ag_gemm_functional(world, &tokens, &w_up, 4, 4);
    let hidden: Vec<Tensor> = (0..world)
        .map(|r| tilelink_compute::activation::silu_mul(&gate[r], &up[r]))
        .collect();
    let down = mlp::gemm_rs_functional(world, &hidden, &w_down, 4);

    // single-device reference
    let w_gate_full =
        Tensor::concat_rows(&w_gate.iter().map(|w| w.transpose()).collect::<Vec<_>>()).transpose();
    let w_up_full =
        Tensor::concat_rows(&w_up.iter().map(|w| w.transpose()).collect::<Vec<_>>()).transpose();
    let w_down_full = Tensor::concat_rows(&w_down);
    let reference = matmul(
        &tilelink_compute::activation::silu_mul(
            &matmul(&tokens, &w_gate_full),
            &matmul(&tokens, &w_up_full),
        ),
        &w_down_full,
    );
    let stitched = Tensor::concat_rows(&down);
    assert!(
        stitched.allclose(&reference, 1e-3),
        "diff {}",
        stitched.max_abs_diff(&reference)
    );
}

#[test]
fn overlapped_moe_equals_dispatch_reference() {
    let world = 2;
    let tokens = Tensor::random(&[12, 6], 5);
    let logits = Tensor::random(&[12, 4], 6);
    let weights: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[4, 6, 5], 70 + r as u64))
        .collect();
    let results = moe::ag_moe_functional(world, &tokens, &logits, &weights, 2, 2, 4);

    let routing = tilelink_compute::topk::topk_routing(&logits, 2);
    let dispatch = tilelink_compute::Dispatch::new(&routing);
    for (rank, res) in results.iter().enumerate() {
        let expected = tilelink_compute::group_gemm::group_gemm(
            &dispatch.gather(&tokens),
            &dispatch.expert_offsets,
            &weights[rank],
        );
        assert!(res.expert_out.allclose(&expected, 1e-3));
    }
}

#[test]
fn overlapped_attention_equals_reference_attention() {
    let world = 2;
    let (s_per_rank, d) = (6, 4);
    let q: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[s_per_rank, d], r as u64))
        .collect();
    let k: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[s_per_rank, d], 10 + r as u64))
        .collect();
    let v: Vec<Tensor> = (0..world)
        .map(|r| Tensor::random(&[s_per_rank, d], 20 + r as u64))
        .collect();
    let out = attention::sp_attention_functional(world, &q, &k, &v, 3);
    let k_full = Tensor::concat_rows(&k);
    let v_full = Tensor::concat_rows(&v);
    for (rank, o) in out.iter().enumerate() {
        assert!(o.allclose(&attention_reference(&q[rank], &k_full, &v_full), 1e-3));
    }
}

#[test]
fn paper_headline_speedups_hold_on_the_simulated_cluster() {
    // The paper claims 1.17x–20.76x over non-overlapping baselines. Verify the
    // simulated reproduction stays within (a generous reading of) that band for
    // representative workloads.
    let cost = analytic_cost(&ClusterSpec::h800_node(8));

    let mlp_shape = &shapes::mlp_shapes()[0];
    let mlp_speedup = mlp::timed_full_mlp(mlp_shape, &cost)
        .unwrap()
        .speedup_over(&baselines::non_overlap_full_mlp(mlp_shape, &*cost));
    assert!(
        mlp_speedup > 1.1 && mlp_speedup < 3.0,
        "MLP speedup {mlp_speedup:.2}"
    );

    let moe_shape = &shapes::moe_shapes()[2];
    let moe_speedup = moe::timed_full_moe(moe_shape, &cost)
        .unwrap()
        .speedup_over(&baselines::cublas_nccl_full_moe(moe_shape, &*cost));
    assert!(
        moe_speedup > 2.0 && moe_speedup < 25.0,
        "MoE speedup {moe_speedup:.2}"
    );

    let attn_shape = &shapes::attn_shapes()[0];
    let attn_cfg = attention::attention_config();
    let attn_kernel = attention::sp_attention_kernel(attn_shape, 65_536, &attn_cfg, &cost).unwrap();
    let attn = simulate_report(&attn_kernel, &cost).unwrap();
    let attn_speedup = attn.speedup_over(&baselines::torch_attention(attn_shape, 65_536, &*cost));
    assert!(
        attn_speedup > 2.0 && attn_speedup < 10.0,
        "attention speedup {attn_speedup:.2}"
    );
}

#[test]
fn multi_node_cluster_is_slower_but_still_overlaps() {
    let shape = &shapes::mlp_shapes()[0];
    let price = |cluster| {
        let cost = analytic_cost(&cluster);
        let kernel = mlp::ag_gemm_kernel(shape, &mlp::ag_gemm_config(), &cost).unwrap();
        simulate_report(&kernel, &cost).unwrap()
    };
    let r1 = price(ClusterSpec::h800_node(8));
    let r2 = price(ClusterSpec::h800_multi_node(2));
    // More ranks, slower inter-node links: the collective takes longer.
    assert!(r2.comm_only_s > r1.comm_only_s);
    assert!(r2.total_s < r2.comm_only_s + r2.comp_only_s);
}

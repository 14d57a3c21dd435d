//! Representative simulator task graphs of real kernels.
//!
//! `reproduce --trace-out` of `tilelink-bench` simulates these graphs with
//! [`tilelink_sim::Engine`] and exports each as a Chrome trace. This module
//! builds the three graphs — a Figure 8 MLP half, a routed Figure 9 MoE half
//! and a two-node end-to-end-scale kernel — through the same kernel functions
//! the figures and the tuner compile, so the traces show the kernels they
//! price.

use tilelink::exec::task_graph;
use tilelink_sim::{SharedCost, TaskGraph};

use crate::moe::{RoutingProfile, RoutingSampler};
use crate::{autotune, e2e, mlp, moe, shapes, MlpShape};

/// The Figure 8 MLP-1 AllGather + GEMM kernel graph under the default config.
///
/// # Errors
///
/// Returns an error if the kernel fails to compile.
pub fn fig8_mlp_graph_with(cost: &SharedCost) -> tilelink::Result<TaskGraph> {
    let shape = &shapes::mlp_shapes()[0];
    let kernel = mlp::ag_gemm_kernel(shape, &mlp::ag_gemm_config(), cost)?;
    Ok(task_graph(&kernel, cost.cluster()))
}

/// The Figure 9 MoE-1 routed AG + Gather + GroupGEMM kernel graph for one
/// deterministically sampled uniform routing (the dynamic-mapping consumer
/// layout, i.e. the graph the routing-aware tuner prices per sample).
///
/// # Errors
///
/// Returns an error if the routed program or kernel fails to build.
pub fn fig9_routed_moe_graph_with(cost: &SharedCost) -> tilelink::Result<TaskGraph> {
    let shape = &shapes::moe_shapes()[0];
    let sampler = RoutingSampler::new(RoutingProfile::Uniform, autotune::DEFAULT_ROUTING_SEED);
    let sample = sampler
        .samples_for(shape, 1)
        .into_iter()
        .next()
        .expect("one sample requested");
    let kernel = moe::routed_ag_group_gemm_kernel(shape, &moe::moe_config(), cost, &sample)?;
    Ok(task_graph(&kernel, cost.cluster()))
}

/// An end-to-end-scale kernel graph on the two-node (16×H800) Figure 11
/// setup: the dense MLP AllGather + GEMM at the e2e token count, where
/// transfers cross the InfiniBand fabric.
///
/// `cost` must be priced for [`e2e::two_node_setup`]'s cluster.
///
/// # Errors
///
/// Returns an error if the kernel fails to compile.
pub fn e2e_two_node_graph_with(cost: &SharedCost) -> tilelink::Result<TaskGraph> {
    let (cluster, tokens) = e2e::two_node_setup();
    assert_eq!(
        cost.cluster(),
        &cluster,
        "cost must be priced for the two-node e2e cluster"
    );
    let shape = MlpShape {
        tokens,
        ..shapes::mlp_shapes()[0].clone()
    };
    let kernel = mlp::ag_gemm_kernel(&shape, &mlp::ag_gemm_config(), cost)?;
    Ok(task_graph(&kernel, &cluster))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilelink_sim::{analytic_cost, Engine};

    #[test]
    fn bench_graphs_build_and_simulate() {
        let single = analytic_cost(&tilelink_sim::ClusterSpec::h800_node(8));
        let two_node = analytic_cost(&e2e::two_node_setup().0);
        for (label, graph) in [
            ("fig8", fig8_mlp_graph_with(&single).unwrap()),
            ("fig9", fig9_routed_moe_graph_with(&single).unwrap()),
            ("e2e", e2e_two_node_graph_with(&two_node).unwrap()),
        ] {
            assert!(!graph.is_empty(), "{label}");
            let cost = if label == "e2e" { &two_node } else { &single };
            let engine = Engine::with_cost(cost.clone());
            let fast = engine.makespan(&graph, f64::INFINITY).unwrap().clock();
            let traced = engine.run(&graph).unwrap().makespan();
            assert!(fast > 0.0, "{label}");
            assert_eq!(fast.to_bits(), traced.to_bits(), "{label}");
        }
    }
}

//! Timed collectives: closed-form ring estimates plus task-graph builders for
//! the cluster simulator.
//!
//! The non-overlapped ("cuBLAS+NCCL") and decomposed ("Async-TP") baselines
//! of the paper's figures price their collectives with the closed forms
//! [`ring_collective_seconds`] and [`ring_hop_seconds`], which follow the
//! *cost structure* of NCCL's ring collectives. The task-graph builders
//! simulate the same rings step by step; they serve as this module's test
//! reference for the closed forms. Every builder returns a
//! [`CollectiveSchedule`] with per-rank start and end marker tasks so callers
//! can wire the collective into a larger dependency graph.

use tilelink_sim::{ClusterSpec, CostProvider, GpuSpec, ResourceKind, TaskGraph, TaskId, Work};

/// Which hardware resource carries the collective's data movement.
///
/// NCCL kernels copy with SMs; host-driven peer copies use the DMA copy
/// engines. The distinction matters because SM-driven copies contend with
/// compute (the "resource mapping" subspace of Figure 2c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommResource {
    /// Copy with `units` streaming multiprocessors (NCCL-style).
    Sm {
        /// Number of SMs dedicated to the copy kernels.
        units: u64,
    },
    /// Copy with the DMA copy engine (cudaMemcpyPeerAsync-style).
    CopyEngine,
}

/// Per-rank entry and exit points of a collective inside a larger task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveSchedule {
    /// One marker task per rank; add dependencies *into* these to delay the collective.
    pub start: Vec<TaskId>,
    /// One marker task per rank; add dependencies *out of* these to wait for the collective.
    pub end: Vec<TaskId>,
}

fn markers(
    graph: &mut TaskGraph,
    cluster: &ClusterSpec,
    label: &str,
    launch_latency: bool,
) -> (Vec<TaskId>, Vec<TaskId>) {
    let world = cluster.world_size();
    let latency = if launch_latency {
        cluster.gpu.kernel_launch_s()
    } else {
        0.0
    };
    let start: Vec<TaskId> = (0..world)
        .map(|r| graph.add_host_latency(format!("{label}/launch/r{r}"), r, latency))
        .collect();
    let end: Vec<TaskId> = (0..world)
        .map(|r| graph.add_host_latency(format!("{label}/done/r{r}"), r, 0.0))
        .collect();
    (start, end)
}

/// Appends a ring AllGather of `bytes_per_rank` bytes contributed by each rank.
///
/// The ring runs `world_size - 1` steps; at each step every rank forwards one
/// shard to its right neighbour. The step of rank `r` depends on the previous
/// step of rank `r` *and* of rank `r - 1`, which reproduces the pipeline
/// behaviour (total time ≈ `(R-1)/R × data / bandwidth` once the pipeline is
/// full).
pub fn ring_all_gather(
    graph: &mut TaskGraph,
    cluster: &ClusterSpec,
    bytes_per_rank: f64,
    label: &str,
    resource: CommResource,
) -> CollectiveSchedule {
    let world = cluster.world_size();
    let (start, end) = markers(graph, cluster, label, true);
    if world == 1 {
        for r in 0..world {
            graph.add_dep(start[r], end[r]);
        }
        return CollectiveSchedule { start, end };
    }
    let mut prev_step: Vec<Option<TaskId>> = vec![None; world];
    for step in 0..world - 1 {
        let mut this_step = vec![None; world];
        for rank in 0..world {
            let dst = (rank + 1) % world;
            let send = match resource {
                CommResource::CopyEngine => graph.add_task(
                    format!("{label}/comm_ag/step{step}/r{rank}"),
                    rank,
                    ResourceKind::DmaEngine,
                    1,
                    Work::LinkBytes {
                        bytes: bytes_per_rank,
                        dst_rank: dst,
                    },
                ),
                // SM-driven NCCL copy kernels saturate the port; their SM
                // footprint is small, so the dominant effect is LinkOut occupancy.
                CommResource::Sm { .. } => graph.add_task(
                    format!("{label}/comm_ag/step{step}/r{rank}"),
                    rank,
                    ResourceKind::LinkOut,
                    GpuSpec::LINK_PORT_SHARES,
                    Work::LinkBytes {
                        bytes: bytes_per_rank,
                        dst_rank: dst,
                    },
                ),
            };
            match step {
                0 => graph.add_dep(start[rank], send),
                _ => {
                    if let Some(p) = prev_step[rank] {
                        graph.add_dep(p, send);
                    }
                    let left = (rank + world - 1) % world;
                    if let Some(p) = prev_step[left] {
                        graph.add_dep(p, send);
                    }
                }
            }
            this_step[rank] = Some(send);
        }
        prev_step = this_step;
    }
    for rank in 0..world {
        // A rank is done when it has sent its last shard and its left neighbour
        // has delivered the final shard to it.
        if let Some(p) = prev_step[rank] {
            graph.add_dep(p, end[rank]);
        }
        let left = (rank + world - 1) % world;
        if let Some(p) = prev_step[left] {
            graph.add_dep(p, end[rank]);
        }
    }
    CollectiveSchedule { start, end }
}

/// Appends a ring ReduceScatter where every rank contributes
/// `bytes_per_rank * world_size` bytes and keeps one reduced shard.
///
/// Cost structure is identical to the AllGather ring (each rank forwards
/// `world_size - 1` shards of `bytes_per_rank` bytes) plus an HBM-bound
/// reduction of the received data at every step.
pub fn ring_reduce_scatter(
    graph: &mut TaskGraph,
    cluster: &ClusterSpec,
    bytes_per_rank: f64,
    label: &str,
    resource: CommResource,
) -> CollectiveSchedule {
    let world = cluster.world_size();
    let (start, end) = markers(graph, cluster, label, true);
    if world == 1 {
        for r in 0..world {
            graph.add_dep(start[r], end[r]);
        }
        return CollectiveSchedule { start, end };
    }
    let reduce_sms = match resource {
        CommResource::Sm { units } => units.max(1),
        CommResource::CopyEngine => 16,
    };
    let mut prev_step: Vec<Option<TaskId>> = vec![None; world];
    for step in 0..world - 1 {
        let mut this_step = vec![None; world];
        for rank in 0..world {
            let dst = (rank + 1) % world;
            let send = graph.add_task(
                format!("{label}/comm_rs/step{step}/r{rank}"),
                rank,
                match resource {
                    CommResource::CopyEngine => ResourceKind::DmaEngine,
                    CommResource::Sm { .. } => ResourceKind::LinkOut,
                },
                match resource {
                    CommResource::CopyEngine => 1,
                    CommResource::Sm { .. } => GpuSpec::LINK_PORT_SHARES,
                },
                Work::LinkBytes {
                    bytes: bytes_per_rank,
                    dst_rank: dst,
                },
            );
            // Element-wise reduction of the received shard with the local shard.
            let reduce = graph.add_task(
                format!("{label}/comm_rs_reduce/step{step}/r{rank}"),
                rank,
                ResourceKind::Sm,
                reduce_sms,
                Work::HbmBytes {
                    bytes: bytes_per_rank * 3.0,
                },
            );
            match step {
                0 => graph.add_dep(start[rank], send),
                _ => {
                    if let Some(p) = prev_step[rank] {
                        graph.add_dep(p, send);
                    }
                }
            }
            // The reduction consumes the shard pushed by the left neighbour.
            let left = (rank + world - 1) % world;
            if step > 0 {
                if let Some(p) = prev_step[left] {
                    graph.add_dep(p, send);
                }
            }
            graph.add_dep(send, reduce);
            this_step[rank] = Some(reduce);
        }
        prev_step = this_step;
    }
    for rank in 0..world {
        if let Some(p) = prev_step[rank] {
            graph.add_dep(p, end[rank]);
        }
        let left = (rank + world - 1) % world;
        if let Some(p) = prev_step[left] {
            graph.add_dep(p, end[rank]);
        }
    }
    CollectiveSchedule { start, end }
}

/// Appends an AllReduce (ring ReduceScatter followed by ring AllGather).
pub fn all_reduce(
    graph: &mut TaskGraph,
    cluster: &ClusterSpec,
    bytes_per_rank: f64,
    label: &str,
    resource: CommResource,
) -> CollectiveSchedule {
    let rs = ring_reduce_scatter(
        graph,
        cluster,
        bytes_per_rank,
        &format!("{label}/rs"),
        resource,
    );
    let ag = ring_all_gather(
        graph,
        cluster,
        bytes_per_rank,
        &format!("{label}/ag"),
        resource,
    );
    for r in 0..cluster.world_size() {
        graph.add_dep(rs.end[r], ag.start[r]);
    }
    CollectiveSchedule {
        start: rs.start,
        end: ag.end,
    }
}

/// Appends an all-to-all where every rank sends `bytes_per_pair` bytes to every
/// other rank (full-mesh, all transfers issued concurrently and serialised by
/// the port bandwidth model).
pub fn all_to_all(
    graph: &mut TaskGraph,
    cluster: &ClusterSpec,
    bytes_per_pair: f64,
    label: &str,
) -> CollectiveSchedule {
    let world = cluster.world_size();
    let (start, end) = markers(graph, cluster, label, true);
    for src in 0..world {
        for dst in 0..world {
            if src == dst {
                continue;
            }
            let t = graph.add_task(
                format!("{label}/comm_a2a/{src}->{dst}"),
                src,
                ResourceKind::LinkOut,
                (GpuSpec::LINK_PORT_SHARES / (world as u64 - 1)).max(1),
                Work::LinkBytes {
                    bytes: bytes_per_pair,
                    dst_rank: dst,
                },
            );
            graph.add_dep(start[src], t);
            graph.add_dep(t, end[src]);
            graph.add_dep(t, end[dst]);
        }
    }
    CollectiveSchedule { start, end }
}

/// Seconds of the *slowest* hop of a rank → rank+1 ring moving `bytes` per
/// step, priced through `cost` (so it carries the provider's per-message α
/// floor and any calibrated bandwidth curve).
///
/// On a single node every hop rides NVLink and this equals the rank 0→1 hop;
/// on a multi-node ring the node-crossing hops ride InfiniBand and the ring
/// pipeline drains at that bottleneck rate. Every closed-form ring estimate
/// (here and in the workload baselines) prices hops through this one helper so
/// the estimators cannot drift apart.
pub fn ring_hop_seconds(cost: &dyn CostProvider, bytes: f64) -> f64 {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    if world <= 1 {
        return 0.0;
    }
    (0..world)
        .map(|r| cost.link_seconds(r, (r + 1) % world, bytes))
        .fold(0.0, f64::max)
}

/// Closed-form estimate of a ring collective's duration in seconds: `(R-1)`
/// pipeline steps of `bytes_per_rank` at the slowest hop in the ring
/// ([`ring_hop_seconds`]), priced by an explicit cost provider.
///
/// Every baseline prices its collectives through this estimate (or
/// [`ring_hop_seconds`] directly); the task-graph builders above are the test
/// reference it is checked against.
pub fn ring_collective_seconds(cost: &dyn CostProvider, bytes_per_rank: f64) -> f64 {
    let world = cost.cluster().world_size();
    if world <= 1 {
        return 0.0;
    }
    (world - 1) as f64 * ring_hop_seconds(cost, bytes_per_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilelink_sim::{CostModel, Engine};

    fn run(graph: &TaskGraph, cluster: &ClusterSpec) -> f64 {
        Engine::new(cluster.clone()).run(graph).unwrap().makespan()
    }

    #[test]
    fn all_gather_time_scales_with_world_size_fraction() {
        // Ring AG moves (R-1)/R of the data through each port: doubling the data
        // should roughly double the makespan.
        let cluster = ClusterSpec::h800_node(8);
        let mut g1 = TaskGraph::new();
        ring_all_gather(
            &mut g1,
            &cluster,
            16e6,
            "ag",
            CommResource::Sm { units: 20 },
        );
        let mut g2 = TaskGraph::new();
        ring_all_gather(
            &mut g2,
            &cluster,
            32e6,
            "ag",
            CommResource::Sm { units: 20 },
        );
        let t1 = run(&g1, &cluster);
        let t2 = run(&g2, &cluster);
        assert!(t2 > 1.7 * t1 && t2 < 2.3 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn all_gather_matches_closed_form_estimate() {
        let cluster = ClusterSpec::h800_node(8);
        let bytes = 64e6;
        let mut g = TaskGraph::new();
        ring_all_gather(
            &mut g,
            &cluster,
            bytes,
            "ag",
            CommResource::Sm { units: 20 },
        );
        let simulated = run(&g, &cluster);
        let estimate = ring_collective_seconds(&CostModel::new(cluster.clone()), bytes);
        assert!(
            simulated > estimate * 0.9 && simulated < estimate * 1.5,
            "simulated {simulated} vs estimate {estimate}"
        );
    }

    #[test]
    fn reduce_scatter_is_slower_than_all_gather_of_same_bytes() {
        // The RS ring does the same transfers plus the reduction work.
        let cluster = ClusterSpec::h800_node(8);
        let mut ag = TaskGraph::new();
        ring_all_gather(
            &mut ag,
            &cluster,
            16e6,
            "ag",
            CommResource::Sm { units: 20 },
        );
        let mut rs = TaskGraph::new();
        ring_reduce_scatter(
            &mut rs,
            &cluster,
            16e6,
            "rs",
            CommResource::Sm { units: 20 },
        );
        assert!(run(&rs, &cluster) >= run(&ag, &cluster));
    }

    #[test]
    fn all_reduce_costs_about_twice_a_ring_pass() {
        let cluster = ClusterSpec::h800_node(8);
        let bytes = 32e6;
        let mut ar = TaskGraph::new();
        all_reduce(
            &mut ar,
            &cluster,
            bytes,
            "ar",
            CommResource::Sm { units: 20 },
        );
        let t_ar = run(&ar, &cluster);
        let single_pass = ring_collective_seconds(&CostModel::new(cluster.clone()), bytes);
        assert!(t_ar > 1.8 * single_pass && t_ar < 3.0 * single_pass);
    }

    #[test]
    fn inter_node_collectives_are_slower() {
        let one = ClusterSpec::h800_node(8);
        let two = ClusterSpec::h800_multi_node(2);
        let mut g1 = TaskGraph::new();
        ring_all_gather(&mut g1, &one, 16e6, "ag", CommResource::CopyEngine);
        let mut g2 = TaskGraph::new();
        ring_all_gather(&mut g2, &two, 16e6, "ag", CommResource::CopyEngine);
        assert!(run(&g2, &two) > run(&g1, &one));
    }

    #[test]
    fn single_rank_collectives_cost_only_the_launch() {
        let cluster = ClusterSpec::h800_node(1);
        let mut g = TaskGraph::new();
        ring_all_gather(&mut g, &cluster, 1e9, "ag", CommResource::CopyEngine);
        let t = run(&g, &cluster);
        assert!(t <= cluster.gpu.kernel_launch_s() * 1.01);
        let cost = CostModel::new(cluster);
        assert_eq!(ring_collective_seconds(&cost, 1e9), 0.0);
        assert_eq!(ring_hop_seconds(&cost, 1e9), 0.0);
    }

    #[test]
    fn closed_form_ring_pays_the_bottleneck_hop_across_nodes() {
        // Same per-rank bytes: the two-node ring has more hops *and* each
        // pipeline step drains at InfiniBand rate, so it must cost more than
        // (15/7)x the single-node estimate (the hop-count ratio alone).
        let one = ClusterSpec::h800_node(8);
        let two = ClusterSpec::h800_multi_node(2);
        let bytes = 16e6;
        let cost = CostModel::new(two);
        let t1 = ring_collective_seconds(&CostModel::new(one), bytes);
        let t2 = ring_collective_seconds(&cost, bytes);
        assert!(t2 > t1 * 15.0 / 7.0, "t1={t1} t2={t2}");
        // And the bottleneck hop itself is the IB hop, not the NVLink one.
        let hop = ring_hop_seconds(&cost, bytes);
        assert_eq!(hop, cost.link_seconds(7, 8, bytes));
        assert!(hop > cost.link_seconds(0, 1, bytes));
    }

    #[test]
    fn closed_form_ring_has_the_per_message_alpha_floor() {
        // A tiny message is latency-bound: each of the (R-1) steps pays at
        // least the link class's α, never pure bandwidth.
        let cluster = ClusterSpec::h800_node(8);
        let cost = CostModel::new(cluster);
        let tiny = ring_collective_seconds(&cost, 1.0);
        let alpha = cost.link_seconds(0, 1, 0.0);
        assert!(alpha > 0.0);
        assert!(tiny >= 7.0 * alpha, "tiny={tiny} alpha={alpha}");
    }

    #[test]
    fn all_to_all_completes_and_uses_every_pair() {
        let cluster = ClusterSpec::h800_node(4);
        let mut g = TaskGraph::new();
        let sched = all_to_all(&mut g, &cluster, 8e6, "a2a");
        assert_eq!(sched.start.len(), 4);
        let trace = Engine::new(cluster.clone()).run(&g).unwrap();
        let transfers = trace
            .entries()
            .iter()
            .filter(|e| e.name.contains("comm_a2a"))
            .count();
        assert_eq!(transfers, 4 * 3);
    }

    #[test]
    fn copy_engine_all_gather_leaves_sms_idle() {
        let cluster = ClusterSpec::h800_node(4);
        let mut g = TaskGraph::new();
        ring_all_gather(&mut g, &cluster, 64e6, "ag", CommResource::CopyEngine);
        let trace = Engine::new(cluster.clone()).run(&g).unwrap();
        assert_eq!(trace.utilization(0, ResourceKind::Sm), 0.0);
        assert!(trace.utilization(0, ResourceKind::DmaEngine) > 0.0);
    }
}

//! Shared evaluation functions for the `reproduce` binary.
//!
//! Every table and figure of the paper's evaluation (Section 7) has one
//! function here that produces its rows, and each figure has one code path:
//! Table 2 relabels the MLP-1 groups of Figure 8's first two panels, and
//! Figure 11 maps [`e2e::compare_model`] over the models, with the tuned
//! column when tuning options are given. `reproduce` is the only program
//! that prints them.

#![deny(missing_docs)]

pub mod cli;

use tilelink::exec::{simulate_report, task_graph};
use tilelink::CompiledKernel;
use tilelink_sim::{ClusterSpec, CostModelSpec, SharedCost};
use tilelink_workloads::e2e::{self, E2eComparison};
use tilelink_workloads::{attention, autotune, baselines, mlp, moe, shapes};
use tilelink_workloads::{MlpShape, RoutingProfile, RoutingSampler, TuneOptions};

/// One (method, milliseconds) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Method name as used in the paper's legends.
    pub method: &'static str,
    /// Measured (simulated) time in milliseconds.
    pub ms: f64,
}

/// A labelled group of measurements (one cluster of bars in a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Workload label (for example "MLP-1" or "Attn-1 / 32k").
    pub label: String,
    /// Measurements of every method on this workload.
    pub entries: Vec<Measurement>,
}

impl Group {
    /// Time of one method in the group.
    ///
    /// # Panics
    ///
    /// Panics if the method is not present.
    pub fn ms_of(&self, method: &str) -> f64 {
        self.entries
            .iter()
            .find(|e| e.method == method)
            .unwrap_or_else(|| panic!("method {method} missing from group {}", self.label))
            .ms
    }

    /// Speed-up of `method` over `baseline` (>1 means `method` is faster).
    pub fn speedup(&self, method: &str, baseline: &str) -> f64 {
        self.ms_of(baseline) / self.ms_of(method)
    }
}

/// The default evaluation platform: one node of 8×H800.
pub fn default_cluster() -> ClusterSpec {
    ClusterSpec::h800_node(8)
}

/// Builds the cost provider a figure harness prices a cluster with.
///
/// # Panics
///
/// Panics if the spec names a calibration file that cannot be loaded (the
/// harness validates the flag before running figures).
pub fn cost_for(cluster: &ClusterSpec, spec: &CostModelSpec) -> SharedCost {
    spec.build(cluster)
        .unwrap_or_else(|e| panic!("cannot build cost model {spec}: {e}"))
}

// ---------------------------------------------------------------------------
// Table 2 — motivational example (MLP-1, AG+GEMM and GEMM+RS)
// ---------------------------------------------------------------------------

/// Table 2's names for Figure 8's four methods, in the same order.
const TABLE2_METHODS: [&str; 4] = ["Non-Overlap", "Decomposition", "Fusion (FLUX)", "TileLink"];

/// Reproduces Table 2: the four techniques on the two halves of MLP-1,
/// priced by `cost` (the cluster is the provider's; see [`cost_for`]).
///
/// These are the MLP-1 groups of Figure 8's AG+GEMM and GEMM+RS panels under
/// the table's labels.
pub fn table2(cost: &SharedCost) -> Vec<Group> {
    let shape = &shapes::mlp_shapes()[0];
    [
        (MlpPanel::AgGemm, "AG+GEMM (MLP-1)"),
        (MlpPanel::GemmRs, "GEMM+RS (MLP-1)"),
    ]
    .into_iter()
    .map(|(panel, label)| {
        let mut group = mlp_group(panel, shape, cost);
        group.label = label.to_string();
        for (entry, method) in group.entries.iter_mut().zip(TABLE2_METHODS) {
            entry.method = method;
        }
        group
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Figure 8 — MLP layers
// ---------------------------------------------------------------------------

/// Which panel of Figure 8 to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlpPanel {
    /// AllGather + GEMM.
    AgGemm,
    /// GEMM + ReduceScatter.
    GemmRs,
    /// The full MLP layer.
    Full,
}

/// Reproduces one panel of Figure 8 across MLP-1..6, priced by `cost` (the
/// cluster is the provider's).
pub fn fig8(panel: MlpPanel, cost: &SharedCost) -> Vec<Group> {
    shapes::mlp_shapes()
        .iter()
        .map(|shape| mlp_group(panel, shape, cost))
        .collect()
}

/// One bar group of a Figure 8 panel: the four methods on one MLP shape.
fn mlp_group(panel: MlpPanel, shape: &MlpShape, cost: &SharedCost) -> Group {
    let (base, decomp, flux, tilelink) = match panel {
        MlpPanel::AgGemm => (
            baselines::non_overlap_ag_gemm(shape, &**cost).total_ms(),
            baselines::decompose_ag_gemm(shape, &**cost).total_ms(),
            baselines::flux_ag_gemm(shape, &**cost).total_ms(),
            kernel_ms(
                mlp::ag_gemm_kernel(shape, &mlp::ag_gemm_config(), cost),
                cost,
            ),
        ),
        MlpPanel::GemmRs => (
            baselines::non_overlap_gemm_rs(shape, &**cost).total_ms(),
            baselines::decompose_gemm_rs(shape, &**cost).total_ms(),
            baselines::flux_gemm_rs(shape, &**cost).total_ms(),
            kernel_ms(
                mlp::gemm_rs_kernel(shape, &mlp::gemm_rs_config(), cost),
                cost,
            ),
        ),
        MlpPanel::Full => (
            baselines::non_overlap_full_mlp(shape, &**cost).total_ms(),
            baselines::decompose_full_mlp(shape, &**cost).total_ms(),
            baselines::flux_full_mlp(shape, &**cost).total_ms(),
            mlp::timed_full_mlp(shape, cost)
                .expect("tilelink")
                .total_ms(),
        ),
    };
    group(
        shape.name.to_string(),
        [
            ("cuBLAS+NCCL", base),
            ("Async-TP Torch", decomp),
            ("FLUX", flux),
            ("TileLink", tilelink),
        ],
    )
}

// ---------------------------------------------------------------------------
// Figure 9 — MoE layers
// ---------------------------------------------------------------------------

/// Which panel of Figure 9 to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoePanel {
    /// AG + Gather + GroupGEMM.
    First,
    /// GroupGEMM + Scatter + TopK Reduce + RS.
    Second,
    /// The full MoE layer.
    Full,
}

/// Reproduces one panel of Figure 9 across MoE-1..6, priced by `cost` (the
/// cluster is the provider's).
pub fn fig9(panel: MoePanel, cost: &SharedCost) -> Vec<Group> {
    let cfg = moe::moe_config();
    shapes::moe_shapes()
        .iter()
        .map(|shape| {
            let (cublas, cutlass, vllm, tilelink) = match panel {
                MoePanel::First => (
                    baselines::cublas_nccl_moe_first(shape, &**cost).total_ms(),
                    baselines::cutlass_nccl_moe_first(shape, &**cost).total_ms(),
                    baselines::vllm_moe_first(shape, &**cost).total_ms(),
                    kernel_ms(moe::ag_group_gemm_kernel(shape, &cfg, cost, None), cost),
                ),
                MoePanel::Second => (
                    baselines::cublas_nccl_moe_second(shape, &**cost).total_ms(),
                    baselines::cutlass_nccl_moe_second(shape, &**cost).total_ms(),
                    baselines::vllm_moe_second(shape, &**cost).total_ms(),
                    kernel_ms(moe::group_gemm_rs_kernel(shape, &cfg, cost, None), cost),
                ),
                MoePanel::Full => (
                    baselines::cublas_nccl_full_moe(shape, &**cost).total_ms(),
                    baselines::cutlass_nccl_full_moe(shape, &**cost).total_ms(),
                    baselines::vllm_full_moe(shape, &**cost).total_ms(),
                    moe::timed_full_moe(shape, cost)
                        .expect("tilelink")
                        .total_ms(),
                ),
            };
            group(
                shape.name.to_string(),
                [
                    ("cuBLAS+NCCL", cublas),
                    ("CUTLASS+NCCL", cutlass),
                    ("vLLM-Op", vllm),
                    ("TileLink", tilelink),
                ],
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 10 — sequence-parallel attention + overlap ratio
// ---------------------------------------------------------------------------

/// One row of Figure 10: times for the three methods plus TileLink's overlap ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionRow {
    /// Method measurements, labelled "Attn-1 / 32k".
    pub group: Group,
    /// TileLink's overlap ratio on this point (Section 7.2 metric).
    pub overlap_ratio: f64,
}

/// Reproduces Figure 10 for one attention configuration, priced by `cost`
/// (the cluster is the provider's).
pub fn fig10(shape_index: usize, cost: &SharedCost) -> Vec<AttentionRow> {
    let shape = &shapes::attn_shapes()[shape_index];
    shape
        .seq_lens
        .iter()
        .map(|&seq| {
            let torch = baselines::torch_attention(shape, seq, &**cost).total_ms();
            let ring = baselines::ring_attention(shape, seq, &**cost).total_ms();
            let kernel =
                attention::sp_attention_kernel(shape, seq, &attention::attention_config(), cost)
                    .expect("tilelink attention");
            let tl = simulate_report(&kernel, cost).expect("tilelink attention");
            AttentionRow {
                group: group(
                    format!("{} / {}k", shape.name, seq / 1024),
                    [
                        ("Torch", torch),
                        ("RingAttn", ring),
                        ("TileLink", tl.total_ms()),
                    ],
                ),
                overlap_ratio: tl.overlap_ratio(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 11 — end-to-end models
// ---------------------------------------------------------------------------

/// Reproduces Figure 11 for either the 8-GPU (false) or 16-GPU (true) setup:
/// one [`e2e::compare_model`] per model, whose tuned column is present
/// exactly when `tune` is given.
///
/// Takes the cost-model *spec* rather than a built provider because the
/// cluster is chosen inside (a provider is bound to one cluster). With
/// `tune`, per-layer configurations come from the `tilelink-tune` search of
/// the standard space with the default beam (persistent cache and, for MoE
/// layers, routing distribution and objective taken from `tune`; its cost
/// provider is overridden per cluster), and a warm persistent cache makes
/// the tuned column report zero evaluations.
///
/// # Panics
///
/// Panics if a comparison or layer search fails.
pub fn fig11(
    two_nodes: bool,
    spec: &CostModelSpec,
    tune: Option<&TuneOptions>,
) -> Vec<E2eComparison> {
    let (cluster, tokens) = if two_nodes {
        e2e::two_node_setup()
    } else {
        e2e::single_node_setup()
    };
    let cost = cost_for(&cluster, spec);
    shapes::model_configs()
        .iter()
        .map(|model| e2e::compare_model(model, tokens, &cost, tune).expect("e2e comparison"))
        .collect()
}

/// A bar group from (method, milliseconds) pairs.
fn group<const N: usize>(label: String, entries: [(&'static str, f64); N]) -> Group {
    Group {
        label,
        entries: entries
            .into_iter()
            .map(|(method, ms)| Measurement { method, ms })
            .collect(),
    }
}

/// Milliseconds of a compiled TileLink kernel's exact simulated report.
///
/// # Panics
///
/// Panics if the kernel failed to compile or simulate.
fn kernel_ms(kernel: tilelink::Result<CompiledKernel>, cost: &SharedCost) -> f64 {
    simulate_report(&kernel.expect("tilelink kernel"), cost)
        .expect("tilelink kernel")
        .total_ms()
}

// ---------------------------------------------------------------------------
// Kernel task graphs (`reproduce --trace-out`)
// ---------------------------------------------------------------------------

/// The three representative kernel graphs `reproduce --trace-out` exports as
/// Chrome traces, each paired with the cost provider that priced it: the
/// Figure 8 MLP-1 AllGather + GEMM half under its recommended config, the
/// Figure 9 MoE-1 routed AG + Gather + GroupGEMM half for one sampled uniform
/// routing (the dynamic-mapping layout the routing-aware tuner prices per
/// sample), and the same MLP half at the end-to-end token count on the
/// two-node Figure 11 setup, where transfers cross the InfiniBand fabric.
/// Each is compiled by the kernel function the figures and the tuner use.
///
/// # Panics
///
/// Panics if a benchmark kernel fails to build (a compiler regression) or the
/// spec names an unloadable calibration file.
pub fn benchmark_graphs(
    spec: &CostModelSpec,
) -> Vec<(&'static str, SharedCost, tilelink_sim::TaskGraph)> {
    let single = cost_for(&default_cluster(), spec);
    let (two_node_cluster, e2e_tokens) = e2e::two_node_setup();
    let two_node = cost_for(&two_node_cluster, spec);
    let mlp1 = &shapes::mlp_shapes()[0];
    let e2e_mlp = MlpShape {
        tokens: e2e_tokens,
        ..mlp1.clone()
    };
    let moe1 = &shapes::moe_shapes()[0];
    let sample = RoutingSampler::new(RoutingProfile::Uniform, autotune::DEFAULT_ROUTING_SEED)
        .samples_for(moe1, 1);
    let (mlp_cfg, moe_cfg) = (mlp::ag_gemm_config(), moe::moe_config());
    [
        (
            "fig8_mlp_ag_gemm",
            &single,
            mlp::ag_gemm_kernel(mlp1, &mlp_cfg, &single),
        ),
        (
            "fig9_routed_moe_first",
            &single,
            moe::ag_group_gemm_kernel(moe1, &moe_cfg, &single, Some(&sample[0])),
        ),
        (
            "e2e_two_node_ag_gemm",
            &two_node,
            mlp::ag_gemm_kernel(&e2e_mlp, &mlp_cfg, &two_node),
        ),
    ]
    .into_iter()
    .map(|(name, cost, kernel)| {
        let kernel = kernel.unwrap_or_else(|e| panic!("{name} bench kernel: {e}"));
        (name, cost.clone(), task_graph(&kernel, cost.cluster()))
    })
    .collect()
}

/// Geometric mean of an iterator of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn table2_has_expected_shape_and_ordering() {
        let groups = table2(&cost_for(&default_cluster(), &CostModelSpec::Analytic));
        assert_eq!(groups.len(), 2);
        for g in &groups {
            assert_eq!(g.entries.len(), 4);
            // Decomposition is the slowest method in both halves (paper Table 2).
            assert!(g.ms_of("Decomposition") > g.ms_of("Non-Overlap"));
            // TileLink beats the non-overlapping baseline.
            assert!(g.speedup("TileLink", "Non-Overlap") > 1.0, "{g:?}");
        }
    }

    #[test]
    fn fig10_rows_have_overlap_ratio() {
        let rows = fig10(0, &cost_for(&default_cluster(), &CostModelSpec::Analytic));
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.overlap_ratio >= 0.0 && r.overlap_ratio <= 1.0);
            assert!(r.group.speedup("TileLink", "Torch") > 1.0);
        }
    }

    /// Each graph's makespan-only clock equals its traced makespan, bit for
    /// bit.
    #[test]
    fn bench_graphs_build_and_simulate() {
        for (label, cost, graph) in benchmark_graphs(&CostModelSpec::Analytic) {
            assert!(!graph.is_empty(), "{label}");
            let engine = tilelink_sim::Engine::with_cost(cost);
            let fast = engine.makespan(&graph, f64::INFINITY).unwrap().clock();
            let traced = engine.run(&graph).unwrap().makespan();
            assert!(fast > 0.0, "{label}");
            assert_eq!(fast.to_bits(), traced.to_bits(), "{label}");
        }
    }

    #[test]
    fn fig8_trace_out_is_validator_grade_chrome_json() {
        use tilelink_probe::JsonValue;

        // The same graph `--trace-out` exports: first of the benchmark set.
        let (name, cost, graph) = benchmark_graphs(&CostModelSpec::Analytic)
            .into_iter()
            .next()
            .expect("benchmark graphs");
        assert_eq!(name, "fig8_mlp_ag_gemm");
        let tasks = graph.len();
        let trace = tilelink_sim::Engine::with_cost(cost)
            .run(&graph)
            .expect("fig8 graph simulates");
        let parsed = tilelink_probe::parse_json(&trace.to_chrome_json()).expect("valid trace JSON");
        let JsonValue::Array(events) = parsed else {
            panic!("trace_event output must be a JSON array");
        };
        let meta_of = |meta: &str, pid: f64, tid: Option<f64>| {
            events
                .iter()
                .filter(|m| {
                    m.get("ph").and_then(JsonValue::as_str) == Some("M")
                        && m.get("name").and_then(JsonValue::as_str) == Some(meta)
                        && m.get("pid").and_then(JsonValue::as_f64) == Some(pid)
                        && tid.is_none_or(|t| m.get("tid").and_then(JsonValue::as_f64) == Some(t))
                })
                .count()
        };
        let mut x_events = 0usize;
        for ev in &events {
            let pid = ev.get("pid").and_then(JsonValue::as_f64).expect("pid");
            let tid = ev.get("tid").and_then(JsonValue::as_f64).expect("tid");
            match ev.get("ph").and_then(JsonValue::as_str) {
                Some("M") => {}
                Some("X") => {
                    x_events += 1;
                    // Consistent timestamps, and lanes/processes that were
                    // actually declared: every rank names its process, every
                    // used resource lane names its thread.
                    assert!(ev.get("ts").and_then(JsonValue::as_f64).expect("ts") >= 0.0);
                    assert!(ev.get("dur").and_then(JsonValue::as_f64).expect("dur") >= 0.0);
                    assert_eq!(meta_of("process_name", pid, None), 1, "pid {pid}");
                    assert_eq!(
                        meta_of("thread_name", pid, Some(tid)),
                        1,
                        "pid {pid} tid {tid}"
                    );
                }
                ph => panic!("unexpected ph {ph:?}"),
            }
        }
        // One complete event per simulated task, spread over all 8 ranks.
        assert_eq!(x_events, tasks);
        let mut pids: Vec<u64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(JsonValue::as_f64))
            .map(|p| p as u64)
            .collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fig11_subset_speeds_up() {
        let rows = fig11(false, &CostModelSpec::Analytic, None);
        assert_eq!(rows.len(), shapes::model_configs().len());
        for r in rows {
            assert!(r.speedup() > 1.0, "{}: {:.2}", r.torch.model, r.speedup());
            assert_eq!(r.tuned, None);
            assert_eq!(r.tuned_speedup(), None);
        }
    }

    #[test]
    fn fig11_tuned_rows_carry_the_tuned_column() {
        // One model through `fig11`'s own per-model call, so the unit tests
        // do not tune all eight.
        let opts = TuneOptions::default();
        let (cluster, tokens) = e2e::single_node_setup();
        let cost = cost_for(&cluster, &CostModelSpec::Analytic);
        let r = e2e::compare_model(&shapes::model_configs()[0], tokens, &cost, Some(&opts))
            .expect("tuned e2e comparison");
        let t = r.tuned.as_ref().expect("tuned column");
        assert!(t.evaluations > 0, "cold in-memory search must simulate");
        // Under the deterministic analytic model the searched config never
        // loses to the hand-picked defaults end to end (empirical pin, same
        // caveat as e2e::tests::tuned_speedup_is_at_least_the_default_config_speedup).
        let tuned_speedup = r.tuned_speedup().expect("tuned speedup");
        assert!(
            tuned_speedup >= r.speedup(),
            "tuned {tuned_speedup:.3}x < default {:.3}x",
            r.speedup()
        );
    }
}

//! A search winner's report is exact, and cheap to price.
//!
//! The layer oracles answer `evaluate` from the makespan memo their bounded
//! evaluations filled: each half kernel's overlapped makespan is read there,
//! and a routed percentile or worst-case oracle ranks its samples by their
//! memoised layer totals and prices the comm/compute split of the one sample
//! it picks. This file checks those reports against a reference built from
//! public API with no memo: `simulate_report` of each half kernel,
//! `OverlapReport::layer`, and `Objective::fold_reports` over every sample.
//!
//! It also counts what re-pricing a winner on the warm oracle simulates: the
//! comm-only and compute-only runs of both halves of one layer (4), or of
//! every sample's layer for the mean (32 over 8 samples), and no memo miss.
//! A p50 winner is not counted: up to half of its samples may have aborted
//! in the search, and the memo must still simulate their full graphs.
//!
//! The probe counters are process-wide, so this file holds one test: nothing
//! else in the process bumps them while it reads their deltas.

use std::collections::HashMap;

use tilelink::exec::simulate_report;
use tilelink::{CompiledKernel, OverlapConfig, OverlapReport};
use tilelink_probe::metrics::{EXEC_MEMO_HITS, EXEC_MEMO_MISSES, SIM_MAKESPAN_RUNS};
use tilelink_sim::{analytic_cost, ClusterSpec, SharedCost};
use tilelink_tune::{CostOracle, Objective, SearchSpace, Strategy, Tuner};
use tilelink_workloads::autotune::{MlpOracle, MoeOracle};
use tilelink_workloads::shapes::{mlp_shapes, moe_shapes};
use tilelink_workloads::{mlp, moe, RoutingProfile, RoutingSpec, RoutingTables};

/// The exact report of a layer of two half kernels, priced with no memo.
fn layer(
    cost: &SharedCost,
    first: tilelink::Result<CompiledKernel>,
    act: f64,
    second: tilelink::Result<CompiledKernel>,
) -> OverlapReport {
    let first = simulate_report(&first.expect("first half compiles"), cost).expect("first half");
    let second =
        simulate_report(&second.expect("second half compiles"), cost).expect("second half");
    OverlapReport::layer(first, act, second)
}

/// Asserts that `a` and `b` agree in every field's bits.
fn assert_same(a: &OverlapReport, b: &OverlapReport, ctx: &str) {
    for (field, x, y) in [
        ("total_s", a.total_s, b.total_s),
        ("comm_only_s", a.comm_only_s, b.comm_only_s),
        ("comp_only_s", a.comp_only_s, b.comp_only_s),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {field} {x} vs {y}");
    }
}

/// Simulations, memo hits and memo misses so far.
fn counters() -> [u64; 3] {
    [
        SIM_MAKESPAN_RUNS.get(),
        EXEC_MEMO_HITS.get(),
        EXEC_MEMO_MISSES.get(),
    ]
}

/// Runs the default beam over the standard space on a fresh `oracle` and
/// checks the winner's report, a warm re-pricing of it (its simulations
/// against `winner_sims`, when given) and `evaluate` of every ranked config
/// against `reference`.
fn check(
    name: &str,
    oracle: &dyn CostOracle,
    mut reference: impl FnMut(&OverlapConfig) -> OverlapReport,
    winner_sims: Option<u64>,
) {
    let search = Tuner::new(Strategy::default())
        .tune(oracle, &SearchSpace::standard())
        .expect("search succeeds");
    let winner = search.best.config;
    assert_same(
        &search.best.report,
        &reference(&winner),
        &format!("{name}: winner"),
    );

    let start = counters();
    let again = oracle.evaluate(&winner).expect("winner prices");
    let [sims, hits, misses] = {
        let end = counters();
        [0, 1, 2].map(|i| end[i] - start[i])
    };
    assert_same(&again, &search.best.report, &format!("{name}: re-priced"));
    if let Some(expected) = winner_sims {
        // Debug builds cross-check every memo hit with one more simulation.
        let cross_checks = if cfg!(debug_assertions) { hits } else { 0 };
        assert_eq!(sims - cross_checks, expected, "{name}: winner simulations");
        assert_eq!(misses, 0, "{name}: winner memo misses");
    }

    for ranked in &search.ranked {
        let ctx = format!("{name}: ranked {}", ranked.config.cache_key());
        let report = oracle
            .evaluate(&ranked.config)
            .expect("ranked config prices");
        assert_eq!(report.total_s.to_bits(), ranked.total_s.to_bits(), "{ctx}");
        assert_same(&report, &reference(&ranked.config), &ctx);
    }
}

#[test]
fn winner_reports_are_exact_and_price_one_split_per_half() {
    let cluster = ClusterSpec::h800_node(8);
    let cost = analytic_cost(&cluster);

    let mlp1 = mlp_shapes()[0].clone();
    let act = mlp::activation_seconds(&mlp1, &*cost);
    check(
        "MLP-1",
        &MlpOracle::new(mlp1.clone(), cluster.clone()),
        |cfg| {
            layer(
                &cost,
                mlp::ag_gemm_kernel(&mlp1, cfg, &cost),
                act,
                mlp::gemm_rs_kernel(&mlp1, cfg, &cost),
            )
        },
        Some(4),
    );

    let moe3 = moe_shapes()[2].clone();
    let act = moe::activation_seconds(&moe3, &*cost);
    check(
        "MoE-3",
        &MoeOracle::new(moe3.clone(), cluster.clone()),
        |cfg| {
            layer(
                &cost,
                moe::ag_group_gemm_kernel(&moe3, cfg, &cost, None),
                act,
                moe::group_gemm_rs_kernel(&moe3, cfg, &cost, None),
            )
        },
        Some(4),
    );

    // Routed MoE-1: every sample's reference report, computed once per
    // config and folded by each objective.
    let moe1 = moe_shapes()[0].clone();
    let act = moe::activation_seconds(&moe1, &*cost);
    let spec = RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 });
    let samples: Vec<RoutingTables> = (spec.sampler().samples_for(&moe1, spec.samples))
        .into_iter()
        .map(RoutingTables::from)
        .collect();
    assert_eq!(samples.len(), 8);
    let mut per_sample: HashMap<OverlapConfig, Vec<OverlapReport>> = HashMap::new();
    for (objective, winner_sims) in [
        (Objective::Percentile(95), Some(4)),
        (Objective::Percentile(50), None),
        (Objective::WorstCase, Some(4)),
        (Objective::Mean, Some(32)),
    ] {
        let oracle = MoeOracle::new(moe1.clone(), cluster.clone())
            .with_routing(spec)
            .with_objective(objective);
        check(
            &format!("routed MoE-1 {objective}"),
            &oracle,
            |cfg| {
                let reports = per_sample.entry(*cfg).or_insert_with(|| {
                    samples
                        .iter()
                        .map(|sample| {
                            layer(
                                &cost,
                                moe::ag_group_gemm_kernel(&moe1, cfg, &cost, Some(sample)),
                                act,
                                moe::group_gemm_rs_kernel(&moe1, cfg, &cost, Some(sample)),
                            )
                        })
                        .collect()
                });
                objective.fold_reports(reports)
            },
            winner_sims,
        );
    }
}

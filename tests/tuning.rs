//! Cross-crate autotuner tests: the `tilelink-tune` search driving the real
//! workload oracles on the simulated cluster (the acceptance path of the
//! `tilelink-tune` subsystem).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tilelink::{CommMapping, OverlapConfig, OverlapReport, TileShape};
use tilelink_sim::{analytic_cost, CalibratedCostModel, ClusterSpec};
use tilelink_tune::{
    BoundedEval, CostOracle, Objective, SearchExecutor, SearchSpace, Strategy, TuneCache, Tuner,
};
use tilelink_workloads::autotune::{self, LayerOracle, TuneOptions};
use tilelink_workloads::{shapes, RoutingProfile, RoutingSpec, TunedLayer};

/// A small space that still spans tile sizes, mappings and stages.
fn small_space() -> SearchSpace {
    SearchSpace::new()
        .with_comm_tiles([TileShape::new(128, 128), TileShape::new(256, 128)])
        .with_compute_tiles([TileShape::new(128, 256), TileShape::new(256, 256)])
        .with_mappings([CommMapping::CopyEngine, CommMapping::Hybrid { sms: 20 }])
        .with_stages([2, 3])
}

#[test]
fn beam_tuned_mlp1_is_never_worse_than_the_default_config() {
    // The acceptance criterion for the fig8 MLP shape on an 8-rank H800 node.
    let shape = shapes::mlp_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let oracle = LayerOracle::new(shape.clone(), cluster.clone());
    let default_makespan = oracle.evaluate(&OverlapConfig::default()).unwrap().total_s;

    let tuned = autotune::tuned_full_mlp(&shape, &cluster, &TuneOptions::default()).unwrap();
    assert!(
        tuned.layer.total_s <= default_makespan,
        "tuned {} s > default {} s",
        tuned.layer.total_s,
        default_makespan
    );
    // The winner is a real, valid configuration.
    tuned.config.validate(cluster.gpu.sm_count).unwrap();
}

#[test]
fn repeated_search_is_served_entirely_from_the_persistent_cache() {
    let dir = std::env::temp_dir().join(format!("tilelink-tuning-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mlp.tsv");
    let _ = std::fs::remove_file(&path);

    let shape = shapes::mlp_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let oracle = LayerOracle::new(shape, cluster);
    let space = small_space();

    let first = Tuner::new(Strategy::Exhaustive)
        .with_cache(TuneCache::open(&path).unwrap())
        .tune(&oracle, &space)
        .unwrap();
    assert!(first.evaluations > 0);
    assert_eq!(first.cache_hits, 0);

    let second = Tuner::new(Strategy::Exhaustive)
        .with_cache(TuneCache::open(&path).unwrap())
        .tune(&oracle, &space)
        .unwrap();
    assert_eq!(
        second.evaluations, 0,
        "second search must not touch the simulator"
    );
    assert_eq!(second.cache_hits, first.ranked.len());
    assert_eq!(second.best.config, first.best.config);
    assert_eq!(second.best.report, first.best.report);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn search_over_the_real_oracle_is_deterministic_across_thread_counts() {
    let shape = shapes::mlp_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let oracle = LayerOracle::new(shape, cluster);
    let space = small_space();

    let serial = Tuner::new(Strategy::Exhaustive)
        .with_executor(Arc::new(SearchExecutor::with_threads(1)))
        .tune(&oracle, &space)
        .unwrap();
    let parallel = Tuner::new(Strategy::Exhaustive)
        .with_executor(Arc::new(SearchExecutor::with_threads(8)))
        .tune(&oracle, &space)
        .unwrap();
    assert_eq!(serial.best.config, parallel.best.config);
    let a: Vec<_> = serial
        .ranked
        .iter()
        .map(|c| (&c.config, c.total_s))
        .collect();
    let b: Vec<_> = parallel
        .ranked
        .iter()
        .map(|c| (&c.config, c.total_s))
        .collect();
    assert_eq!(a, b);
}

#[test]
fn tuning_cache_self_invalidates_across_cost_model_revisions() {
    // A tuning-cache entry written under one cost-model revision must miss
    // (and re-evaluate) under another, and hit again when the revision
    // returns — the acceptance path of the cost-provider refactor.
    let dir = std::env::temp_dir().join(format!("tilelink-tuning-rev-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mlp-rev.tsv");
    let _ = std::fs::remove_file(&path);

    let shape = shapes::mlp_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let analytic = analytic_cost(&cluster);
    let calibrated: tilelink_sim::SharedCost =
        Arc::new(CalibratedCostModel::h800_defaults(cluster.clone()));
    assert_ne!(analytic.revision(), calibrated.revision());
    let space = small_space();

    let run = |cost: &tilelink_sim::SharedCost| {
        let oracle = LayerOracle::new(shape.clone(), cluster.clone()).with_cost(cost.clone());
        Tuner::new(Strategy::Exhaustive)
            .with_cache(TuneCache::open(&path).unwrap())
            .tune(&oracle, &space)
            .unwrap()
    };

    let first = run(&analytic);
    assert!(first.evaluations > 0);
    assert_eq!(first.cache_hits, 0);

    // Different revision: every candidate must be re-simulated.
    let other = run(&calibrated);
    assert_eq!(other.cache_hits, 0, "stale analytic entries must not hit");
    assert_eq!(other.evaluations, other.ranked.len());
    // The calibrated link model prices the layer's communication strictly
    // higher.
    assert!(other.best.report.comm_only_s > first.best.report.comm_only_s);

    // Returning to the original revision hits the original entries again.
    let back = run(&analytic);
    assert_eq!(
        back.evaluations, 0,
        "revision round-trip must be cache-served"
    );
    assert_eq!(back.cache_hits, first.ranked.len());
    assert_eq!(back.best.config, first.best.config);
    assert_eq!(back.best.report, first.best.report);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn calibrated_tuning_runs_through_tune_options() {
    // The high-level tuned_* path accepts a provider via TuneOptions and
    // reports strictly positive, calibrated timings.
    let shape = shapes::mlp_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let calibrated: tilelink_sim::SharedCost =
        Arc::new(CalibratedCostModel::h800_defaults(cluster.clone()));
    let opts = TuneOptions::default().with_cost(calibrated.clone());
    let tuned = autotune::tuned_full_mlp(&shape, &cluster, &opts).unwrap();
    assert!(tuned.layer.total_s > 0.0);

    // Same search under the analytic default: the calibrated run must be
    // priced higher on communication (achieved bandwidth < 100% of peak).
    let analytic_tuned =
        autotune::tuned_full_mlp(&shape, &cluster, &TuneOptions::default()).unwrap();
    assert!(tuned.layer.comm_only_s > analytic_tuned.layer.comm_only_s);
}

#[test]
fn invalid_and_unsupported_candidates_are_pruned_not_evaluated() {
    let shape = shapes::mlp_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let oracle = LayerOracle::new(shape, cluster);

    // 200 comm SMs exceeds the device; 384-row compute tiles break the ring
    // ReduceScatter segmentation. Both must be pruned before evaluation.
    let space = SearchSpace::new()
        .with_compute_tiles([TileShape::new(128, 256), TileShape::new(384, 256)])
        .with_mappings([CommMapping::CopyEngine, CommMapping::Sm { sms: 200 }]);
    let candidates = space.candidates(&oracle);
    assert_eq!(candidates.len(), 1);
    assert_eq!(candidates[0].compute_tile, TileShape::new(128, 256));
    assert_eq!(candidates[0].comm_mapping, CommMapping::CopyEngine);

    let report = Tuner::new(Strategy::Exhaustive)
        .tune(&oracle, &space)
        .unwrap();
    assert_eq!(report.ranked.len(), 1);
    assert_eq!(report.evaluations, 1);
}

#[test]
fn tuned_e2e_calibrated_cache_never_serves_the_analytic_search() {
    // The tuned Figure 11 path against a persistent cache: a calibrated-model
    // search fills the cache, its rerun is free, and an analytic search over
    // the same file re-simulates (revision-keyed entries never alias).
    let dir = std::env::temp_dir().join(format!("tilelink-e2e-rev-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.tsv");
    let _ = std::fs::remove_file(&path);

    let (cluster, tokens) = tilelink_workloads::e2e::single_node_setup();
    let calibrated: tilelink_sim::SharedCost =
        Arc::new(CalibratedCostModel::h800_defaults(cluster.clone()));
    let model = shapes::model_configs()
        .into_iter()
        .find(|m| m.name == "LLaMA2-7B")
        .unwrap();
    let opts = TuneOptions {
        cache_path: Some(path.clone()),
        ..TuneOptions::default()
    };

    let cold =
        tilelink_workloads::e2e::tuned_model_timing(&model, tokens, &calibrated, &opts).unwrap();
    assert!(cold.evaluations > 0);
    assert!(cold.mlp_config.is_some());
    assert_eq!(cold.moe_config, None);

    let warm =
        tilelink_workloads::e2e::tuned_model_timing(&model, tokens, &calibrated, &opts).unwrap();
    assert_eq!(warm.evaluations, 0, "warm calibrated rerun must be free");
    assert_eq!(warm.timing, cold.timing);

    let analytic = analytic_cost(&cluster);
    let cross =
        tilelink_workloads::e2e::tuned_model_timing(&model, tokens, &analytic, &opts).unwrap();
    assert!(
        cross.evaluations > 0,
        "analytic search must not be served calibrated timings"
    );
    let _ = std::fs::remove_file(&path);
}

/// Delegates to `inner`, counting the exact [`CostOracle::evaluate`] calls
/// (the tuner makes one per search, for the winner, unless the cache holds
/// its report).
struct CountingExact<'a> {
    inner: &'a dyn CostOracle,
    calls: AtomicUsize,
}

impl CostOracle for CountingExact<'_> {
    fn workload_key(&self) -> String {
        self.inner.workload_key()
    }

    fn cluster(&self) -> &ClusterSpec {
        self.inner.cluster()
    }

    fn cost_revision(&self) -> String {
        self.inner.cost_revision()
    }

    fn objective(&self) -> Objective {
        self.inner.objective()
    }

    fn evaluate(&self, cfg: &OverlapConfig) -> tilelink::Result<OverlapReport> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.evaluate(cfg)
    }

    fn lower_bound(&self, cfg: &OverlapConfig) -> Option<f64> {
        self.inner.lower_bound(cfg)
    }

    fn evaluate_bounded(&self, cfg: &OverlapConfig, cutoff: f64) -> tilelink::Result<BoundedEval> {
        self.inner.evaluate_bounded(cfg, cutoff)
    }

    fn is_supported(&self, cfg: &OverlapConfig) -> bool {
        self.inner.is_supported(cfg)
    }
}

fn assert_bit_identical(a: &OverlapReport, b: &OverlapReport, ctx: &str) {
    assert_eq!(a.total_s.to_bits(), b.total_s.to_bits(), "{ctx}: total_s");
    assert_eq!(
        a.comm_only_s.to_bits(),
        b.comm_only_s.to_bits(),
        "{ctx}: comm_only_s"
    );
    assert_eq!(
        a.comp_only_s.to_bits(),
        b.comp_only_s.to_bits(),
        "{ctx}: comp_only_s"
    );
}

#[test]
fn tuned_winners_carry_their_exact_report_and_rerun_without_pricing() {
    // The search ranks makespans only and prices the comm/compute split once,
    // for the winner: that report must be exactly what the oracle's exact
    // evaluation returns, and a rerun on the same persistent cache must serve
    // it, and every ranked value, without pricing anything. (Candidates the
    // first run aborted past its incumbent are not cached and may abort
    // again; they are never ranked.)
    let dir = std::env::temp_dir().join(format!("tilelink-winner-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cluster = ClusterSpec::h800_node(8);
    let mlp_shape = shapes::mlp_shapes()[0].clone();
    let moe_shape = shapes::moe_shapes()[0].clone();
    let routing = RoutingSpec {
        samples: 3,
        ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
    };
    let cases = [
        ("mlp", LayerOracle::new(mlp_shape.clone(), cluster.clone())),
        ("moe", LayerOracle::new(moe_shape.clone(), cluster.clone())),
        (
            "moe-routed-p95",
            LayerOracle::new(moe_shape.clone(), cluster.clone())
                .with_routing(routing)
                .with_objective(Objective::Percentile(95)),
        ),
    ];
    for (name, oracle) in cases {
        let path = dir.join(format!("{name}.tsv"));
        let _ = std::fs::remove_file(&path);
        let opts = TuneOptions {
            cache_path: Some(path.clone()),
            ..TuneOptions::default()
        };
        let tuned: TunedLayer = match name {
            "mlp" => autotune::tuned_full_mlp(&mlp_shape, &cluster, &opts),
            "moe" => autotune::tuned_full_moe(&moe_shape, &cluster, &opts),
            _ => autotune::tuned_full_moe(
                &moe_shape,
                &cluster,
                &opts
                    .clone()
                    .with_routing(routing)
                    .with_objective(Objective::Percentile(95)),
            ),
        }
        .unwrap();
        assert!(tuned.search.evaluations > 0, "{name}");
        assert_eq!(tuned.search.best.config, tuned.config, "{name}");
        assert_eq!(
            tuned.search.ranked[0].total_s.to_bits(),
            tuned.layer.total_s.to_bits(),
            "{name}: the ranked value is the winner's total"
        );
        let exact = oracle.evaluate(&tuned.config).unwrap();
        assert_bit_identical(&tuned.layer, &exact, name);

        let counting = CountingExact {
            inner: &oracle,
            calls: AtomicUsize::new(0),
        };
        let rerun = Tuner::new(Strategy::default())
            .with_cache(TuneCache::open(&path).unwrap())
            .tune(&counting, &SearchSpace::standard())
            .unwrap();
        assert_eq!(counting.calls.load(Ordering::SeqCst), 0, "{name}");
        assert_eq!(rerun.evaluations, 0, "{name}");
        assert!(rerun.best.from_cache, "{name}");
        assert_eq!(rerun.best.config, tuned.config, "{name}");
        assert_bit_identical(&rerun.best.report, &exact, name);
        let _ = std::fs::remove_file(&path);
    }
}

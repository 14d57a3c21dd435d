//! Shared-executor bit-identity over the standard search space.
//!
//! A tuner evaluates on the process-wide [`SearchExecutor::global`] unless
//! pinned to another pool with `Tuner::with_executor`. The executor contract
//! is that the pool is *unobservable* in the search outcome: results land in
//! a slot per candidate and merge in candidate order either way, so the same
//! oracle + space + strategy must produce a bit-identical ranking — same
//! configs in the same order with the same objective values, and the same
//! winner report — regardless of which pool evaluated them, how many searches
//! shared it, or how its threads were scheduled.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tilelink::{OverlapConfig, OverlapReport, TileShape};
use tilelink_sim::ClusterSpec;
use tilelink_tune::{CostOracle, FnOracle, SearchExecutor, SearchSpace, Strategy, Tuner};

fn analytic(counter: &AtomicUsize) -> impl CostOracle + '_ {
    FnOracle::new("parity", ClusterSpec::h800_node(8), move |cfg| {
        counter.fetch_add(1, Ordering::SeqCst);
        let tile = cfg.compute_tile.numel() as f64;
        let order = match cfg.order {
            tilelink::TileOrder::Ring => 0.9,
            tilelink::TileOrder::AllToAll => 1.0,
        };
        let sms = cfg.comm_mapping.comm_sms() as f64;
        let t = (1e9 / tile) * order + sms * 1e-3 + cfg.num_stages as f64 * 1e-4;
        Ok(OverlapReport::new(t, t / 3.0, 2.0 * t / 3.0))
    })
}

fn space() -> SearchSpace {
    SearchSpace::standard()
        .with_comm_tiles([TileShape::new(128, 128)])
        .with_channels([4])
}

fn assert_bit_identical(a: &tilelink_tune::TuneReport, b: &tilelink_tune::TuneReport, label: &str) {
    assert_eq!(a.best.config, b.best.config, "{label}: best config differs");
    assert_eq!(
        a.ranked.len(),
        b.ranked.len(),
        "{label}: ranking length differs"
    );
    for (i, (x, y)) in a.ranked.iter().zip(&b.ranked).enumerate() {
        assert_eq!(x.config, y.config, "{label}: rank {i} config differs");
        assert_eq!(
            x.total_s.to_bits(),
            y.total_s.to_bits(),
            "{label}: rank {i} total_s not bit-identical"
        );
    }
    let (x, y) = (&a.best.report, &b.best.report);
    assert_eq!(
        x.total_s.to_bits(),
        y.total_s.to_bits(),
        "{label}: winner total_s not bit-identical"
    );
    assert_eq!(
        x.comm_only_s.to_bits(),
        y.comm_only_s.to_bits(),
        "{label}: winner comm_only_s not bit-identical"
    );
    assert_eq!(
        x.comp_only_s.to_bits(),
        y.comp_only_s.to_bits(),
        "{label}: winner comp_only_s not bit-identical"
    );
    assert_eq!(a.evaluations, b.evaluations, "{label}: evaluation counts");
}

#[test]
fn global_pool_matches_a_pinned_pool_bit_for_bit() {
    for strategy in [
        Strategy::Exhaustive,
        Strategy::Beam {
            width: 2,
            sweeps: 3,
        },
    ] {
        let c_global = AtomicUsize::new(0);
        let global = Tuner::new(strategy)
            .tune(&analytic(&c_global), &space())
            .unwrap();

        let c_pinned = AtomicUsize::new(0);
        let pinned = Tuner::new(strategy)
            .with_executor(Arc::new(SearchExecutor::with_threads(8)))
            .tune(&analytic(&c_pinned), &space())
            .unwrap();

        assert_bit_identical(&global, &pinned, &format!("{strategy:?}"));
    }
}

#[test]
fn executor_results_are_stable_across_reuse_and_thread_counts() {
    // One executor, three back-to-back runs (so runs 2 and 3 hit the warm
    // pool), plus a single-threaded executor: all four outcomes identical.
    let exec = Arc::new(SearchExecutor::with_threads(8));
    let mut reports = Vec::new();
    for _ in 0..3 {
        let calls = AtomicUsize::new(0);
        reports.push(
            Tuner::new(Strategy::Beam {
                width: 2,
                sweeps: 3,
            })
            .with_executor(Arc::clone(&exec))
            .tune(&analytic(&calls), &space())
            .unwrap(),
        );
    }
    let calls = AtomicUsize::new(0);
    reports.push(
        Tuner::new(Strategy::Beam {
            width: 2,
            sweeps: 3,
        })
        .with_executor(Arc::new(SearchExecutor::with_threads(1)))
        .tune(&analytic(&calls), &space())
        .unwrap(),
    );
    for (i, r) in reports[1..].iter().enumerate() {
        assert_bit_identical(&reports[0], r, &format!("run {}", i + 1));
    }
}

#[test]
fn concurrent_searches_interleave_without_cross_talk() {
    // Four different searches race on one shared executor; each must
    // produce exactly the result it would have alone.
    let exec = Arc::new(SearchExecutor::with_threads(4));
    let mut handles = Vec::new();
    for stage_bias in 0..4usize {
        let exec = Arc::clone(&exec);
        handles.push(std::thread::spawn(move || {
            let oracle = FnOracle::new("race", ClusterSpec::h800_node(8), move |cfg| {
                let t = cfg.num_stages as f64 + stage_bias as f64 * 0.1;
                Ok(OverlapReport::new(t, t / 2.0, t / 2.0))
            });
            let space = SearchSpace::new().with_stages([2, 3, 4]);
            let report = Tuner::new(Strategy::Exhaustive)
                .with_executor(exec)
                .tune(&oracle, &space)
                .unwrap();
            (stage_bias, report)
        }));
    }
    for handle in handles {
        let (stage_bias, report) = handle.join().unwrap();
        assert_eq!(report.best.config.num_stages, 2);
        let expected = 2.0 + stage_bias as f64 * 0.1;
        assert_eq!(
            report.best.report.total_s, expected,
            "search {stage_bias} must see only its own oracle's timings"
        );
        assert_eq!(report.ranked.len(), 3);
    }
}

#[test]
fn default_config_seed_survives_executor_path() {
    // The beam guarantee (never worse than the seed) must hold on a pinned
    // pool exactly as it does on the global one.
    let calls = AtomicUsize::new(0);
    let report = Tuner::new(Strategy::Beam {
        width: 2,
        sweeps: 2,
    })
    .with_executor(Arc::new(SearchExecutor::with_threads(4)))
    .tune(&analytic(&calls), &space())
    .unwrap();
    let seed_cost = {
        let calls = AtomicUsize::new(0);
        let oracle = analytic(&calls);
        oracle.evaluate(&OverlapConfig::default()).unwrap().total_s
    };
    assert!(report.best.report.total_s <= seed_cost);
}

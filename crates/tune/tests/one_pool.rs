//! Every search in a process evaluates on one pool: a tuner that is not
//! pinned to an executor runs on [`tilelink_tune::SearchExecutor::global`],
//! so its second search starts on the workers the first one spawned.
//!
//! Lives in its own test binary so the process-global
//! `tune.executor.reuses` counter is not shared with unrelated tests.

use tilelink::OverlapReport;
use tilelink_probe::metrics::TUNE_EXECUTOR_REUSES;
use tilelink_sim::ClusterSpec;
use tilelink_tune::{FnOracle, SearchSpace, Strategy, Tuner};

#[test]
fn searches_without_an_executor_share_the_global_pool() {
    let oracle = FnOracle::new("one-pool", ClusterSpec::h800_node(8), |cfg| {
        let t = cfg.num_stages as f64;
        Ok(OverlapReport::new(t, t / 2.0, t / 2.0))
    });
    let space = SearchSpace::new().with_stages([2, 3, 4]);
    let search = || {
        Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &space)
            .unwrap()
    };

    search();
    let after_first = TUNE_EXECUTOR_REUSES.get();
    search();
    assert_eq!(
        TUNE_EXECUTOR_REUSES.get(),
        after_first + 1,
        "the second search must start on the first one's warm pool"
    );
}

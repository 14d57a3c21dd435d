//! Back-to-back cold serve searches share one warm executor: the second
//! search must reuse the thread pool the first one spawned instead of
//! paying the spawn cost again.
//!
//! Lives in its own test binary so the process-global
//! `tune.executor.reuses` counter is not shared with unrelated tests: the
//! daemon's searches run on [`tilelink_tune::SearchExecutor::global`], and
//! nothing else in this process touches it.

use tilelink_probe::metrics::TUNE_EXECUTOR_REUSES;
use tilelink_serve::protocol::{parse_command, Command, TuneRequest};
use tilelink_serve::service::{ServeOptions, Source, TuneService};

fn request(line: &str) -> TuneRequest {
    match parse_command(line).unwrap() {
        Command::Tune(req) => *req,
        other => panic!("expected TUNE, got {other:?}"),
    }
}

#[test]
fn two_cold_searches_reuse_the_shared_executor_pool() {
    let service = TuneService::new(ServeOptions {
        cache_path: None,
        ..ServeOptions::quick()
    });

    let reuses_before = TUNE_EXECUTOR_REUSES.get();

    // Distinct keys so both requests run real cold searches through the
    // quick space.
    let (_, source) = service.tune(&request("TUNE workload=MLP-1")).unwrap();
    assert_eq!(source, Source::Cold);
    let (_, source) = service.tune(&request("TUNE workload=MLP-2")).unwrap();
    assert_eq!(source, Source::Cold);

    assert!(
        TUNE_EXECUTOR_REUSES.get() > reuses_before,
        "the second cold search must reuse the first one's worker pool"
    );
}

//! The `serve.inflight` gauge and the in-flight dedup map survive a
//! panicking search: the RAII guard decrements the gauge on unwind, and the
//! leader's unwind insurance publishes an error so followers get `ERR`
//! instead of waiting forever.
//!
//! Lives in its own test binary so the process-global gauge is not shared
//! with unrelated tests and the zero-sum assertion is exact.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use tilelink_probe::metrics::SERVE_INFLIGHT;
use tilelink_serve::protocol::{parse_command, Command, TuneRequest};
use tilelink_serve::service::{ServeOptions, Source, TuneOutcome, TuneService};

fn request(line: &str) -> TuneRequest {
    match parse_command(line).unwrap() {
        Command::Tune(req) => *req,
        other => panic!("expected TUNE, got {other:?}"),
    }
}

#[test]
fn a_panicking_search_leaks_neither_the_gauge_nor_the_flight() {
    let calls = Arc::new(AtomicUsize::new(0));
    // Two parties: the leader's stub (mid-search) and the follower's spawn
    // point — the barrier guarantees the follower arrives while the search
    // is in flight.
    let in_search = Arc::new(Barrier::new(2));

    let stub_calls = Arc::clone(&calls);
    let stub_barrier = Arc::clone(&in_search);
    let service = Arc::new(TuneService::with_search(
        ServeOptions {
            cache_path: None,
            ..ServeOptions::default()
        },
        Box::new(move |_req, _cost, _opts| {
            if stub_calls.fetch_add(1, Ordering::SeqCst) == 0 {
                stub_barrier.wait();
                // Give the follower time to block on the flight.
                std::thread::sleep(Duration::from_millis(100));
                panic!("oracle exploded mid-search");
            }
            Ok(TuneOutcome {
                config_key: "recovered".into(),
                total_s: 1e-3,
                comm_s: 4e-4,
                comp_s: 8e-4,
                evaluations: 1,
                cache_hits: 0,
            })
        }),
    ));

    let gauge_before = SERVE_INFLIGHT.get();

    let leader = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                service.tune(&request("TUNE workload=MLP-1"))
            }))
        })
    };
    let follower = {
        let service = Arc::clone(&service);
        let in_search = Arc::clone(&in_search);
        std::thread::spawn(move || {
            in_search.wait(); // the leader is now inside the stub
            service.tune(&request("TUNE workload=MLP-1"))
        })
    };

    let leader_result = leader.join().unwrap();
    assert!(
        leader_result.is_err(),
        "the leader's panic must propagate to its caller"
    );
    let follower_result = follower.join().unwrap();
    let err = follower_result.expect_err("the follower must get an error, not hang");
    assert!(
        err.contains("panicked"),
        "the follower's error should say what happened, got {err:?}"
    );

    assert_eq!(
        SERVE_INFLIGHT.get(),
        gauge_before,
        "the inflight gauge must return to its baseline after the panic"
    );
    assert_eq!(service.cached_results(), 0, "failures are not cached");

    // The flight was deregistered: a retry becomes a fresh leader and gets
    // the stub's recovered answer.
    let (outcome, source) = service.tune(&request("TUNE workload=MLP-1")).unwrap();
    assert_eq!(source, Source::Cold);
    assert_eq!(outcome.config_key, "recovered");
    assert_eq!(
        SERVE_INFLIGHT.get(),
        gauge_before,
        "the gauge stays balanced on the success path too"
    );
}

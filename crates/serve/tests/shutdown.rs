//! Graceful shutdown under load: a daemon asked to stop while a cold search
//! is executing must drain — the in-flight request finishes, its response is
//! flushed to the client, and the result lands in the warm cache — before
//! the process exits.
//!
//! Uses the self-exec idiom: the parent test re-invokes this test binary
//! with `TILELINK_SERVE_TEST_CHILD_PATH` set, the child boots a real daemon
//! with a slow stub search and shuts it down mid-search, and the parent
//! verifies from the outside (exit status + a TSV marker the stub persisted
//! through a [`TuneCache`]) that the drain really completed.

use std::path::PathBuf;
use std::process::Command as ProcCommand;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use tilelink::{OverlapConfig, OverlapReport};
use tilelink_serve::protocol::{parse_reply, Reply};
use tilelink_serve::server::{serve_ephemeral, Client};
use tilelink_serve::service::{ServeOptions, TuneOutcome, TuneService};
use tilelink_tune::TuneCache;

/// Environment variable carrying the marker-cache path; its presence marks
/// the process as the re-invoked child.
const CHILD_ENV: &str = "TILELINK_SERVE_TEST_CHILD_PATH";
const CHILD_TEST: &str = "child_daemon_drains_the_inflight_search";

fn marker_key() -> String {
    let prefix = TuneCache::key_prefix("shutdown-marker", "test-cluster", "r-test", "mean");
    TuneCache::key_in(&prefix, &OverlapConfig::default())
}

/// Child half: inert unless re-invoked with the marker path in the
/// environment. Boots a daemon whose search signals its start, sleeps long
/// enough for the shutdown to arrive mid-flight, then persists a marker
/// entry.
#[test]
fn child_daemon_drains_the_inflight_search() {
    let Ok(marker_path) = std::env::var(CHILD_ENV) else {
        return;
    };
    let marker_path = PathBuf::from(marker_path);

    // Two parties: the stub on entry and the shutdown below, so the daemon
    // is stopped only once its worker is inside the search.
    let in_search = Arc::new(Barrier::new(2));
    let stub_barrier = Arc::clone(&in_search);
    let stub_marker = marker_path.clone();
    let service = TuneService::with_search(
        ServeOptions {
            cache_path: None,
            ..ServeOptions::default()
        },
        Box::new(move |_req, _cost, _opts| {
            stub_barrier.wait();
            // Long enough that the parent-side shutdown below overlaps the
            // search, short enough to keep the test fast.
            std::thread::sleep(Duration::from_millis(300));
            let mut cache = TuneCache::open(&stub_marker).expect("open marker cache");
            cache.insert(marker_key(), OverlapReport::new(1e-3, 4e-4, 8e-4));
            cache.flush().expect("flush marker cache");
            Ok(TuneOutcome {
                config_key: "drained".into(),
                total_s: 1e-3,
                comm_s: 4e-4,
                comp_s: 8e-4,
                evaluations: 1,
                cache_hits: 0,
            })
        }),
    );

    let server = serve_ephemeral(service).expect("daemon binds an ephemeral port");
    let addr = server.addr();
    let service = Arc::clone(server.service());

    let client = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("client connects");
        client
            .request("TUNE workload=MLP-1")
            .expect("the drained daemon still answers the in-flight request")
    });

    // Wait for the request to reach a worker and enter the slow search, then
    // ask the daemon to stop while the search is still running.
    in_search.wait();
    server.shutdown();

    let reply = client.join().expect("client thread");
    match parse_reply(&reply).expect("well-formed reply") {
        Reply::Ok(fields) => {
            assert_eq!(fields.source, "cold");
            assert_eq!(fields.config, "drained");
        }
        other => panic!("expected OK after drain, got {other:?}"),
    }
    assert_eq!(
        service.cached_results(),
        1,
        "the drained search must publish into the warm cache before exit"
    );
}

/// Parent half: re-invokes the child in a fresh process and verifies the
/// drain from outside — exit status plus the marker the stub persisted.
#[test]
fn shutdown_under_load_completes_and_persists_the_inflight_search() {
    if std::env::var(CHILD_ENV).is_ok() {
        return; // we *are* the child; only the child test body should run
    }
    let marker = std::env::temp_dir().join(format!(
        "tilelink-serve-shutdown-{}.tsv",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&marker);

    let exe = std::env::current_exe().expect("test binary path");
    let output = ProcCommand::new(exe)
        .args([CHILD_TEST, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, &marker)
        .output()
        .expect("spawn child test process");
    assert!(
        output.status.success(),
        "child daemon failed:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );

    let cache = TuneCache::open(&marker).expect("marker cache readable after child exit");
    assert_eq!(cache.len(), 1, "exactly the drained search left a marker");
    assert!(
        cache.get(&marker_key()).is_some(),
        "the marker entry carries the expected key"
    );
    let _ = std::fs::remove_file(&marker);
}

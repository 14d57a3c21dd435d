//! Crash- and multi-process regression tests for [`TuneCache`] persistence.
//!
//! These tests re-execute this test binary as a child process (the classic
//! self-exec pattern): the child runs one of the `child_*` tests below, which
//! are no-ops unless the coordinating environment variable is set. The
//! torn-write tests additionally arm the `TILELINK_TUNE_CACHE_FLUSH_ABORT`
//! crash-injection hook so the child aborts in the middle of a flush, and the
//! parent then proves the original file survived intact. Before the atomic
//! tmp+rename fix the flush wrote straight into the destination and these
//! tests observed a truncated — often empty — cache.

use std::path::PathBuf;
use std::process::Command;

use tilelink::OverlapReport;
use tilelink_tune::{cache::FLUSH_ABORT_ENV, TuneCache};

/// Tells a child invocation which cache file to operate on. The child tests
/// are inert when this is unset, so a plain `cargo test` never runs them.
const CHILD_PATH_ENV: &str = "TILELINK_CACHE_TEST_CHILD_PATH";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tilelink-cache-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs `child_test` in a fresh process of this same test binary.
///
/// The child's output is collected rather than inherited: an aborted child
/// leaves `test child_insert_and_flush ... ` unterminated, and on the shared
/// stdout the next result line of the parent run was spliced onto it, so the
/// harness reported garbled test names. The collected output is replayed on
/// this test's stderr, which the harness shows only when the test fails.
fn run_child(child_test: &str, cache_path: &std::path::Path, abort_point: Option<&str>) -> bool {
    let exe = std::env::current_exe().unwrap();
    let mut cmd = Command::new(exe);
    cmd.args([child_test, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_PATH_ENV, cache_path);
    match abort_point {
        Some(point) => cmd.env(FLUSH_ABORT_ENV, point),
        None => cmd.env_remove(FLUSH_ABORT_ENV),
    };
    let out = cmd.output().unwrap();
    eprintln!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out.status.success()
}

/// Child body: open the cache, insert a batch of entries, flush. With the
/// abort hook armed the flush never returns.
#[test]
fn child_insert_and_flush() {
    let Some(path) = std::env::var_os(CHILD_PATH_ENV) else {
        return;
    };
    let mut cache = TuneCache::open(PathBuf::from(path)).unwrap();
    for i in 0..64 {
        cache.insert(
            format!("child-key-{i:03}"),
            OverlapReport::new(2.0 + i as f64, 1.0, 1.5),
        );
    }
    cache.flush().unwrap();
}

fn seed_cache(path: &std::path::Path, n: usize) -> TuneCache {
    let _ = std::fs::remove_file(path);
    let mut cache = TuneCache::open(path).unwrap();
    for i in 0..n {
        cache.insert(
            format!("seed-key-{i:03}"),
            OverlapReport::new(1.0 + i as f64, 0.5, 0.75),
        );
    }
    cache.flush().unwrap();
    cache
}

fn assert_seed_intact(path: &std::path::Path, n: usize) {
    let reloaded = TuneCache::open(path).unwrap();
    for i in 0..n {
        assert!(
            reloaded.get(&format!("seed-key-{i:03}")).is_some(),
            "seed entry {i} lost after interrupted flush"
        );
    }
}

#[test]
fn flush_killed_mid_write_leaves_old_file_intact() {
    let path = tmp("torn-mid-write.tsv");
    seed_cache(&path, 32);
    let ok = run_child("child_insert_and_flush", &path, Some("mid-write"));
    assert!(
        !ok,
        "child armed with mid-write abort must die, not succeed"
    );
    // The whole point of the atomic flush: a crash halfway through writing
    // must leave the previous complete file, not a truncated one.
    assert_seed_intact(&path, 32);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flush_killed_before_rename_leaves_old_file_intact() {
    let path = tmp("torn-pre-rename.tsv");
    seed_cache(&path, 32);
    let ok = run_child("child_insert_and_flush", &path, Some("pre-rename"));
    assert!(
        !ok,
        "child armed with pre-rename abort must die, not succeed"
    );
    assert_seed_intact(&path, 32);
    let _ = std::fs::remove_file(&path);
}

/// Two **processes** sharing one cache file — the exact shape of CI's shared
/// `TILELINK_TUNE_CACHE` across smoke steps. The parent opens the cache
/// first (so its view predates the child's entries), the child then writes
/// and flushes its own entries and exits cleanly, and finally the parent
/// flushes. Before merge-on-flush the parent's rewrite clobbered everything
/// the child had persisted.
#[test]
fn concurrent_tuner_process_entries_survive_parent_flush() {
    let path = tmp("two-process.tsv");
    let _ = std::fs::remove_file(&path);

    let mut parent = TuneCache::open(&path).unwrap();
    parent.insert("parent-key".into(), OverlapReport::new(9.0, 4.0, 7.0));

    let ok = run_child("child_insert_and_flush", &path, None);
    assert!(ok, "clean child flush must succeed");

    parent.flush().unwrap();

    let merged = TuneCache::open(&path).unwrap();
    assert!(merged.get("parent-key").is_some());
    for i in 0..64 {
        assert!(
            merged.get(&format!("child-key-{i:03}")).is_some(),
            "entry {i} written by the concurrent tuner process was clobbered"
        );
    }
    let _ = std::fs::remove_file(&path);
}

//! The warm map's cap and order: it holds 4,096 results without evicting,
//! and past the cap it evicts the least recently used entry of the whole
//! map, counted in `serve.cache.evictions`.
//!
//! Lives in its own test binary so the process-global eviction counter is
//! not shared with unrelated tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tilelink_probe::metrics::SERVE_CACHE_EVICTIONS;
use tilelink_serve::protocol::{parse_command, Command, TuneRequest};
use tilelink_serve::service::{ServeOptions, Source, TuneOutcome, TuneService};

/// The daemon's warm-map cap.
const CAP: usize = 4096;

fn request(line: &str) -> TuneRequest {
    match parse_command(line).unwrap() {
        Command::Tune(req) => *req,
        other => panic!("expected TUNE, got {other:?}"),
    }
}

/// One distinct key per seed: the routing seed is part of the cache key.
fn seeded(i: usize) -> TuneRequest {
    request(&format!("TUNE workload=MoE-1 routing=uniform seed={i}"))
}

fn stub_service(calls: Arc<AtomicUsize>) -> TuneService {
    let opts = ServeOptions {
        cache_path: None,
        ..ServeOptions::default()
    };
    TuneService::with_search(
        opts,
        Box::new(move |req, _cost, _opts| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(TuneOutcome {
                config_key: format!("stub-{}", req.workload.name()),
                total_s: 1e-3,
                comm_s: 4e-4,
                comp_s: 8e-4,
                evaluations: 1,
                cache_hits: 0,
            })
        }),
    )
}

#[test]
fn key_churn_stays_under_the_entry_cap_and_evicts_in_lru_order() {
    let calls = Arc::new(AtomicUsize::new(0));
    let service = stub_service(Arc::clone(&calls));
    let requests: Vec<TuneRequest> = (0..=CAP).map(seeded).collect();

    let evictions_before = SERVE_CACHE_EVICTIONS.get();
    for req in &requests[..CAP] {
        let (_, source) = service.tune(req).unwrap();
        assert_eq!(source, Source::Cold, "every seed is a fresh key");
    }
    assert_eq!(service.cached_results(), CAP);
    // Probing in key order also leaves key 0 the least recently used.
    for (i, req) in requests[..CAP].iter().enumerate() {
        assert!(
            service.try_warm(req).is_some(),
            "key {i} must still be warm"
        );
    }
    assert_eq!(
        SERVE_CACHE_EVICTIONS.get(),
        evictions_before,
        "a full cache has evicted nothing"
    );

    // Touch key 0, so key 1 is the least recently used entry of the cache,
    // then overflow the cap by one.
    assert!(service.try_warm(&requests[0]).is_some());
    let (_, source) = service.tune(&requests[CAP]).unwrap();
    assert_eq!(source, Source::Cold);
    assert_eq!(service.cached_results(), CAP);
    assert_eq!(SERVE_CACHE_EVICTIONS.get(), evictions_before + 1);
    let cold: Vec<usize> = (0..=CAP)
        .filter(|&i| service.try_warm(&requests[i]).is_none())
        .collect();
    assert_eq!(cold, [1], "exactly the least recently used key went cold");
    assert_eq!(calls.load(Ordering::SeqCst), CAP + 1, "one search per key");
}

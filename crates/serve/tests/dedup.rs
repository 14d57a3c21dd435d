//! Cold-search deduplication and warm-path coverage (service level).
//!
//! A slow stub search stands in for the beam search so the tests can prove
//! the concurrency contract exactly: N threads asking for the same uncached
//! key must trigger exactly 1 search and receive N identical responses, and
//! a warm key must trigger 0. No stub search draws routing samples, so the
//! process-wide draw counter moves only where a test draws on purpose.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use tilelink_probe::metrics::WORKLOADS_ROUTING_SAMPLES;
use tilelink_serve::protocol::{parse_command, Command, TuneRequest};
use tilelink_serve::service::{ServeOptions, Source, TuneOutcome, TuneService};
use tilelink_sim::ClusterSpec;
use tilelink_tune::{CostOracle, Objective};
use tilelink_workloads::autotune::LayerOracle;
use tilelink_workloads::{shapes, RoutingProfile, RoutingSpec};

fn request(line: &str) -> TuneRequest {
    match parse_command(line).unwrap() {
        Command::Tune(req) => *req,
        other => panic!("expected TUNE, got {other:?}"),
    }
}

/// A service whose "search" sleeps long enough that every concurrent waiter
/// reliably arrives while it is in flight, and counts its invocations —
/// each invocation is one (stubbed) oracle evaluation.
fn slow_stub_service(evaluations: Arc<AtomicUsize>, delay: Duration) -> TuneService {
    TuneService::with_search(
        ServeOptions {
            cache_path: None,
            ..ServeOptions::default()
        },
        Box::new(move |req, _cost, _opts| {
            let n = evaluations.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(delay);
            Ok(TuneOutcome {
                config_key: format!("stub-{}-{n}", req.workload.name()),
                total_s: 1.5e-3,
                comm_s: 5e-4,
                comp_s: 1.2e-3,
                evaluations: 1,
                cache_hits: 0,
            })
        }),
    )
}

#[test]
fn n_concurrent_identical_cold_requests_run_exactly_one_search() {
    const N: usize = 16;
    let evaluations = Arc::new(AtomicUsize::new(0));
    let service = Arc::new(slow_stub_service(
        Arc::clone(&evaluations),
        Duration::from_millis(300),
    ));
    let barrier = Arc::new(Barrier::new(N));

    let mut handles = Vec::new();
    for _ in 0..N {
        let service = Arc::clone(&service);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let req = request("TUNE workload=MoE-1 routing=zipf:1.2 objective=p95");
            barrier.wait();
            service.tune(&req).unwrap()
        }));
    }
    let results: Vec<(TuneOutcome, Source)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(
        evaluations.load(Ordering::SeqCst),
        1,
        "N identical cold requests must trigger exactly one search"
    );
    let leader = results.iter().filter(|(_, s)| *s == Source::Cold).count();
    let piggybacked = results
        .iter()
        .filter(|(_, s)| *s == Source::Deduped)
        .count();
    assert_eq!(leader, 1, "exactly one request is the search leader");
    assert_eq!(
        piggybacked,
        N - 1,
        "every other request piggybacks (serve.requests.deduped = N-1)"
    );
    let first = &results[0].0;
    assert!(
        results.iter().all(|(outcome, _)| outcome == first),
        "all N waiters must receive the identical broadcast result"
    );
}

#[test]
fn warm_requests_run_zero_searches() {
    let evaluations = Arc::new(AtomicUsize::new(0));
    let service = Arc::new(slow_stub_service(
        Arc::clone(&evaluations),
        Duration::from_millis(1),
    ));
    let req = request("TUNE workload=MLP-3");

    let (cold, source) = service.tune(&req).unwrap();
    assert_eq!(source, Source::Cold);
    assert_eq!(evaluations.load(Ordering::SeqCst), 1);

    // Hammer the warm path from many threads: zero further searches.
    let barrier = Arc::new(Barrier::new(8));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let service = Arc::clone(&service);
        let barrier = Arc::clone(&barrier);
        let req = req.clone();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut outcomes = Vec::new();
            for _ in 0..50 {
                outcomes.push(service.tune(&req).unwrap());
            }
            outcomes
        }));
    }
    for handle in handles {
        for (outcome, source) in handle.join().unwrap() {
            assert_eq!(source, Source::Warm);
            assert_eq!(outcome, cold);
        }
    }
    assert_eq!(
        evaluations.load(Ordering::SeqCst),
        1,
        "warm hits must never evaluate the oracle"
    );
}

#[test]
fn failed_search_is_broadcast_to_every_waiter() {
    const N: usize = 8;
    let attempts = Arc::new(AtomicUsize::new(0));
    let attempts_in_stub = Arc::clone(&attempts);
    let service = Arc::new(TuneService::with_search(
        ServeOptions {
            cache_path: None,
            ..ServeOptions::default()
        },
        Box::new(move |_req, _cost, _opts| {
            attempts_in_stub.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(200));
            Err("search exploded".to_string())
        }),
    ));
    let barrier = Arc::new(Barrier::new(N));
    let mut handles = Vec::new();
    for _ in 0..N {
        let service = Arc::clone(&service);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let req = request("TUNE workload=MLP-1");
            barrier.wait();
            service.tune(&req)
        }));
    }
    for handle in handles {
        let result = handle.join().unwrap();
        assert_eq!(result.unwrap_err(), "search exploded");
    }
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "the failure, too, is deduplicated"
    );
    assert_eq!(service.cached_results(), 0);
}

#[test]
fn warm_routed_probe_draws_no_routing_samples() {
    let evaluations = Arc::new(AtomicUsize::new(0));
    let service = slow_stub_service(Arc::clone(&evaluations), Duration::from_millis(1));
    // The most samples the wire admits, on a shape with the most dispatched
    // rows: drawing them takes milliseconds, so the reactor's warm probe
    // must key the request without drawing.
    let req = request("TUNE workload=MoE-3 routing=zipf:1.2 objective=p95 samples=64");
    let drawn = WORKLOADS_ROUTING_SAMPLES.get();
    let (cold, source) = service.tune(&req).unwrap();
    assert_eq!(source, Source::Cold);
    for _ in 0..100 {
        let (outcome, source) = service.try_warm(&req).expect("the primed key is warm");
        assert_eq!(source, Source::Warm);
        assert_eq!(outcome, cold);
    }
    assert_eq!(evaluations.load(Ordering::SeqCst), 1);
    assert_eq!(
        WORKLOADS_ROUTING_SAMPLES.get(),
        drawn,
        "keying a routed request must draw no routing sample"
    );

    // The counter does see draws: a routed oracle draws its samples on its
    // first evaluation and reuses them on every later one.
    let spec = RoutingSpec {
        samples: 2,
        ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
    };
    let oracle = LayerOracle::new(shapes::moe_shapes()[0].clone(), ClusterSpec::h800_node(8))
        .with_routing(spec)
        .with_objective(Objective::Percentile(95));
    assert_eq!(WORKLOADS_ROUTING_SAMPLES.get(), drawn);
    let cfg = tilelink::OverlapConfig::default();
    for _ in 0..2 {
        oracle.evaluate_bounded(&cfg, 0.0).unwrap();
        assert_eq!(WORKLOADS_ROUTING_SAMPLES.get(), drawn + 2);
    }
}

//! End-to-end protocol tests over a real TCP socket, with real standard-space
//! beam searches behind the daemon.

use std::sync::{Arc, Barrier};

use tilelink_serve::protocol::{parse_reply, Reply};
use tilelink_serve::server::{serve_ephemeral, Client, MAX_LINE_BYTES};
use tilelink_serve::service::{ServeOptions, TuneService};

fn quick_server() -> tilelink_serve::server::ServerHandle {
    serve_ephemeral(TuneService::new(ServeOptions {
        cache_path: None, // keep tests hermetic: no shared TSV
        ..ServeOptions::default()
    }))
    .expect("bind ephemeral port")
}

#[test]
fn ping_stats_and_errors_over_the_wire() {
    let server = quick_server();
    let mut client = Client::connect(server.addr()).unwrap();

    assert_eq!(client.request("PING").unwrap(), "PONG");

    let reply = parse_reply(&client.request("STATS").unwrap()).unwrap();
    let Reply::Stats(stats) = &reply else {
        panic!("expected STATS, got {reply:?}");
    };
    assert!(stats.contains("cached="), "stats line: {stats}");
    // The payload also parses through the typed reader, and the pipeline
    // fields are present (an unknown or missing key would error here).
    let fields = reply.stats().expect("stats line parses typed");
    assert_eq!(fields.cached, 0, "a fresh daemon has nothing cached");
    assert!(fields.pool_queued >= 0 && fields.pool_active >= 0);

    for bad in [
        "TUNE workload=MLP-9",
        "TUNE workload=MLP-1 cluster=h800x1",
        "HELLO",
        "",
    ] {
        let reply = parse_reply(&client.request(bad).unwrap()).unwrap();
        assert!(
            matches!(reply, Reply::Err(_)),
            "{bad:?} should answer ERR, got {reply:?}"
        );
    }

    // The connection survives every error above.
    assert_eq!(client.request("PING").unwrap(), "PONG");
    server.shutdown();
}

#[test]
fn cold_then_warm_tune_over_the_wire() {
    let server = quick_server();
    let mut client = Client::connect(server.addr()).unwrap();

    let line = "TUNE workload=MLP-1 cluster=h800x8";
    let Reply::Ok(cold) = parse_reply(&client.request(line).unwrap()).unwrap() else {
        panic!("cold request failed");
    };
    assert_eq!(cold.workload, "MLP-1");
    assert_eq!(cold.source, "cold");
    assert!(cold.evals > 0, "a cold search evaluates candidates");
    assert!(cold.total_ms > 0.0 && cold.total_ms.is_finite());
    assert!(!cold.config.is_empty());

    // Same request again — warm, identical winner, and from a *different*
    // connection to prove the cache is connection-independent.
    let mut second = Client::connect(server.addr()).unwrap();
    let Reply::Ok(warm) = parse_reply(&second.request(line).unwrap()).unwrap() else {
        panic!("warm request failed");
    };
    assert_eq!(warm.source, "warm");
    assert_eq!(warm.config, cold.config);
    assert_eq!(warm.total_ms, cold.total_ms);

    // The typed STATS payload reflects the traffic this server just served.
    let stats = parse_reply(&second.request("STATS").unwrap())
        .unwrap()
        .stats()
        .expect("stats line parses typed");
    assert!(stats.warm >= 1, "one warm hit recorded: {stats:?}");
    assert!(stats.cold >= 1, "one cold search recorded: {stats:?}");
    assert!(stats.cached >= 1, "the winner is cached: {stats:?}");
    server.shutdown();
}

#[test]
fn clusters_no_config_fits_answer_err() {
    let server = quick_server();
    let mut client = Client::connect(server.addr()).unwrap();

    // Three ranks split no token count; 2^58 + 2 ranks overflow `usize`
    // when multiplied by any tile height, which must not wrap into a
    // supported ring. Both are refused by admission, before any compile.
    for line in [
        "TUNE workload=MLP-1 cluster=h800x3",
        "TUNE workload=MLP-1 cluster=h800x2x144115188075855873",
    ] {
        let reply = parse_reply(&client.request(line).unwrap()).unwrap();
        assert!(
            matches!(&reply, Reply::Err(e) if e.contains("search space is empty")),
            "{line} should answer ERR for an empty space, got {reply:?}"
        );
    }
    let stats = parse_reply(&client.request("STATS").unwrap())
        .unwrap()
        .stats()
        .unwrap();
    assert_eq!(stats.cached, 0, "a refused request caches nothing");
    server.shutdown();
}

#[test]
fn oversized_request_lines_answer_err_and_close_the_connection() {
    let server = quick_server();
    let mut client = Client::connect(server.addr()).unwrap();

    // A request line one chunk past the cap: the daemon must refuse it with
    // a bounded-size ERR instead of buffering without limit.
    let huge = "X".repeat(MAX_LINE_BYTES + 4096);
    let reply = client.request(&huge).unwrap();
    assert!(
        reply.starts_with("ERR request line exceeds"),
        "got: {reply}"
    );

    // The daemon closes the connection after the refusal; the next request
    // on the same socket fails instead of hanging.
    assert!(
        client.request("PING").is_err(),
        "connection must be closed after an oversized line"
    );

    // Fresh connections are unaffected.
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_eq!(fresh.request("PING").unwrap(), "PONG");
    server.shutdown();
}

#[test]
fn concurrent_identical_requests_over_sockets_share_one_search() {
    const N: usize = 8;
    let server = quick_server();
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(N));

    let mut handles = Vec::new();
    for _ in 0..N {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            barrier.wait();
            client
                .request("TUNE workload=MoE-1 routing=zipf:1.1 objective=p95")
                .unwrap()
        }));
    }
    let replies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut cold = 0;
    let mut deduped = 0;
    let mut configs = std::collections::HashSet::new();
    for reply in &replies {
        let Reply::Ok(fields) = parse_reply(reply).unwrap() else {
            panic!("request failed: {reply}");
        };
        match fields.source.as_str() {
            "cold" => cold += 1,
            "deduped" => deduped += 1,
            other => panic!("unexpected source {other} (a racer went warm too early?)"),
        }
        configs.insert(fields.config);
    }
    assert_eq!(cold, 1, "exactly one socket request runs the search");
    assert_eq!(deduped, N - 1);
    assert_eq!(configs.len(), 1, "every client gets the same winner");
    server.shutdown();
}

/// The reactor answers warm hits inline for every connection it multiplexes;
/// a burst from many connections at once must not drop or misroute a reply.
#[test]
fn sixty_four_connections_released_together_lose_no_warm_reply() {
    const CONNECTIONS: usize = 64;
    const REQUESTS: usize = 20;
    let server = quick_server();
    let addr = server.addr();
    let line = "TUNE workload=MLP-1";
    let Reply::Ok(primed) =
        parse_reply(&Client::connect(addr).unwrap().request(line).unwrap()).unwrap()
    else {
        panic!("priming request failed");
    };
    assert_eq!(primed.source, "cold");

    let barrier = Barrier::new(CONNECTIONS);
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    (0..REQUESTS)
                        .map(|_| client.request(line).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(replies.len(), CONNECTIONS * REQUESTS);
    for reply in &replies {
        let Reply::Ok(fields) = parse_reply(reply).unwrap() else {
            panic!("request failed: {reply}");
        };
        assert_eq!(fields.source, "warm");
        assert_eq!(fields.config, primed.config);
    }
    server.shutdown();
}

//! Load generator: drives a real daemon over real sockets and measures it.
//!
//! Three phases, mirroring the service's three request paths:
//!
//! 1. **dedup** — N clients fire the *same* uncached request through a
//!    barrier; with batching working, exactly one runs the search
//!    (`source=cold`) and the other N−1 piggyback (`source=deduped`).
//! 2. **warm** — C persistent connections each issue R copies of an
//!    already-cached request, measuring per-request wall latency
//!    client-side (write → response line). This is the microsecond path the
//!    daemon exists for.
//! 3. **mixed** — C connections sweep a catalog of distinct requests with
//!    staggered offsets, so the run mixes cold searches, warm hits and
//!    dedup collisions the way a real fleet of tuner clients would.
//! 4. **ramp** — the connection count multiplies level by level while the
//!    total warm-request volume stays constant, so the measurement isolates
//!    what *connections* cost (the reactor's scan, not extra work). Against
//!    the old thread-per-connection front end this is where the thread
//!    explosion lived; against the reactor the warm p99 should stay flat.
//!
//! Sources are counted from the response lines themselves (every `OK` reply
//! carries `source=`), so the phase numbers are exact even if other traffic
//! shares the process's probe counters. The pipeline counters that *are*
//! process-global (`serve.pool.*`, `serve.cache.*`, `tune.executor.*`) are
//! snapshotted before and after the run and reported as deltas. Cold
//! searches always use the compact `--quick` search space — the bench
//! measures *serving*, not search depth — while request volumes scale with
//! the quick flag.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use tilelink_probe::metrics::{
    SERVE_CACHE_EVICTIONS, SERVE_CACHE_EXPIRED, SERVE_POOL_REJECTED, TUNE_EXECUTOR_REUSES,
};
use tilelink_sim::CostModelSpec;

use crate::protocol::{parse_reply, Reply};
use crate::server::{serve_ephemeral, Client, ServerHandle};
use crate::service::{ServeOptions, TuneService};

/// Sizing of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Cost model the daemon prices searches with.
    pub cost: CostModelSpec,
    /// Clients firing the identical cold request in the dedup phase.
    pub dedup_waiters: usize,
    /// Concurrent persistent connections in the warm and mixed phases.
    pub clients: usize,
    /// Warm requests per client.
    pub warm_requests: usize,
    /// Mixed catalog requests per client.
    pub mixed_requests: usize,
    /// Connection counts the ramp phase steps through.
    pub ramp_connections: Vec<usize>,
    /// Total warm requests per ramp level (split over the level's
    /// connections, so offered work stays constant while connections grow).
    pub ramp_total_requests: usize,
    /// Whether this is the reduced-volume quick configuration.
    pub quick: bool,
}

impl LoadGenConfig {
    /// CI-sized run: ~2k warm requests, hundreds of mixed ones, ramp to 64
    /// connections.
    pub fn quick(cost: CostModelSpec) -> Self {
        Self {
            cost,
            dedup_waiters: 16,
            clients: 8,
            warm_requests: 250,
            mixed_requests: 25,
            ramp_connections: vec![8, 16, 32, 64],
            ramp_total_requests: 2000,
            quick: true,
        }
    }

    /// Full run: tens of thousands of warm requests, thousands mixed, ramp
    /// to 256 connections.
    pub fn full(cost: CostModelSpec) -> Self {
        Self {
            cost,
            dedup_waiters: 64,
            clients: 32,
            warm_requests: 1000,
            mixed_requests: 100,
            ramp_connections: vec![32, 64, 128, 256],
            ramp_total_requests: 8000,
            quick: false,
        }
    }
}

/// Latency percentiles and throughput of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Requests measured.
    pub count: usize,
    /// Wall-clock of the whole phase, seconds.
    pub wall_s: f64,
    /// `count / wall_s`.
    pub requests_per_sec: f64,
    /// Mean request latency, microseconds.
    pub mean_us: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Slowest request, microseconds.
    pub max_us: u64,
}

impl LatencyStats {
    fn from_latencies(mut latencies_us: Vec<u64>, wall_s: f64) -> Self {
        latencies_us.sort_unstable();
        let count = latencies_us.len();
        let pct = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as usize).clamp(1, count);
            latencies_us[rank - 1]
        };
        let sum: u64 = latencies_us.iter().sum();
        Self {
            count,
            wall_s,
            requests_per_sec: if wall_s > 0.0 {
                count as f64 / wall_s
            } else {
                0.0
            },
            mean_us: if count > 0 {
                sum as f64 / count as f64
            } else {
                0.0
            },
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            max_us: latencies_us.last().copied().unwrap_or(0),
        }
    }
}

/// Outcome of the dedup phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupPhase {
    /// Clients that fired the identical request.
    pub waiters: usize,
    /// Replies with `source=cold` — must be exactly 1 for perfect batching.
    pub searches: usize,
    /// Replies with `source=deduped` — ideally `waiters - 1`.
    pub deduped: usize,
    /// Replies with `source=warm` (a straggler that arrived after the
    /// search finished; 0 in a healthy run).
    pub warm: usize,
    /// Replies that matched the leader's config exactly.
    pub identical: usize,
}

/// Outcome of the mixed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedPhase {
    /// Latency/throughput of the phase.
    pub stats: LatencyStats,
    /// Replies answered warm.
    pub warm: usize,
    /// Replies that ran a search.
    pub cold: usize,
    /// Replies that piggybacked on an in-flight search.
    pub deduped: usize,
}

/// One connection-count step of the ramp phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampLevel {
    /// Concurrent persistent connections at this level.
    pub connections: usize,
    /// Warm-request latency/throughput at this level.
    pub stats: LatencyStats,
}

/// Deltas of the process-global pipeline counters over one load-gen run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineMetrics {
    /// Requests answered `ERR busy` by the bounded dispatch queue.
    pub pool_rejected: u64,
    /// Warm-cache entries evicted by the LRU cap.
    pub cache_evictions: u64,
    /// Warm-cache entries dropped by TTL expiry.
    pub cache_expired: u64,
    /// Cold searches that reused the already-warm shared executor pool.
    pub executor_reuses: u64,
}

impl PipelineMetrics {
    fn snapshot() -> Self {
        Self {
            pool_rejected: SERVE_POOL_REJECTED.get(),
            cache_evictions: SERVE_CACHE_EVICTIONS.get(),
            cache_expired: SERVE_CACHE_EXPIRED.get(),
            executor_reuses: TUNE_EXECUTOR_REUSES.get(),
        }
    }

    fn delta_since(&self, before: &Self) -> Self {
        Self {
            pool_rejected: self.pool_rejected - before.pool_rejected,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            cache_expired: self.cache_expired - before.cache_expired,
            executor_reuses: self.executor_reuses - before.executor_reuses,
        }
    }
}

/// Everything one load-generator run measured.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The sizing that produced this report.
    pub config: LoadGenConfig,
    /// Cost-model revision the daemon priced with.
    pub cost_revision: String,
    /// Dedup phase results.
    pub dedup: DedupPhase,
    /// Warm phase latency/throughput.
    pub warm: LatencyStats,
    /// Mixed phase results.
    pub mixed: MixedPhase,
    /// Connection-ramp levels, in ramp order.
    pub ramp: Vec<RampLevel>,
    /// Pipeline-counter deltas over the whole run.
    pub metrics: PipelineMetrics,
}

/// The request every dedup waiter fires: routing-sampled and tail-tuned so
/// the search is slow enough that all waiters arrive while it is in flight.
const DEDUP_REQUEST: &str = "TUNE workload=MoE-1 routing=zipf:1.2 objective=p95";

/// The request the warm phase hammers (primed once before measuring).
const WARM_REQUEST: &str = "TUNE workload=MLP-1";

/// The mixed-phase catalog: every Table 4 shape plus routing/objective
/// variants, each a distinct cache-key quintuple.
fn mixed_catalog() -> Vec<String> {
    let mut catalog: Vec<String> = Vec::new();
    for i in 1..=6 {
        catalog.push(format!("TUNE workload=MLP-{i}"));
    }
    for i in 1..=4 {
        catalog.push(format!("TUNE workload=MoE-{i}"));
    }
    catalog.push("TUNE workload=MoE-1 routing=zipf:1.2".to_string());
    catalog.push("TUNE workload=MoE-2 objective=p95".to_string());
    catalog.push("TUNE workload=MLP-2 cluster=h800x4".to_string());
    catalog.push("TUNE workload=MoE-1 routing=hot:2".to_string());
    catalog
}

fn classify(reply: &str) -> Option<(&'static str, String)> {
    match parse_reply(reply) {
        Ok(Reply::Ok(fields)) => {
            let source: &'static str = match fields.source.as_str() {
                "warm" => "warm",
                "cold" => "cold",
                "deduped" => "deduped",
                _ => return None,
            };
            Some((source, fields.config))
        }
        _ => None,
    }
}

/// Runs the full three-phase load generation against a fresh daemon on an
/// ephemeral localhost port.
///
/// The daemon's write-behind [`tilelink_tune::TuneCache`] is pointed at a
/// fresh temp file (removed afterwards) so every cold key is genuinely cold
/// regardless of what earlier runs persisted.
///
/// # Errors
///
/// Returns any socket error; individual request failures surface as
/// non-`OK` replies and are excluded from the source counts.
pub fn run_loadgen(cfg: &LoadGenConfig) -> std::io::Result<ServeBenchReport> {
    let cache_path =
        std::env::temp_dir().join(format!("tilelink-serve-loadgen-{}.tsv", std::process::id()));
    let _ = std::fs::remove_file(&cache_path);

    let opts = ServeOptions {
        cost: cfg.cost.clone(),
        cache_path: Some(cache_path.clone()),
        ..ServeOptions::quick()
    };
    let cost_revision = opts
        .cost
        .build(&tilelink_sim::ClusterSpec::h800_node(8))
        .map(|cost| cost.revision())
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let server = serve_ephemeral(TuneService::new(opts))?;
    let before = PipelineMetrics::snapshot();

    let dedup = run_dedup_phase(&server, cfg.dedup_waiters)?;
    let warm = run_warm_phase(&server, cfg.clients, cfg.warm_requests)?;
    let mixed = run_mixed_phase(&server, cfg.clients, cfg.mixed_requests)?;
    let ramp = run_ramp_phase(&server, &cfg.ramp_connections, cfg.ramp_total_requests)?;

    let metrics = PipelineMetrics::snapshot().delta_since(&before);
    server.shutdown();
    let _ = std::fs::remove_file(&cache_path);

    Ok(ServeBenchReport {
        config: cfg.clone(),
        cost_revision,
        dedup,
        warm,
        mixed,
        ramp,
        metrics,
    })
}

/// The ramp phase: re-runs the warm measurement at each connection count,
/// splitting a constant request total over the connections, so each level
/// answers "what does 4× the connections cost?" rather than "what does 4×
/// the work cost?".
fn run_ramp_phase(
    server: &ServerHandle,
    levels: &[usize],
    total_requests: usize,
) -> std::io::Result<Vec<RampLevel>> {
    let mut out = Vec::with_capacity(levels.len());
    for &connections in levels {
        let connections = connections.max(1);
        let per_conn = (total_requests / connections).max(1);
        let stats = run_warm_phase(server, connections, per_conn)?;
        out.push(RampLevel { connections, stats });
    }
    Ok(out)
}

fn run_dedup_phase(server: &ServerHandle, waiters: usize) -> std::io::Result<DedupPhase> {
    let addr = server.addr();
    let barrier = Barrier::new(waiters);
    let replies = Mutex::new(Vec::with_capacity(waiters));
    let io_errors = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..waiters {
            scope.spawn(|| {
                // Connect before the barrier so the sends race as one volley.
                let client = Client::connect(addr);
                barrier.wait();
                match client.and_then(|mut c| c.request(DEDUP_REQUEST)) {
                    Ok(reply) => replies
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(reply),
                    Err(_) => {
                        io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    if io_errors.load(Ordering::Relaxed) > 0 {
        return Err(std::io::Error::other("dedup phase lost connections"));
    }
    let replies = replies.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut phase = DedupPhase {
        waiters,
        searches: 0,
        deduped: 0,
        warm: 0,
        identical: 0,
    };
    let mut configs: Vec<String> = Vec::new();
    for reply in &replies {
        if let Some((source, config)) = classify(reply) {
            match source {
                "cold" => phase.searches += 1,
                "deduped" => phase.deduped += 1,
                _ => phase.warm += 1,
            }
            configs.push(config);
        }
    }
    if let Some(first) = configs.first() {
        phase.identical = configs.iter().filter(|c| *c == first).count();
    }
    Ok(phase)
}

fn run_warm_phase(
    server: &ServerHandle,
    clients: usize,
    requests_per_client: usize,
) -> std::io::Result<LatencyStats> {
    let addr = server.addr();
    // Prime the key so the measured phase is pure warm hits.
    Client::connect(addr)?.request(WARM_REQUEST)?;

    let barrier = Barrier::new(clients);
    let all_latencies = Mutex::new(Vec::with_capacity(clients * requests_per_client));
    let started = Mutex::new(None::<Instant>);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let Ok(mut client) = Client::connect(addr) else {
                    return;
                };
                barrier.wait();
                started
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get_or_insert_with(Instant::now);
                let mut latencies = Vec::with_capacity(requests_per_client);
                for _ in 0..requests_per_client {
                    let t0 = Instant::now();
                    if client.request(WARM_REQUEST).is_err() {
                        return;
                    }
                    latencies.push(t0.elapsed().as_micros() as u64);
                }
                all_latencies
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(latencies);
            });
        }
    });
    let wall_s = started
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .map(|t0| t0.elapsed().as_secs_f64())
        .unwrap_or(0.0);
    let latencies = all_latencies
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    if latencies.len() != clients * requests_per_client {
        return Err(std::io::Error::other("warm phase lost requests"));
    }
    Ok(LatencyStats::from_latencies(latencies, wall_s))
}

fn run_mixed_phase(
    server: &ServerHandle,
    clients: usize,
    requests_per_client: usize,
) -> std::io::Result<MixedPhase> {
    let addr = server.addr();
    let catalog = mixed_catalog();
    let barrier = Barrier::new(clients);
    let all: Mutex<(Vec<u64>, usize, usize, usize)> = Mutex::new((Vec::new(), 0, 0, 0));
    let started = Mutex::new(None::<Instant>);
    std::thread::scope(|scope| {
        for client_idx in 0..clients {
            let catalog = &catalog;
            let barrier = &barrier;
            let all = &all;
            let started = &started;
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(addr) else {
                    return;
                };
                barrier.wait();
                started
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get_or_insert_with(Instant::now);
                let mut latencies = Vec::with_capacity(requests_per_client);
                let (mut warm, mut cold, mut deduped) = (0usize, 0usize, 0usize);
                for i in 0..requests_per_client {
                    // Staggered offsets: clients start at different catalog
                    // positions, so early requests collide (dedup) while the
                    // tail is mostly warm.
                    let line = &catalog[(client_idx + i) % catalog.len()];
                    let t0 = Instant::now();
                    let Ok(reply) = client.request(line) else {
                        return;
                    };
                    latencies.push(t0.elapsed().as_micros() as u64);
                    match classify(&reply).map(|(source, _)| source) {
                        Some("warm") => warm += 1,
                        Some("cold") => cold += 1,
                        Some("deduped") => deduped += 1,
                        _ => {}
                    }
                }
                let mut all = all.lock().unwrap_or_else(|e| e.into_inner());
                all.0.extend(latencies);
                all.1 += warm;
                all.2 += cold;
                all.3 += deduped;
            });
        }
    });
    let wall_s = started
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .map(|t0| t0.elapsed().as_secs_f64())
        .unwrap_or(0.0);
    let (latencies, warm, cold, deduped) = all.into_inner().unwrap_or_else(|e| e.into_inner());
    if latencies.len() != clients * requests_per_client {
        return Err(std::io::Error::other("mixed phase lost requests"));
    }
    Ok(MixedPhase {
        stats: LatencyStats::from_latencies(latencies, wall_s),
        warm,
        cold,
        deduped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_percentiles_are_nearest_rank() {
        let stats = LatencyStats::from_latencies((1..=100).collect(), 2.0);
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50_us, 50);
        assert_eq!(stats.p95_us, 95);
        assert_eq!(stats.p99_us, 99);
        assert_eq!(stats.max_us, 100);
        assert_eq!(stats.requests_per_sec, 50.0);
        assert_eq!(stats.mean_us, 50.5);
    }

    #[test]
    fn latency_stats_handle_empty_input() {
        let stats = LatencyStats::from_latencies(Vec::new(), 0.0);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.p99_us, 0);
        assert_eq!(stats.requests_per_sec, 0.0);
    }

    #[test]
    fn mixed_catalog_keys_are_distinct() {
        let catalog = mixed_catalog();
        let unique: std::collections::HashSet<_> = catalog.iter().collect();
        assert_eq!(unique.len(), catalog.len());
        assert!(catalog.len() >= 12);
    }
}

//! The `serve` workload: the tuning daemon in this process, driven by a
//! closed loop on two connections.
//!
//! * Connection A walks a seeded schedule of keys the daemon has not seen,
//!   so every request is a cold miss. The schedule is a Latin square: block
//!   `b` asks every cluster once, cluster `c` with shape
//!   `shapes[(c + b) % 12]`. A cold search's cost depends mostly on the
//!   cluster (world size), so every block carries the same mix, and twelve
//!   blocks cover all 180 keys exactly once.
//! * Connection B sends warm hits on keys primed during set-up. Twice per
//!   block, at seeded points, it asks for the key A has in flight, which
//!   exercises dedup.
//!
//! Each client waits for its reply before sending again.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tilelink_probe::metrics::{
    SERVE_POOL_REJECTED, SERVE_REQUESTS_COLD, SERVE_REQUESTS_DEDUPED, SERVE_REQUESTS_WARM,
    TUNE_EXECUTOR_REUSES,
};
use tilelink_serve::{
    parse_command, parse_reply, serve_ephemeral, Client, Reply, ServeOptions, ServerHandle,
    TuneService,
};
use tilelink_tune::SearchSpace;

use crate::search::{self, LayerTotals};
use crate::stats::{median, percentile, Reference, Rng};
use crate::Tally;

pub const SHAPES: [&str; 12] = [
    "MLP-1", "MLP-2", "MLP-3", "MLP-4", "MLP-5", "MLP-6", "MoE-1", "MoE-2", "MoE-3", "MoE-4",
    "MoE-5", "MoE-6",
];

pub const CLUSTERS: [&str; 15] = [
    "h800x2", "h800x4", "h800x8", "h800x4x2", "h800x8x2", "h100x2", "h100x4", "h100x8", "h100x4x2",
    "h100x8x2", "a100x2", "a100x4", "a100x8", "a100x4x2", "a100x8x2",
];

/// Warm keys, primed during set-up. Their 2×2 clusters lie outside
/// [`CLUSTERS`], so connection A never asks for one.
pub const PRIMED: [&str; 4] = [
    "TUNE workload=MLP-1 cluster=h800x2x2",
    "TUNE workload=MoE-3 cluster=h100x2x2",
    "TUNE workload=MLP-5 cluster=a100x2x2",
    "TUNE workload=MoE-6 cluster=h800x2x2",
];

/// Requests per block of A's that B repeats while they are in flight.
const COLLISIONS_PER_BLOCK: usize = 2;

/// Blocks per daemon: each round of the workload starts a fresh daemon, so
/// set-up is timed several times per run.
const ROUND_BLOCKS: usize = 4;

/// How long B waits after A's send before it sends the colliding request, so
/// that A's request is normally registered as the in-flight leader first.
const COLLIDE_DELAY: Duration = Duration::from_millis(2);

fn cold_line(shape: &str, cluster: &str) -> String {
    format!("TUNE workload={shape} cluster={cluster}")
}

/// Every request line the workload can send (for the reference file).
pub fn all_lines() -> Vec<String> {
    let mut lines: Vec<String> = PRIMED.iter().map(|s| s.to_string()).collect();
    for shape in SHAPES {
        for cluster in CLUSTERS {
            lines.push(cold_line(shape, cluster));
        }
    }
    lines
}

/// A's seeded schedule: blocks of 15 cold keys and which requests collide.
pub fn schedule(seed: u64) -> Vec<Vec<(String, bool)>> {
    let mut rng = Rng::new(seed ^ 0x5e7e_b10c);
    let mut shapes: Vec<usize> = (0..SHAPES.len()).collect();
    rng.shuffle(&mut shapes);
    let mut blocks: Vec<usize> = (0..SHAPES.len()).collect();
    rng.shuffle(&mut blocks);
    blocks
        .into_iter()
        .map(|b| {
            let mut clusters: Vec<usize> = (0..CLUSTERS.len()).collect();
            rng.shuffle(&mut clusters);
            let mut collide: Vec<bool> = (0..CLUSTERS.len())
                .map(|i| i < COLLISIONS_PER_BLOCK)
                .collect();
            rng.shuffle(&mut collide);
            clusters
                .into_iter()
                .zip(collide)
                .map(|(c, collide)| {
                    let shape = SHAPES[shapes[(c + b) % SHAPES.len()]];
                    (cold_line(shape, CLUSTERS[c]), collide)
                })
                .collect()
        })
        .collect()
}

/// A daemon at default options with persistence off, two connections, and
/// its warm keys primed.
pub struct Daemon {
    pub handle: ServerHandle,
    pub a: Client,
    pub b: Client,
}

pub fn set_up(reference: &Reference, tally: &mut Tally) -> Result<Daemon, String> {
    tilelink::reset_compile_cache();
    let service = TuneService::new(ServeOptions {
        cache_path: None,
        ..ServeOptions::default()
    });
    let handle = serve_ephemeral(service).map_err(|e| format!("bind: {e}"))?;
    let mut a = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let b = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for line in PRIMED {
        let outcome = ask(&mut a, line).and_then(|(src, cfg, ms)| {
            expect_source(line, &src, &["cold"])?;
            reference.check_wire(line, &cfg, ms)
        });
        tally.record(outcome);
    }
    Ok(Daemon { handle, a, b })
}

/// Sends one request; returns `(source, config, total_ms)` of an `OK`.
fn ask(client: &mut Client, line: &str) -> Result<(String, String, f64), String> {
    let raw = client
        .request(line)
        .map_err(|e| format!("{line}: connection lost: {e}"))?;
    match parse_reply(&raw) {
        Ok(Reply::Ok(f)) => Ok((f.source, f.config, f.total_ms)),
        Ok(Reply::Err(msg)) => Err(format!("{line}: ERR {msg}")),
        Ok(other) => Err(format!("{line}: unexpected reply {other:?}")),
        Err(e) => Err(format!("{line}: {e}")),
    }
}

fn expect_source(line: &str, got: &str, allowed: &[&str]) -> Result<(), String> {
    if allowed.contains(&got) {
        Ok(())
    } else {
        Err(format!("{line}: source={got}, expected one of {allowed:?}"))
    }
}

/// What the serve measurement produced; index 1 holds traced blocks.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Median `source=cold` round trip of each untraced block, ms.
    pub block_cold_p50_ms: Vec<f64>,
    /// Sum of A's round trips per block, s.
    pub block_s: [Vec<f64>; 2],
    /// Wall of each block, s, including any in-process searches.
    pub block_wall_s: Vec<f64>,
    /// B's warm round trips, µs.
    pub warm_us: [Vec<f64>; 2],
    /// Cold round trip minus the same key's untraced in-process search, ms.
    pub cold_overhead_ms: Vec<f64>,
    /// Wrapped in-process searches of the traced blocks.
    pub layers: LayerTotals,
    pub collisions: usize,
    pub collisions_deduped: usize,
    pub requests: [u64; 3],
    pub pool_rejected: u64,
    pub executor_reuses: u64,
    pub parse_us: f64,
    pub lookup_us: f64,
}

#[derive(Debug, Default)]
struct Flight {
    line: Option<(usize, String, Instant)>,
}

/// When a serve measurement stops, and which of its blocks are traced.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// A block starts only if a typical block still ends by then (the
    /// first block of a run always starts).
    pub deadline: Instant,
    /// Blocks that start at or after this instant are traced.
    pub traced_from: Option<Instant>,
}

/// Runs the closed loop over the first [`ROUND_BLOCKS`] blocks of `seed`'s
/// schedule on one daemon; returns `false` once the window has closed.
/// Results accumulate into `run`.
///
/// A traced block first runs each key's search in process: every other key
/// wrapped and with spans on for the layer split, the rest untraced, so the
/// daemon's cold round trip can be split into search and serving overhead.
pub fn measure(
    daemon: &mut Daemon,
    reference: &Reference,
    seed: u64,
    window: Window,
    run: &mut ServeRun,
    tally: &mut Tally,
) -> bool {
    let blocks = schedule(seed);
    let counters = || {
        [
            SERVE_REQUESTS_WARM.get(),
            SERVE_REQUESTS_COLD.get(),
            SERVE_REQUESTS_DEDUPED.get(),
            SERVE_POOL_REJECTED.get(),
            TUNE_EXECUTOR_REUSES.get(),
        ]
    };
    let before = counters();
    let flight = Mutex::new(Flight::default());
    let stop = AtomicBool::new(false);
    let traced_block = AtomicBool::new(false);
    let space = SearchSpace::standard();

    let Daemon { a, b, .. } = daemon;
    let (open, sources) = std::thread::scope(|scope| {
        let b_thread = scope.spawn(|| {
            let mut rng = Rng::new(seed ^ 0xb0b);
            let mut warm_us: [Vec<f64>; 2] = Default::default();
            let mut sources: Vec<(usize, String)> = Vec::new();
            let mut tally = Tally::default();
            while !stop.load(Ordering::Acquire) {
                let collide = flight.lock().expect("flight poisoned").line.take();
                if let Some((idx, line, sent)) = collide {
                    if let Some(wait) =
                        (sent + COLLIDE_DELAY).checked_duration_since(Instant::now())
                    {
                        std::thread::sleep(wait);
                    }
                    let outcome = ask(b, &line).and_then(|(src, cfg, ms)| {
                        expect_source(&line, &src, &["cold", "deduped", "warm"])?;
                        sources.push((idx, src));
                        reference.check_wire(&line, &cfg, ms)
                    });
                    tally.record(outcome);
                    continue;
                }
                let line = PRIMED[rng.below(PRIMED.len())];
                let t0 = Instant::now();
                let outcome = ask(b, line);
                let rt = t0.elapsed();
                let outcome = outcome.and_then(|(src, cfg, ms)| {
                    expect_source(line, &src, &["warm"])?;
                    reference.check_wire(line, &cfg, ms)
                });
                if outcome.is_ok() {
                    warm_us[usize::from(traced_block.load(Ordering::Relaxed))]
                        .push(rt.as_secs_f64() * 1e6);
                }
                tally.record(outcome);
            }
            (warm_us, sources, tally)
        });

        let mut sources: Vec<(usize, String)> = Vec::new();
        let mut open = true;
        for (idx_base, block) in blocks.iter().take(ROUND_BLOCKS).enumerate() {
            let now = Instant::now();
            let typical = median(&run.block_wall_s).unwrap_or(0.0);
            if !run.block_wall_s.is_empty()
                && now + Duration::from_secs_f64(typical) > window.deadline
            {
                open = false;
                break;
            }
            let traced = window.traced_from.is_some_and(|t| now >= t);
            traced_block.store(traced, Ordering::Relaxed);
            let mut block_sum = 0.0;
            let mut block_cold = Vec::new();
            for (i, (line, collide)) in block.iter().enumerate() {
                let idx = idx_base * block.len() + i;
                let mut in_process_s = None;
                if traced {
                    // Alternate keys either feed the layer split (wrapped,
                    // spans on) or give an untraced in-process wall to take
                    // from the round trip.
                    let wrapped = idx % 2 == 0;
                    tilelink::reset_compile_cache();
                    tilelink_probe::set_enabled(wrapped);
                    let outcome = search::request(line).and_then(|req| {
                        let oracle = search::oracle_for(&req);
                        let layers = wrapped.then_some(&mut run.layers);
                        let (report, wall) =
                            search::run_search(&search::tuner(), &*oracle, &space, layers)?;
                        in_process_s = (!wrapped).then_some(wall);
                        reference.check_exact(line, &search::winner(&report))
                    });
                    tilelink_probe::set_enabled(false);
                    tally.record(outcome);
                }
                tilelink::reset_compile_cache();
                let t0 = Instant::now();
                if *collide {
                    flight.lock().expect("flight poisoned").line = Some((idx, line.clone(), t0));
                }
                let outcome = ask(a, line);
                let rt = t0.elapsed().as_secs_f64();
                block_sum += rt;
                let outcome = outcome.and_then(|(src, cfg, ms)| {
                    let allowed: &[&str] = if *collide {
                        &["cold", "deduped"]
                    } else {
                        &["cold"]
                    };
                    expect_source(line, &src, allowed)?;
                    if src == "cold" {
                        block_cold.push(rt * 1e3);
                        if let Some(s) = in_process_s {
                            run.cold_overhead_ms.push((rt - s) * 1e3);
                        }
                    }
                    if *collide {
                        sources.push((idx, src));
                    }
                    reference.check_wire(line, &cfg, ms)
                });
                tally.record(outcome);
            }
            run.block_wall_s.push(now.elapsed().as_secs_f64());
            run.block_s[usize::from(traced)].push(block_sum);
            if !traced {
                run.block_cold_p50_ms.extend(median(&block_cold));
            }
        }
        stop.store(true, Ordering::Release);
        let (warm_us, b_sources, b_tally) = b_thread.join().expect("client B panicked");
        for (all, new) in run.warm_us.iter_mut().zip(warm_us) {
            all.extend(new);
        }
        tally.merge(b_tally);
        sources.extend(b_sources);
        (open, sources)
    });

    // A colliding pair must have run exactly one search between them.
    sources_by_pair(&sources, run, tally);

    let after = counters();
    for (i, n) in run.requests.iter_mut().enumerate() {
        *n += after[i] - before[i];
    }
    run.pool_rejected += after[3] - before[3];
    run.executor_reuses += after[4] - before[4];
    (run.parse_us, run.lookup_us) = direct_costs(daemon);
    open
}

fn sources_by_pair(sources: &[(usize, String)], run: &mut ServeRun, tally: &mut Tally) {
    let mut by_idx: std::collections::BTreeMap<usize, Vec<&str>> = Default::default();
    for (idx, src) in sources {
        by_idx.entry(*idx).or_default().push(src);
    }
    for (idx, srcs) in by_idx {
        if srcs.len() != 2 {
            // The connection that lost its half already counted a failure.
            continue;
        }
        run.collisions += 1;
        let cold = srcs.iter().filter(|s| **s == "cold").count();
        if srcs.contains(&"deduped") {
            run.collisions_deduped += 1;
        }
        tally.record(if cold == 1 {
            Ok(())
        } else {
            Err(format!(
                "collision {idx}: sources {srcs:?} ran {cold} searches"
            ))
        });
    }
}

/// Mean cost of the two in-process steps of a warm hit: parsing the request
/// line and probing the warm cache.
fn direct_costs(daemon: &Daemon) -> (f64, f64) {
    const REPS: usize = 20_000;
    let t0 = Instant::now();
    for i in 0..REPS {
        std::hint::black_box(parse_command(std::hint::black_box(PRIMED[i % PRIMED.len()])).ok());
    }
    let parse_us = t0.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    let reqs: Vec<_> = PRIMED
        .iter()
        .map(|l| search::request(l).expect("primed lines parse"))
        .collect();
    let service = daemon.handle.service();
    let t0 = Instant::now();
    for i in 0..REPS {
        std::hint::black_box(service.try_warm(std::hint::black_box(&reqs[i % reqs.len()])));
    }
    let lookup_us = t0.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    (parse_us, lookup_us)
}

impl ServeRun {
    pub fn all_warm_us(&self) -> Vec<f64> {
        self.warm_us.concat()
    }

    pub fn warm_p50_us(&self) -> f64 {
        percentile(&self.all_warm_us(), 50.0).unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_latin_square_over_all_keys() {
        let blocks = schedule(42);
        assert_eq!(blocks.len(), 12);
        let mut seen = std::collections::BTreeSet::new();
        for block in &blocks {
            assert_eq!(block.len(), 15);
            for (line, _) in block {
                assert!(seen.insert(line.clone()), "{line} repeats");
            }
            let clusters: std::collections::BTreeSet<&str> = block
                .iter()
                .map(|(line, _)| line.split("cluster=").nth(1).expect("cluster key"))
                .collect();
            assert_eq!(
                clusters.len(),
                CLUSTERS.len(),
                "each block asks every cluster"
            );
            let collisions = block.iter().filter(|(_, c)| *c).count();
            assert_eq!(collisions, COLLISIONS_PER_BLOCK);
        }
        assert_eq!(seen.len(), 180);
        for primed in PRIMED {
            assert!(!seen.contains(primed));
        }
        assert_eq!(schedule(42), blocks);
        assert_ne!(schedule(43), blocks);
    }
}

//! tunebench: times the three tuning waits a user of this repository has —
//! a cold `reproduce --tune`, a cold daemon miss and a warm daemon hit — end
//! to end, and in a separate traced run splits them by layer.
//!
//! ```text
//! cargo run --release --manifest-path tunebench/Cargo.toml -- \
//!     --workload tune-cold|tune-routed|serve --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path tunebench/Cargo.toml -- --write-reference
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`). Every search winner and every daemon
//! reply is checked against `reference.tsv`; any mismatch, error reply or
//! lost connection counts as a failed operation and makes the exit code 1.
//! See `NOTES.md` for the workloads and what each metric should move.

mod search;
mod serve;
mod stats;
mod tune;

use std::time::{Duration, Instant};

use tilelink_sim::{analytic_cost, ClusterSpec};

use crate::search::{ratio, LayerTotals, LAYER_SPANS};
use crate::serve::ServeRun;
use crate::stats::{geomean, median, percentile, Reference};

const REFERENCE: &str = include_str!("../reference.tsv");

/// Allowed gap between the layers' named time and the thread-summed wall.
/// The routed MoE oracle spends about 14% outside any program span (see
/// `NOTES.md`), so this is wider than the 10% the other workloads meet.
const COVERAGE_SLACK: f64 = 0.15;

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(20);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--write-reference") {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["tune-cold", "tune-routed", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (tune-cold, tune-routed or serve)"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return write_reference(),
        Err(e) => {
            eprintln!("tunebench: {e}");
            std::process::exit(2);
        }
    };
    let reference = match Reference::parse(REFERENCE) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tunebench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let mut out = Output::default();
    let runs = match args.workload.as_str() {
        "serve" => run_serve(&args, &reference, process_start, &mut tally, &mut out),
        name => run_tune(name, &args, &reference, process_start, &mut tally, &mut out),
    };
    if let Err(e) = runs {
        eprintln!("tunebench: {e}");
        std::process::exit(1);
    }
    out.finish(&args, &mut tally);
}

/// Metrics and report lines of one run.
#[derive(Default)]
struct Output {
    metrics: Vec<(&'static str, f64, &'static str)>,
    runs: String,
}

impl Output {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn finish(self, args: &Args, tally: &mut Tally) {
        let cost_revision = analytic_cost(&ClusterSpec::h800_node(8)).revision();
        println!(
            "meta: workload={} nproc={} seed={} seconds={} trace={} runs={} cost_revision={} commit={}",
            args.workload,
            nproc(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            self.runs,
            cost_revision,
            commit()
        );
        let mut json = Vec::new();
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<32} {value:>14.6} {unit}");
            let value = if value.is_finite() {
                *value
            } else {
                tally.record(Err(format!("metric {name} is not finite")));
                0.0
            };
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for e in &tally.errors {
            println!("FAILED: {e}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            json.join(", ")
        );
        if tally.failed != 0 {
            std::process::exit(1);
        }
    }
}

fn run_tune(
    name: &str,
    args: &Args,
    reference: &Reference,
    process_start: Instant,
    tally: &mut Tally,
    out: &mut Output,
) -> Result<(), String> {
    let lines = if name == "tune-cold" {
        tune::cold_lines()
    } else {
        tune::routed_lines()
    };
    let run = tune::measure(
        &lines,
        reference,
        args.seed,
        args.seconds,
        args.trace,
        process_start,
        tally,
    )?;
    out.runs = format!(
        "{}x{}-search-passes",
        run.sweep_s[0].len() + run.sweep_s[1].len(),
        lines.len()
    );
    for (kind, label) in ["untraced", "traced"].iter().enumerate() {
        println!(
            "{label} passes: sweep_s {:.4?} cold_ms.p50 {:.2?} warm_us.p50 {:.0?}",
            run.sweep_s[kind], run.cold_ms[kind], run.warm_us[kind]
        );
    }
    let geo = geomean(&run.winners_ms).unwrap_or(f64::NAN);
    println!("tuned_sim_ms.geomean {geo:.6} ms over {} winners (simulated, deterministic; checked bit-exact against reference.tsv)", run.winners_ms.len());
    if !args.trace {
        out.put("setup_s", med(&run.setup_s), "s");
        out.put("sweep_s", med(&run.sweep_s[0]), "s");
        out.put("cold_ms.p50", med(&run.cold_ms[0]), "ms");
        out.put("warm_us.p50", med(&run.warm_us[0]), "us");
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(());
    }
    let sweep_overhead = med(&run.sweep_s[1]) - med(&run.sweep_s[0]);
    let warm_overhead = med(&run.warm_us[1]) - med(&run.warm_us[0]);
    // The serve layers are idle in this workload; a one-block traced probe of
    // the daemon still measures them, so every per-layer metric is present.
    let mut daemon = serve::set_up(reference, tally)?;
    let mut serve_run = ServeRun::default();
    let now = Instant::now();
    let window = serve::Window {
        deadline: now,
        traced_from: Some(now),
    };
    serve::measure(
        &mut daemon,
        reference,
        args.seed,
        window,
        &mut serve_run,
        tally,
    );
    drop_daemon(daemon);
    layer_report(
        &run.layers,
        &serve_run,
        sweep_overhead,
        warm_overhead,
        tally,
        out,
    );
    Ok(())
}

fn run_serve(
    args: &Args,
    reference: &Reference,
    process_start: Instant,
    tally: &mut Tally,
    out: &mut Output,
) -> Result<(), String> {
    let window = serve::Window {
        deadline: process_start + Duration::from_secs_f64(args.seconds),
        traced_from: args
            .trace
            .then(|| process_start + Duration::from_secs_f64(args.seconds / 2.0)),
    };
    let mut run = ServeRun::default();
    let mut setups = Vec::new();
    // Each round gets a fresh daemon, so every key A sends is unseen and the
    // set-up is timed several times across the run.
    for round in 0u64.. {
        let t0 = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut daemon = serve::set_up(reference, tally)?;
        setups.push(t0.elapsed().as_secs_f64());
        let seed = args.seed.wrapping_add(round.wrapping_mul(0x9e37_79b9));
        let open = serve::measure(&mut daemon, reference, seed, window, &mut run, tally);
        drop_daemon(daemon);
        if !open {
            break;
        }
    }
    println!(
        "block sweep_s: {:.4?} traced {:.4?}",
        run.block_s[0], run.block_s[1]
    );
    out.runs = format!(
        "{}x15-cold-blocks+{}-warm",
        run.block_s[0].len() + run.block_s[1].len(),
        run.warm_us[0].len() + run.warm_us[1].len()
    );
    if !args.trace {
        out.put("setup_s", med(&setups), "s");
        out.put("sweep_s", med(&run.block_s[0]), "s");
        out.put("cold_ms.p50", med(&run.block_cold_p50_ms), "ms");
        out.put("warm_us.p50", run.warm_p50_us(), "us");
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(());
    }
    let sweep_overhead = med(&run.block_s[1]) - med(&run.block_s[0]);
    let warm_overhead = p50(&run.warm_us[1]) - p50(&run.warm_us[0]);
    layer_report(&run.layers, &run, sweep_overhead, warm_overhead, tally, out);
    Ok(())
}

fn drop_daemon(daemon: serve::Daemon) {
    let serve::Daemon { handle, a, b } = daemon;
    drop((a, b));
    handle.shutdown();
}

/// Nearest-rank median; NaN (reported as a failure) when empty.
fn p50(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(f64::NAN)
}

/// Median; NaN (reported as a failure) when empty.
fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

/// Per-layer metrics, each layer's share of the thread-summed search wall,
/// the coverage check and the tracing overhead.
fn layer_report(
    layers: &LayerTotals,
    serve_run: &ServeRun,
    sweep_overhead_s: f64,
    warm_overhead_us: f64,
    tally: &mut Tally,
    out: &mut Output,
) {
    let per_search = |ns: u64| ratio(ns as f64, layers.searches as f64) / 1e6;
    let count = |n: u64| ratio(n as f64, layers.searches as f64);
    out.put("tune.search_ms", per_search(layers.wall_ns), "ms");
    out.put("tune.self_ms", per_search(layers.self_ns), "ms");
    out.put("tune.disposed", count(layers.disposed), "count");
    out.put("tune.evaluations", count(layers.evaluations), "count");
    out.put(
        "tune.bound_pruned_frac",
        ratio(
            layers.bound_pruned as f64,
            (layers.bound_pruned + layers.evaluations) as f64,
        ),
        "ratio",
    );
    out.put(
        "workloads.lower_bound.calls",
        count(layers.bound_calls),
        "count",
    );
    out.put(
        "workloads.lower_bound_us",
        ratio(layers.bound_ns as f64, layers.bound_calls as f64) / 1e3,
        "us",
    );
    out.put(
        "workloads.evaluate.calls",
        count(layers.eval_calls),
        "count",
    );
    out.put(
        "workloads.evaluate_ms",
        ratio(layers.eval_ns as f64, layers.eval_calls as f64) / 1e6,
        "ms",
    );
    out.put(
        "workloads.evaluate.abort_frac",
        ratio(layers.eval_aborts as f64, layers.eval_calls as f64),
        "ratio",
    );
    out.put(
        "tilelink.compile.build_ms",
        per_search(layers.span_ns[0]),
        "ms",
    );
    out.put(
        "tilelink.compile.lower_ms",
        per_search(layers.span_ns[1]),
        "ms",
    );
    out.put(
        "tilelink.compile.plan_ms",
        per_search(layers.span_ns[2]),
        "ms",
    );
    out.put(
        "tilelink.compile.patch_frac",
        ratio(
            layers.patched as f64,
            (layers.patched + layers.rebuilds) as f64,
        ),
        "ratio",
    );
    out.put("tilelink.graph_ms", per_search(layers.span_ns[3]), "ms");
    out.put("sim.simulate_ms", per_search(layers.span_ns[4]), "ms");
    out.put("sim.runs", count(layers.sim_runs), "count");
    out.put(
        "sim.bounded_abort_frac",
        ratio(layers.sim_aborts as f64, layers.sim_runs as f64),
        "ratio",
    );

    let warm = serve_run.all_warm_us();
    out.put("serve.parse_us", serve_run.parse_us, "us");
    out.put("serve.lookup_us", serve_run.lookup_us, "us");
    out.put(
        "serve.socket_us",
        serve_run.warm_p50_us() - serve_run.parse_us - serve_run.lookup_us,
        "us",
    );
    out.put(
        "serve.warm_us.p99",
        percentile(&warm, 99.0).unwrap_or(f64::NAN),
        "us",
    );
    out.put(
        "serve.cold_overhead_ms",
        med(&serve_run.cold_overhead_ms),
        "ms",
    );
    let [warm_n, cold_n, deduped_n] = serve_run.requests;
    out.put("serve.requests.warm", warm_n as f64, "count");
    out.put("serve.requests.cold", cold_n as f64, "count");
    out.put("serve.requests.deduped", deduped_n as f64, "count");
    out.put(
        "serve.pool.rejected",
        serve_run.pool_rejected as f64,
        "count",
    );
    out.put(
        "tune.executor.reuses",
        serve_run.executor_reuses as f64,
        "count",
    );
    out.put(
        "serve.dedup_exact_frac",
        ratio(
            serve_run.collisions_deduped as f64,
            serve_run.collisions as f64,
        ),
        "ratio",
    );
    let coverage = layers.coverage();
    out.put("trace.coverage", coverage, "ratio");

    let total = layers.thread_wall_ns() as f64;
    println!(
        "layer shares of the search wall summed over evaluator threads ({} searches, {:.1} ms):",
        layers.searches,
        total / 1e6
    );
    let mut shares = vec![
        ("tune.self", layers.self_ns),
        ("workloads.lower_bound", layers.bound_ns),
    ];
    shares.extend(LAYER_SPANS.iter().copied().zip(layers.span_ns));
    shares.push(("workloads.evaluate (no span)", layers.eval_other_ns()));
    for (name, ns) in shares {
        println!(
            "  share {name:<30} {:>6.1}%  {:>10.3} ms",
            ratio(ns as f64, total) * 100.0,
            ns as f64 / 1e6
        );
    }
    let covered = (coverage - 1.0).abs() <= COVERAGE_SLACK;
    println!(
        "coverage: named layers {:.1}% of the thread-summed wall (slack {:.0}%): {}",
        coverage * 100.0,
        COVERAGE_SLACK * 100.0,
        if covered { "OK" } else { "FAILED" }
    );
    tally.record(if covered {
        Ok(())
    } else {
        Err(format!(
            "layer coverage {coverage:.3} outside 1 ± {COVERAGE_SLACK}"
        ))
    });
    println!(
        "tracing overhead: sweep_s {sweep_overhead_s:+.4} s, warm_us.p50 {warm_overhead_us:+.2} us (traced minus untraced, same process)"
    );
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let resolved = resolved.trim();
    if resolved.is_empty() {
        "unknown".to_string()
    } else {
        resolved.chars().take(12).collect()
    }
}

/// Recomputes `reference.tsv` from in-process searches.
fn write_reference() {
    let mut reference = Reference::default();
    let lines: Vec<String> = tune::cold_lines()
        .into_iter()
        .chain(tune::routed_lines())
        .chain(serve::all_lines())
        .collect();
    for line in &lines {
        let req = search::request(line).expect("reference lines parse");
        let oracle = search::oracle_for(&req);
        let space = tilelink_tune::SearchSpace::standard();
        let (report, wall) = search::run_search(&search::tuner(), &*oracle, &space, None)
            .unwrap_or_else(|e| panic!("{line}: {e}"));
        let winner = search::winner(&report);
        eprintln!(
            "{line}: {} {} ms ({:.0} ms)",
            winner.config,
            winner.wire_ms(),
            wall * 1e3
        );
        reference.insert(line, winner);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.tsv");
    std::fs::write(path, reference.render()).expect("write reference.tsv");
    eprintln!("wrote {} winners to {path}", lines.len());
}

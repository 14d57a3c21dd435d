//! The two in-process tune workloads: `tune-cold` (the `reproduce --tune`
//! job) and `tune-routed` (MoE tail tunes over sampled routings).

use std::time::Instant;

use tilelink_tune::{CostOracle, SearchSpace};

use crate::search::{self, LayerTotals};
use crate::stats::{median, Reference, Rng};
use crate::Tally;

/// Warm reruns per search; `warm_us.p50` takes the fastest.
const WARM_RERUNS: usize = 3;

/// MLP-1..6 and MoE-1..6 on 8×H800 with expected routing.
pub fn cold_lines() -> Vec<String> {
    (1..=6)
        .map(|i| format!("TUNE workload=MLP-{i}"))
        .chain((1..=6).map(|i| format!("TUNE workload=MoE-{i}")))
        .collect()
}

/// MoE-1..6 tuned for p95 over 8 sampled `zipf:1.2` routings.
pub fn routed_lines() -> Vec<String> {
    (1..=6)
        .map(|i| format!("TUNE workload=MoE-{i} routing=zipf:1.2 objective=p95"))
        .collect()
}

/// Everything a pass needs, built before the first measured search.
pub struct Prepared {
    oracles: Vec<Box<dyn CostOracle>>,
    space: SearchSpace,
}

/// Builds the oracles and the space, then runs the pass's first search once
/// through the public `tuned_full_*` constructor (which also starts the
/// shared evaluator pool) and checks it against the reference.
pub fn set_up(
    lines: &[String],
    reference: &Reference,
    tally: &mut Tally,
) -> Result<Prepared, String> {
    tilelink::reset_compile_cache();
    let reqs = lines
        .iter()
        .map(|l| search::request(l))
        .collect::<Result<Vec<_>, _>>()?;
    let oracles = reqs.iter().map(search::oracle_for).collect();
    let space = SearchSpace::standard();
    let outcome = search::tuned_full(&reqs[0])
        .and_then(|report| reference.check_exact(&lines[0], &search::winner(&report)));
    tally.record(outcome);
    Ok(Prepared { oracles, space })
}

/// What the measured passes produced; index 1 holds traced passes.
#[derive(Debug, Default)]
pub struct TuneRun {
    /// Wall of each set-up, s; the first counts from process start.
    pub setup_s: Vec<f64>,
    /// Sum of the cold-search walls of each pass, s.
    pub sweep_s: [Vec<f64>; 2],
    /// Median cold-search wall of each pass, ms.
    pub cold_ms: [Vec<f64>; 2],
    /// Median over each pass's searches of the best warm rerun, µs.
    pub warm_us: [Vec<f64>; 2],
    /// Traced passes, split by layer.
    pub layers: LayerTotals,
    /// Simulated objective of every winner of the first pass, ms.
    pub winners_ms: Vec<f64>,
}

/// Runs passes over `lines` in a seeded order until `seconds` have passed.
/// Every pass is set up afresh (timed, and spread over the run so that
/// `setup_s` sees the same machine as the passes), then empties the compile
/// cache; each search gets a fresh in-memory tune cache and is then rerun
/// warm [`WARM_RERUNS`] times. With `traced`, every other pass wraps the
/// oracle and turns spans on.
pub fn measure(
    lines: &[String],
    reference: &Reference,
    seed: u64,
    seconds: f64,
    traced: bool,
    process_start: Instant,
    tally: &mut Tally,
) -> Result<TuneRun, String> {
    let mut rng = Rng::new(seed);
    let mut run = TuneRun::default();
    let mut pass_walls: Vec<f64> = Vec::new();
    for pass in 0usize.. {
        let set_up_start = if pass == 0 {
            process_start
        } else {
            Instant::now()
        };
        let elapsed = (set_up_start - process_start).as_secs_f64();
        let typical = median(&pass_walls).unwrap_or(0.0);
        // Always measure two passes, so a traced run has one of each kind.
        if pass >= 2 && elapsed + typical > seconds {
            break;
        }
        let prep = set_up(lines, reference, tally)?;
        run.setup_s.push(set_up_start.elapsed().as_secs_f64());
        let kind = usize::from(traced && pass % 2 == 1);
        let mut order: Vec<usize> = (0..lines.len()).collect();
        rng.shuffle(&mut order);
        tilelink::reset_compile_cache();
        tilelink_probe::set_enabled(kind == 1);
        let mut sweep = 0.0;
        let (mut cold_ms, mut warm_us) = (Vec::new(), Vec::new());
        for &i in &order {
            let line = &lines[i];
            let tuner = search::tuner();
            let layers = (kind == 1).then_some(&mut run.layers);
            let cold = search::run_search(&tuner, &*prep.oracles[i], &prep.space, layers);
            let outcome = cold.and_then(|(report, wall)| {
                sweep += wall;
                cold_ms.push(wall * 1e3);
                if pass == 0 {
                    run.winners_ms.push(report.best_ms());
                }
                reference.check_exact(line, &search::winner(&report))
            });
            tally.record(outcome);
            // Best of three identical warm reruns: a rerun is a few ms of
            // short evaluator batches, so one late thread wake-up would
            // otherwise dominate it.
            let mut best = f64::INFINITY;
            for _ in 0..WARM_RERUNS {
                let warm = search::run_search(&tuner, &*prep.oracles[i], &prep.space, None);
                let outcome = warm.and_then(|(report, wall)| {
                    if report.evaluations != 0 {
                        return Err(format!(
                            "{line}: warm rerun ran {} evaluations",
                            report.evaluations
                        ));
                    }
                    best = best.min(wall);
                    reference.check_exact(line, &search::winner(&report))
                });
                tally.record(outcome);
            }
            if best.is_finite() {
                warm_us.push(best * 1e6);
            }
        }
        tilelink_probe::set_enabled(false);
        drop(tilelink_probe::take_spans());
        run.sweep_s[kind].push(sweep);
        run.cold_ms[kind].extend(median(&cold_ms));
        run.warm_us[kind].extend(median(&warm_us));
        pass_walls.push(set_up_start.elapsed().as_secs_f64());
    }
    Ok(run)
}

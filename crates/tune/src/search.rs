//! Search strategies and the multi-threaded tuner driver.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tilelink::{OverlapConfig, OverlapReport, TileLinkError};
use tilelink_probe::metrics::{
    EXEC_MEMO_HITS, EXEC_MEMO_MISSES, SIM_MAKESPAN_RUNS, TUNE_CACHE_HITS, TUNE_CACHE_MISSES,
    TUNE_CACHE_REVISION_INVALIDATIONS, TUNE_CANDIDATES_CACHED, TUNE_CANDIDATES_FAILED_SIM,
    TUNE_CANDIDATES_PRUNED_BOUND, TUNE_CANDIDATES_PRUNED_CONSTRAINT,
    TUNE_CANDIDATES_PRUNED_VALIDATE, TUNE_CANDIDATES_SIMULATED, TUNE_COMPILE_FULL_REBUILDS,
    TUNE_COMPILE_PATCHED, TUNE_SPACE_SIZE,
};

use crate::executor::SearchExecutor;
use crate::oracle::BoundedEval;
use crate::space::{Rejected, SearchSpace};
use crate::{CostOracle, Result, TuneCache, TuneError};

/// Candidates per branch-and-bound chunk: the incumbent cutoff is refreshed
/// between chunks (in the single-threaded merge) and frozen within one, so
/// the prune/abort decisions are a pure function of candidate order —
/// independent of thread count or scheduling. 32 keeps every worker of the
/// largest pool (16 threads) busy while still tightening the cutoff at a
/// useful cadence on big exhaustive batches.
const PRUNE_CHUNK: usize = 32;

/// Chunk width used while the incumbent is still infinite (nothing ranked or
/// cached yet): just enough parallelism to price a handful of candidates and
/// put a real cutoff in place before the wide chunks stream through. See
/// [`Run::evaluate`].
const PRUNE_SEED_CHUNK: usize = 4;

/// How the tuner explores the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Evaluate every valid candidate of the space (grid search).
    Exhaustive,
    /// Coordinate-descent beam search: sweep one axis at a time, keeping the
    /// `width` best configurations, for at most `sweeps` rounds (stopping
    /// early when a full sweep yields no improvement). Visits a tiny fraction
    /// of large spaces and, because the seed configurations stay in the pool,
    /// never returns a result worse than the best seed.
    Beam {
        /// Number of configurations kept between axis sweeps.
        width: usize,
        /// Maximum number of full passes over the axes.
        sweeps: usize,
    },
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy::Beam {
            width: 4,
            sweeps: 3,
        }
    }
}

/// The winning configuration of a search, with its exact report.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The configuration.
    pub config: OverlapConfig,
    /// Its full simulated timing ([`CostOracle::evaluate`]), including the
    /// communication-only and computation-only times.
    pub report: OverlapReport,
    /// Whether the report came from the persistent cache (no oracle call).
    pub from_cache: bool,
}

/// One configuration a search ranked, by its objective value alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ranked {
    /// The configuration.
    pub config: OverlapConfig,
    /// Its objective value ([`CostOracle::evaluate_bounded`], finished), in
    /// seconds.
    pub total_s: f64,
    /// Whether the value came from the persistent cache (no oracle call).
    pub from_cache: bool,
}

/// Why candidates dropped out of a tuning run, by pruning stage.
///
/// The four counters partition the distinct configurations a search judged
/// but never ranked, under both strategies (a search judges each
/// configuration at most once): `validate_rejected` and `constraint_pruned`
/// never reached the oracle (free, counted at admission — see
/// [`SearchSpace::candidates`]), `bound_pruned` candidates were disposed of
/// by branch-and-bound (an admissible lower bound at or above the
/// incumbent, or a bounded simulation that aborted past it), and
/// `simulation_error` candidates cost a full compile or simulation attempt
/// before failing (or panicked in the oracle).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FailedBreakdown {
    /// Rejected by [`OverlapConfig::validate`] (impossible on the GPU).
    pub validate_rejected: usize,
    /// Rejected by a cross-axis space constraint or the oracle's
    /// [`CostOracle::is_supported`] predicate.
    pub constraint_pruned: usize,
    /// Disposed of by branch-and-bound: skipped outright because the
    /// admissible lower bound reached the incumbent, or abort-shortened by
    /// the incumbent-bounded simulation. These candidates provably cannot
    /// win, so dropping them never changes the ranking's top.
    pub bound_pruned: usize,
    /// Reached the oracle but errored while compiling or simulating.
    pub simulation_error: usize,
}

impl FailedBreakdown {
    /// Total candidates lost across all four stages.
    pub fn total(&self) -> usize {
        self.validate_rejected + self.constraint_pruned + self.bound_pruned + self.simulation_error
    }
}

impl std::fmt::Display for FailedBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} validate-rejected, {} constraint-pruned, {} bound-pruned, {} simulation errors",
            self.validate_rejected,
            self.constraint_pruned,
            self.bound_pruned,
            self.simulation_error
        )
    }
}

/// Progress of one beam-search round (one full pass over the axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundProgress {
    /// Round number, starting at 1 (round 0 is the seed evaluation).
    pub round: usize,
    /// Best simulated makespan after the round, in seconds.
    pub best_total_s: f64,
    /// Cumulative oracle evaluations after the round.
    pub evaluations: usize,
    /// Cumulative cache hits after the round.
    pub cache_hits: usize,
}

/// The outcome of one tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// The best configuration found, with its exact report: priced once per
    /// search by [`CostOracle::evaluate`] (or served from the cache), so its
    /// `total_s` is `ranked[0].total_s` and its comm/compute split is the
    /// only one the search computes.
    pub best: Candidate,
    /// Every ranked candidate with its objective value, fastest first (ties
    /// broken by first evaluation order, so reports are deterministic).
    pub ranked: Vec<Ranked>,
    /// Ranked oracle pricings: candidates the oracle priced within the
    /// cutoff (aborted ones count in [`TuneReport::bounded_aborts`], and the
    /// winner's exact pricing is not counted). An evaluation is not a
    /// simulation: a layer oracle simulates two or more half kernels per
    /// evaluation, or none when its memo already priced them.
    pub evaluations: usize,
    /// Lookups served by the cache instead of the oracle.
    pub cache_hits: usize,
    /// Candidates lost per pruning stage (never ranked).
    pub failed: FailedBreakdown,
    /// How many of [`FailedBreakdown::bound_pruned`] were abort-shortened
    /// simulations ([`crate::BoundedEval::Exceeded`]) rather than skipped
    /// outright on their lower bound; see [`TuneReport::pruned_bound`] for
    /// the complementary count.
    pub bounded_aborts: usize,
    /// Per-round progress of a beam search (empty for [`Strategy::Exhaustive`]).
    pub rounds: Vec<RoundProgress>,
    /// Candidate compiles served by patching a cached lowered program during
    /// this run (delta of `tune.compile.patched`; includes any concurrent
    /// tuning on other threads of this process).
    pub compile_patched: u64,
    /// Candidate compiles that rebuilt the program from the frontend during
    /// this run (delta of `tune.compile.full_rebuilds`).
    pub compile_full_rebuilds: u64,
}

impl TuneReport {
    /// Best simulated makespan, in milliseconds.
    pub fn best_ms(&self) -> f64 {
        self.best.report.total_ms()
    }

    /// Candidates skipped without compiling or simulating because their
    /// admissible lower bound already met the incumbent (the remainder of
    /// [`FailedBreakdown::bound_pruned`] after [`TuneReport::bounded_aborts`]).
    pub fn pruned_bound(&self) -> usize {
        self.failed.bound_pruned - self.bounded_aborts
    }

    /// Fraction of candidate compiles served by the incremental patch path
    /// rather than a full frontend rebuild (0.0 when nothing compiled).
    pub fn compile_patch_rate(&self) -> f64 {
        let total = self.compile_patched + self.compile_full_rebuilds;
        if total == 0 {
            0.0
        } else {
            self.compile_patched as f64 / total as f64
        }
    }

    /// A short human-readable table of the `n` best candidates, after the
    /// winner's full report (the only one with an overlap ratio).
    pub fn summary(&self, n: usize) -> String {
        let mut out = format!(
            "{} candidates ranked ({} evaluations, {} cached; {})\n",
            self.ranked.len(),
            self.evaluations,
            self.cache_hits,
            self.failed
        );
        out.push_str(&format!(
            "compiles: {} patched, {} full rebuilds ({:.0}% patch rate)\n",
            self.compile_patched,
            self.compile_full_rebuilds,
            self.compile_patch_rate() * 100.0
        ));
        out.push_str(&format!("winner: {}\n", self.best.report));
        for (i, c) in self.ranked.iter().take(n).enumerate() {
            out.push_str(&format!(
                "  #{:<2} {:>9.4} ms  {}\n",
                i + 1,
                c.total_s * 1e3,
                c.config.cache_key()
            ));
        }
        out
    }
}

/// Drives a [`Strategy`] over a [`SearchSpace`] against a [`CostOracle`].
///
/// Both strategies run on one private per-search state that judges each
/// configuration at most once: it is admitted or rejected (see
/// [`SearchSpace::candidates`]), then ranked, disposed of by
/// branch-and-bound, or failed in the oracle, and never priced again.
/// Candidate evaluations run concurrently on the process-wide
/// [`SearchExecutor::global`], or on the pool given to
/// [`Tuner::with_executor`] (the simulator is pure, so evaluations are
/// independent). Results are merged in candidate order, so the search is
/// deterministic regardless of thread count, scheduling or the other
/// searches sharing the pool.
#[derive(Debug)]
pub struct Tuner {
    strategy: Strategy,
    verbose: bool,
    cache: Mutex<TuneCache>,
    executor: Arc<SearchExecutor>,
    pruning: bool,
}

/// The branch-and-bound incumbent: the `width` best objective values ranked
/// so far, publishing the `width`-th best as the shared prune/abort cutoff.
///
/// Exhaustive search prunes against the single best (`width == 1`); beam
/// search must keep its top-`width` frontier bit-identical to the unbounded
/// run, so it prunes against the `width`-th best instead — a candidate at or
/// above that value is provably outranked by `width` earlier candidates and
/// can never enter the beam (ties lose to the earlier candidate under the
/// stable ranking sort), let alone win.
///
/// Only the single-threaded merge pass mutates the incumbent; worker threads
/// share the cutoff read-only through `bits` (an `f64`-bits `AtomicU64`).
/// Combined with the fixed [`PRUNE_CHUNK`] cadence this keeps every prune and
/// abort decision deterministic regardless of thread count.
struct Incumbent {
    /// Cutoff as `f64` bits, read by the executor's workers.
    bits: Arc<AtomicU64>,
    /// Ascending best objective values, at most `width` of them.
    tops: Vec<f64>,
    width: usize,
    enabled: bool,
}

impl Incumbent {
    fn new(width: usize, enabled: bool) -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(f64::INFINITY.to_bits())),
            tops: Vec::with_capacity(width),
            width: width.max(1),
            enabled,
        }
    }

    /// The current prune/abort cutoff (`f64::INFINITY` until `width`
    /// candidates have been observed, or always when pruning is disabled).
    fn cutoff(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Folds one ranked candidate's objective value into the incumbent. Must
    /// be called exactly once per ranked candidate (cache hits included).
    fn observe(&mut self, total: f64) {
        if !self.enabled || !total.is_finite() {
            return;
        }
        if self.tops.len() < self.width || total < self.tops[self.width - 1] {
            let idx = self.tops.partition_point(|&t| t <= total);
            self.tops.insert(idx, total);
            self.tops.truncate(self.width);
            if self.tops.len() == self.width {
                self.bits
                    .store(self.tops[self.width - 1].to_bits(), Ordering::Relaxed);
            }
        }
    }
}

impl Tuner {
    /// Creates a tuner with an in-memory cache that evaluates on
    /// [`SearchExecutor::global`] unless pinned to another pool with
    /// [`Tuner::with_executor`].
    pub fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            verbose: false,
            cache: Mutex::new(TuneCache::in_memory()),
            executor: SearchExecutor::global(),
            pruning: true,
        }
    }

    /// Enables or disables branch-and-bound pruning (on by default).
    ///
    /// Pruning is admissible — winners are bit-identical either way — so the
    /// switch exists for A/B measurement and for the admissibility test
    /// suite, not correctness.
    pub fn with_pruning(mut self, pruning: bool) -> Self {
        self.pruning = pruning;
        self
    }

    /// Evaluates candidates on `executor` instead of
    /// [`SearchExecutor::global`]. The executor's thread count governs
    /// parallelism; results are bit-identical on any pool (slot per
    /// candidate, merged in candidate order).
    pub fn with_executor(mut self, executor: Arc<SearchExecutor>) -> Self {
        self.executor = executor;
        self
    }

    /// Prints per-beam-round progress (round, best-so-far, evaluations) to
    /// stderr while the search runs, then one line on what pricing the
    /// winner cost: its wall time, the simulations it ran and its memo hits.
    /// Off by default; the round numbers are always available afterwards in
    /// [`TuneReport::rounds`].
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Replaces the cache (use [`TuneCache::open`] for a persistent one).
    pub fn with_cache(mut self, cache: TuneCache) -> Self {
        self.cache = Mutex::new(cache);
        self
    }

    /// Runs the search and returns the ranked outcome.
    ///
    /// Set-up (start the search on the tuner's executor —
    /// [`SearchExecutor::global`] unless pinned — and scope the cache), then
    /// the strategy's front, whose batches evaluate on that executor, then
    /// the finish: the winner is priced exactly once (or served from the
    /// cache), the cache is flushed and the report assembled. Each
    /// configuration is judged at most once per search, so every
    /// [`FailedBreakdown`] stage counts distinct configurations. Concurrent
    /// calls share the executor's workers: their batches queue FIFO on it.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::EmptySpace`] if admission leaves no candidate,
    /// [`TuneError::AllCandidatesFailed`] if every candidate errors in the
    /// oracle, and [`TuneError::CacheIo`] if the persistent cache cannot be
    /// written.
    pub fn tune(&self, oracle: &dyn CostOracle, space: &SearchSpace) -> Result<TuneReport> {
        TUNE_SPACE_SIZE.set(space.len_unpruned() as i64);
        self.executor.start_search();
        let mut run = Run::new(self, oracle, space);
        match self.strategy {
            Strategy::Exhaustive => run.exhaustive()?,
            Strategy::Beam { width, sweeps } => run.beam(width.max(1), sweeps.max(1))?,
        }
        run.finish()
    }
}

/// What a search decided about one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Passed admission; not judged by cache, bound or oracle yet.
    Admitted,
    /// Failed admission (counted in its [`FailedBreakdown`] stage).
    Rejected,
    /// Ranked with its objective value.
    Ranked,
    /// Disposed of by branch-and-bound: skipped on its lower bound, or its
    /// bounded simulation aborted past the incumbent.
    Dominated,
    /// Errored (or panicked) in the oracle.
    Failed,
}

/// The state of one [`Tuner::tune`] call, shared by both strategy fronts.
struct Run<'a> {
    tuner: &'a Tuner,
    oracle: &'a dyn CostOracle,
    space: &'a SearchSpace,
    /// The memoized [`TuneCache::key_prefix`] of this run.
    prefix: String,
    incumbent: Incumbent,
    /// Ranked candidates in first-evaluation order.
    ranked: Vec<Ranked>,
    /// Every configuration judged so far.
    verdicts: HashMap<OverlapConfig, Verdict>,
    evaluations: usize,
    cache_hits: usize,
    failed: FailedBreakdown,
    bounded_aborts: usize,
    last_error: Option<TileLinkError>,
    rounds: Vec<RoundProgress>,
    patched_start: u64,
    rebuilds_start: u64,
    memo_hits_start: u64,
    memo_misses_start: u64,
}

impl<'a> Run<'a> {
    fn new(tuner: &'a Tuner, oracle: &'a dyn CostOracle, space: &'a SearchSpace) -> Self {
        // The workload / cluster / revision / objective parts of the cache
        // key are fixed for this whole run, and the oracle accessors allocate
        // a String per call: memoize the joined prefix once instead of
        // re-assembling it for every candidate probe.
        let prefix = TuneCache::oracle_prefix(oracle);
        // Entries for this workload and cluster recorded under another cost
        // revision miss this run (and stay for a run under their own model);
        // surface how many in the metrics registry.
        let stale = tuner
            .cache
            .lock()
            .expect("tune cache lock poisoned")
            .count_stale(oracle);
        TUNE_CACHE_REVISION_INVALIDATIONS.add(stale as u64);
        // Exhaustive search only needs the winner intact, so it prunes
        // against the global best; beam search keeps its `width`-wide
        // frontier bit-identical by pruning against the width-th best.
        let prune_width = match tuner.strategy {
            Strategy::Exhaustive => 1,
            Strategy::Beam { width, .. } => width,
        };
        Self {
            tuner,
            oracle,
            space,
            prefix,
            incumbent: Incumbent::new(prune_width, tuner.pruning),
            ranked: Vec::new(),
            verdicts: HashMap::new(),
            evaluations: 0,
            cache_hits: 0,
            failed: FailedBreakdown::default(),
            bounded_aborts: 0,
            last_error: None,
            rounds: Vec::new(),
            patched_start: TUNE_COMPILE_PATCHED.get(),
            rebuilds_start: TUNE_COMPILE_FULL_REBUILDS.get(),
            memo_hits_start: EXEC_MEMO_HITS.get(),
            memo_misses_start: EXEC_MEMO_MISSES.get(),
        }
    }

    /// Grid search: judge every admitted candidate of the space.
    fn exhaustive(&mut self) -> Result<()> {
        let candidates = self.candidates();
        if candidates.is_empty() {
            return Err(self.empty_space());
        }
        self.evaluate(&candidates);
        Ok(())
    }

    /// Coordinate-descent beam search (see [`Strategy::Beam`]).
    fn beam(&mut self, width: usize, sweeps: usize) -> Result<()> {
        // Seeds: the library default and the space's own first-corner
        // config. Keeping them in the pool guarantees the final result is
        // never worse than either seed.
        let mut seeds: Vec<OverlapConfig> = Vec::new();
        for seed in [OverlapConfig::default(), self.space.seed()] {
            if self.admit(&seed) && !seeds.contains(&seed) {
                seeds.push(seed);
            }
        }
        if seeds.is_empty() {
            // Neither seed is admitted for this workload: fall back to the
            // admitted enumeration for a starting pool.
            seeds = self.candidates();
            seeds.truncate(width);
        }
        if seeds.is_empty() {
            return Err(self.empty_space());
        }
        self.evaluate(&seeds);
        // Both seeds may pass admission yet fail in the oracle (e.g. a
        // compile error for an unsupported axis pair). Walk the admitted
        // enumeration in chunks until something ranks, so the beam has a
        // starting pool whenever Exhaustive would have found one.
        if self.ranked.is_empty() {
            for chunk in self.candidates().chunks(16) {
                self.evaluate(chunk);
                if !self.ranked.is_empty() {
                    break;
                }
            }
        }
        let space = self.space;
        let mut beam = self.top(width);
        let mut best = beam.first().map(|c| c.total_s);
        for round in 1..=sweeps {
            let _round_span = tilelink_probe::span("tune.beam_round");
            let mut improved = false;
            for axis in 0..SearchSpace::NUM_AXES {
                // The frontier: each admitted, not yet ranked axis variant of
                // the beam, once. Configs disposed of or failed earlier stay
                // in it, so chunk boundaries (and with them every incumbent
                // refresh) do not change, but they are never judged again.
                let mut frontier: Vec<OverlapConfig> = Vec::new();
                for base in &beam {
                    for cfg in space.axis_variants(axis, &base.config) {
                        if self.admit(&cfg)
                            && self.verdicts[&cfg] != Verdict::Ranked
                            && !frontier.contains(&cfg)
                        {
                            frontier.push(cfg);
                        }
                    }
                }
                self.evaluate(&frontier);
                beam = self.top(width);
                let new_best = beam.first().map(|c| c.total_s);
                if new_best < best || best.is_none() {
                    best = new_best;
                    improved = true;
                }
            }
            self.end_round(round, best.unwrap_or(f64::INFINITY));
            if !improved {
                break;
            }
        }
        Ok(())
    }

    /// Records one beam round's progress (and prints it when verbose).
    fn end_round(&mut self, round: usize, best_total_s: f64) {
        let progress = RoundProgress {
            round,
            best_total_s,
            evaluations: self.evaluations,
            cache_hits: self.cache_hits,
        };
        if self.tuner.verbose {
            let patched = TUNE_COMPILE_PATCHED
                .get()
                .saturating_sub(self.patched_start);
            let rebuilds = TUNE_COMPILE_FULL_REBUILDS
                .get()
                .saturating_sub(self.rebuilds_start);
            let compiles = (patched + rebuilds).max(1);
            eprintln!(
                "[tune] round {}: best {:.4} ms | {} evaluations, {} cache hits, {} failed, {} bound-pruned, {} aborted, {:.0}% patched compiles, {} memo hits, {} memo misses",
                progress.round,
                progress.best_total_s * 1e3,
                progress.evaluations,
                progress.cache_hits,
                self.failed.simulation_error,
                self.failed.bound_pruned - self.bounded_aborts,
                self.bounded_aborts,
                patched as f64 / compiles as f64 * 100.0,
                EXEC_MEMO_HITS.get().saturating_sub(self.memo_hits_start),
                EXEC_MEMO_MISSES.get().saturating_sub(self.memo_misses_start),
            );
        }
        self.rounds.push(progress);
    }

    /// Whether `cfg` passes [`SearchSpace::admit`]. The check runs once per
    /// config; a rejection is counted in its stage when first seen.
    fn admit(&mut self, cfg: &OverlapConfig) -> bool {
        if let Some(&verdict) = self.verdicts.get(cfg) {
            return verdict != Verdict::Rejected;
        }
        let verdict = match self.space.admit(self.oracle, cfg) {
            Ok(()) => Verdict::Admitted,
            Err(Rejected::Validate) => {
                self.failed.validate_rejected += 1;
                TUNE_CANDIDATES_PRUNED_VALIDATE.inc();
                Verdict::Rejected
            }
            Err(Rejected::Constraint) => {
                self.failed.constraint_pruned += 1;
                TUNE_CANDIDATES_PRUNED_CONSTRAINT.inc();
                Verdict::Rejected
            }
        };
        self.verdicts.insert(*cfg, verdict);
        verdict == Verdict::Admitted
    }

    /// The admitted configs of the whole space, in enumeration order.
    fn candidates(&mut self) -> Vec<OverlapConfig> {
        let space = self.space;
        space.configs().filter(|cfg| self.admit(cfg)).collect()
    }

    fn empty_space(&self) -> TuneError {
        TuneError::EmptySpace {
            unpruned: self.space.len_unpruned(),
        }
    }

    /// The `width` best ranked candidates (stable order).
    fn top(&self, width: usize) -> Vec<Ranked> {
        let mut sorted = self.ranked.clone();
        sorted.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
        sorted.truncate(width);
        sorted
    }

    /// Judges the admitted, not yet judged configs of `configs` in order:
    /// cache first, then the branch-and-bound prune, then the oracle in
    /// parallel, appending the ranked ones to `ranked` in candidate order.
    ///
    /// The batch is processed in [`PRUNE_CHUNK`]-sized chunks so the
    /// incumbent tightens as results merge: workers see one frozen cutoff
    /// per chunk, updated only here on the driver thread.
    ///
    /// While no incumbent exists yet (the cutoff is still infinite) the
    /// chunks ramp up from [`PRUNE_SEED_CHUNK`]: a large opening chunk would
    /// full-simulate every candidate in it with nothing to prune against,
    /// so the batch starts small to put a cutoff in place, then widens to
    /// the steady-state chunk for parallel throughput. Candidate order is
    /// unchanged — chunk boundaries only decide how often the incumbent
    /// refreshes — so rankings (first-evaluation order) stay deterministic
    /// and, because pruning is admissible, identical to the unramped ones.
    fn evaluate(&mut self, configs: &[OverlapConfig]) {
        let mut rest = configs;
        while !rest.is_empty() {
            let width = if self.incumbent.enabled && !self.incumbent.cutoff().is_finite() {
                PRUNE_SEED_CHUNK
            } else {
                PRUNE_CHUNK
            };
            let (chunk, tail) = rest.split_at(width.min(rest.len()));
            rest = tail;
            self.evaluate_chunk(chunk);
        }
    }

    /// One chunk of [`Run::evaluate`].
    fn evaluate_chunk(&mut self, configs: &[OverlapConfig]) {
        // Cache pass over the configs still to judge, each once. Cached
        // totals fold into the incumbent right away so they sharpen this
        // very chunk's lower-bound pruning.
        let mut pending: Vec<(OverlapConfig, Option<f64>)> = Vec::with_capacity(configs.len());
        {
            let _span = tilelink_probe::span("tune.cache_lookup");
            let cache = self.tuner.cache.lock().expect("tune cache lock poisoned");
            for cfg in configs {
                if self.verdicts.get(cfg) != Some(&Verdict::Admitted)
                    || pending.iter().any(|(c, _)| c == cfg)
                {
                    continue;
                }
                let cached = cache.total(&TuneCache::key_in(&self.prefix, cfg));
                match cached {
                    Some(total) => {
                        self.cache_hits += 1;
                        TUNE_CACHE_HITS.inc();
                        self.incumbent.observe(total);
                    }
                    None => TUNE_CACHE_MISSES.inc(),
                }
                pending.push((*cfg, cached));
            }
        }

        // Bound pass: skip misses whose admissible lower bound already
        // reaches the incumbent — they provably cannot enter the top of the
        // ranking (on a tie the earlier incumbent wins the stable sort), so
        // neither compile nor simulation is owed. The cutoff is frozen for
        // the rest of this chunk.
        let cutoff = self.incumbent.cutoff();
        if self.incumbent.enabled && cutoff.is_finite() {
            pending.retain(|(cfg, cached)| {
                if cached.is_some() {
                    return true;
                }
                match self.oracle.lower_bound(cfg) {
                    Some(lb) if lb >= cutoff => {
                        self.failed.bound_pruned += 1;
                        TUNE_CANDIDATES_PRUNED_BOUND.inc();
                        self.verdicts.insert(*cfg, Verdict::Dominated);
                        false
                    }
                    _ => true,
                }
            });
        }

        // Oracle pass on the executor. Results come back in candidate order,
        // so completion order never affects ranking.
        let misses: Vec<OverlapConfig> = pending
            .iter()
            .filter(|(_, cached)| cached.is_none())
            .map(|&(cfg, _)| cfg)
            .collect();
        let mut results = self
            .tuner
            .executor
            .run_batch(self.oracle, &misses, &self.incumbent.bits)
            .into_iter();

        // Merge, in candidate order.
        let mut cache = self.tuner.cache.lock().expect("tune cache lock poisoned");
        for (cfg, cached) in pending {
            let (total_s, from_cache) = match cached {
                Some(total) => {
                    TUNE_CANDIDATES_CACHED.inc();
                    (total, true)
                }
                None => match results.next().expect("one result per miss") {
                    Ok(BoundedEval::Finished(total)) => {
                        self.evaluations += 1;
                        TUNE_CANDIDATES_SIMULATED.inc();
                        self.incumbent.observe(total);
                        cache.insert_total(TuneCache::key_in(&self.prefix, &cfg), total);
                        (total, false)
                    }
                    Ok(BoundedEval::Exceeded(_)) => {
                        // The objective value provably exceeds the
                        // incumbent: not ranked, not cached (the exact value
                        // is unknown).
                        self.failed.bound_pruned += 1;
                        self.bounded_aborts += 1;
                        self.verdicts.insert(cfg, Verdict::Dominated);
                        continue;
                    }
                    Err(e) => {
                        self.failed.simulation_error += 1;
                        TUNE_CANDIDATES_FAILED_SIM.inc();
                        self.last_error = Some(e);
                        self.verdicts.insert(cfg, Verdict::Failed);
                        continue;
                    }
                },
            };
            self.verdicts.insert(cfg, Verdict::Ranked);
            self.ranked.push(Ranked {
                config: cfg,
                total_s,
                from_cache,
            });
        }
    }

    /// Ranks the candidates, prices the winner, flushes the cache and
    /// assembles the report.
    fn finish(mut self) -> Result<TuneReport> {
        self.ranked.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
        let best = self.ranked.first().map(|winner| self.price_winner(winner));
        self.tuner
            .cache
            .lock()
            .expect("tune cache lock poisoned")
            .flush()?;
        let Some(best) = best else {
            return Err(TuneError::AllCandidatesFailed {
                attempted: self.evaluations + self.failed.simulation_error,
                last: self.last_error.unwrap_or(TileLinkError::InvalidConfig {
                    reason: "no candidate could be evaluated".to_string(),
                }),
            });
        };
        Ok(TuneReport {
            best: best?,
            ranked: self.ranked,
            evaluations: self.evaluations,
            cache_hits: self.cache_hits,
            failed: self.failed,
            bounded_aborts: self.bounded_aborts,
            rounds: self.rounds,
            compile_patched: TUNE_COMPILE_PATCHED
                .get()
                .saturating_sub(self.patched_start),
            compile_full_rebuilds: TUNE_COMPILE_FULL_REBUILDS
                .get()
                .saturating_sub(self.rebuilds_start),
        })
    }

    /// The search winner's exact report: the cached one, or one
    /// [`CostOracle::evaluate`] call whose report is then cached, so a rerun
    /// on the same cache prices nothing. Verbose runs print what the pricing
    /// cost after the round lines.
    fn price_winner(&self, winner: &Ranked) -> Result<Candidate> {
        let (start, sims_start, hits_start) = (
            Instant::now(),
            SIM_MAKESPAN_RUNS.get(),
            EXEC_MEMO_HITS.get(),
        );
        let key = TuneCache::key_in(&self.prefix, &winner.config);
        let cache = &self.tuner.cache;
        let cached = cache.lock().expect("tune cache lock poisoned").get(&key);
        let from_cache = cached.is_some();
        let report = match cached {
            Some(report) => report,
            None => {
                let _span = tilelink_probe::span("tune.winner");
                let report = self.oracle.evaluate(&winner.config)?;
                cache
                    .lock()
                    .expect("tune cache lock poisoned")
                    .insert(key, report);
                report
            }
        };
        debug_assert_eq!(
            report.total_s.to_bits(),
            winner.total_s.to_bits(),
            "the oracle's exact report disagrees with the value it ranked"
        );
        if self.tuner.verbose {
            eprintln!(
                "[tune] winner: {:.4} ms, {} in {:.1} ms | {} simulations, {} memo hits",
                report.total_s * 1e3,
                if from_cache { "cached" } else { "priced" },
                start.elapsed().as_secs_f64() * 1e3,
                SIM_MAKESPAN_RUNS.get().saturating_sub(sims_start),
                EXEC_MEMO_HITS.get().saturating_sub(hits_start),
            );
        }
        Ok(Candidate {
            config: winner.config,
            report,
            from_cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnOracle;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tilelink::{CommMapping, TileShape};
    use tilelink_sim::ClusterSpec;

    /// Analytic cost: favours big compute tiles, ring order, hybrid mapping
    /// with few SMs. Counts oracle calls.
    fn analytic(counter: &AtomicUsize) -> impl CostOracle + '_ {
        FnOracle::new("analytic", ClusterSpec::h800_node(8), move |cfg| {
            counter.fetch_add(1, Ordering::SeqCst);
            let tile = cfg.compute_tile.numel() as f64;
            let order = match cfg.order {
                tilelink::TileOrder::Ring => 0.9,
                tilelink::TileOrder::AllToAll => 1.0,
            };
            let sms = cfg.comm_mapping.comm_sms() as f64;
            let t = (1e9 / tile) * order + sms * 1e-3 + cfg.num_stages as f64 * 1e-4;
            Ok(OverlapReport::new(t, t / 3.0, 2.0 * t / 3.0))
        })
    }

    fn space() -> SearchSpace {
        SearchSpace::standard()
            .with_comm_tiles([TileShape::new(128, 128)])
            .with_channels([4])
    }

    /// The analytic cost formula as a standalone function, so pruning tests
    /// can reuse it as an exact (hence admissible) lower bound.
    fn toy_cost(cfg: &OverlapConfig) -> f64 {
        let tile = cfg.compute_tile.numel() as f64;
        let order = match cfg.order {
            tilelink::TileOrder::Ring => 0.9,
            tilelink::TileOrder::AllToAll => 1.0,
        };
        let sms = cfg.comm_mapping.comm_sms() as f64;
        (1e9 / tile) * order + sms * 1e-3 + cfg.num_stages as f64 * 1e-4
    }

    /// Call-counting oracle whose lower bound is the exact cost.
    fn lb_oracle(counter: &AtomicUsize) -> impl CostOracle + '_ {
        FnOracle::new("lb", ClusterSpec::h800_node(8), move |cfg| {
            counter.fetch_add(1, Ordering::SeqCst);
            let t = toy_cost(cfg);
            Ok(OverlapReport::new(t, t / 3.0, 2.0 * t / 3.0))
        })
        .with_lower_bound(|cfg| Some(toy_cost(cfg)))
    }

    /// Oracle whose `evaluate_bounded` aborts as soon as the cost exceeds the
    /// cutoff, mirroring `Engine::makespan`.
    struct AbortingOracle {
        cluster: ClusterSpec,
        aborts: AtomicUsize,
    }

    impl CostOracle for AbortingOracle {
        fn workload_key(&self) -> String {
            "abort".to_string()
        }

        fn cluster(&self) -> &ClusterSpec {
            &self.cluster
        }

        fn evaluate(&self, cfg: &OverlapConfig) -> tilelink::Result<OverlapReport> {
            let t = toy_cost(cfg);
            Ok(OverlapReport::new(t, t / 3.0, 2.0 * t / 3.0))
        }

        fn evaluate_bounded(
            &self,
            cfg: &OverlapConfig,
            cutoff: f64,
        ) -> tilelink::Result<BoundedEval> {
            let t = toy_cost(cfg);
            if t > cutoff {
                self.aborts.fetch_add(1, Ordering::SeqCst);
                return Ok(BoundedEval::Exceeded(t));
            }
            Ok(BoundedEval::Finished(t))
        }
    }

    #[test]
    fn lower_bound_pruning_skips_candidates_and_keeps_the_winner() {
        let space = space();
        let pruned_calls = AtomicUsize::new(0);
        let pruned = Tuner::new(Strategy::Exhaustive)
            .tune(&lb_oracle(&pruned_calls), &space)
            .unwrap();
        let full_calls = AtomicUsize::new(0);
        let full = Tuner::new(Strategy::Exhaustive)
            .with_pruning(false)
            .tune(&lb_oracle(&full_calls), &space)
            .unwrap();
        // Winners are bit-identical; pruning only skips provably worse configs.
        assert_eq!(pruned.best.config, full.best.config);
        assert_eq!(
            pruned.best.report.total_s.to_bits(),
            full.best.report.total_s.to_bits()
        );
        // The exact bound prunes everything past the incumbent after the
        // first chunk, so the oracle runs far fewer simulations.
        assert!(pruned.pruned_bound() > 0, "{pruned:?}");
        assert_eq!(pruned.bounded_aborts, 0);
        assert!(pruned_calls.load(Ordering::SeqCst) < full_calls.load(Ordering::SeqCst));
        assert_eq!(full.failed.bound_pruned, 0);
        // Attribution still sums to the space size: every candidate is ranked
        // or accounted to exactly one pruning stage.
        assert_eq!(
            pruned.ranked.len() + pruned.failed.total(),
            space.len_unpruned()
        );
        assert_eq!(
            full.ranked.len() + full.failed.total(),
            space.len_unpruned()
        );
    }

    #[test]
    fn bounded_aborts_are_counted_and_keep_the_winner() {
        let space = space();
        let oracle = AbortingOracle {
            cluster: ClusterSpec::h800_node(8),
            aborts: AtomicUsize::new(0),
        };
        let report = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &space)
            .unwrap();
        assert!(report.bounded_aborts > 0);
        assert_eq!(report.bounded_aborts, oracle.aborts.load(Ordering::SeqCst));
        // No lower bound on this oracle: everything bound-pruned was an abort.
        assert_eq!(report.pruned_bound(), 0);
        assert_eq!(
            report.ranked.len() + report.failed.total(),
            space.len_unpruned()
        );
        let full = Tuner::new(Strategy::Exhaustive)
            .with_pruning(false)
            .tune(&oracle, &space)
            .unwrap();
        assert_eq!(report.best.config, full.best.config);
        assert_eq!(
            report.best.report.total_s.to_bits(),
            full.best.report.total_s.to_bits()
        );
    }

    #[test]
    fn beam_with_pruning_matches_the_unbounded_beam_bit_for_bit() {
        let space = space();
        let strategy = Strategy::Beam {
            width: 2,
            sweeps: 3,
        };
        let c1 = AtomicUsize::new(0);
        let pruned = Tuner::new(strategy).tune(&lb_oracle(&c1), &space).unwrap();
        let c2 = AtomicUsize::new(0);
        let full = Tuner::new(strategy)
            .with_pruning(false)
            .tune(&lb_oracle(&c2), &space)
            .unwrap();
        // Pruning against the width-th-best incumbent keeps the frontier, the
        // round count and the winner bit-identical to the unbounded beam.
        assert_eq!(pruned.best.config, full.best.config);
        assert_eq!(
            pruned.best.report.total_s.to_bits(),
            full.best.report.total_s.to_bits()
        );
        assert_eq!(pruned.rounds.len(), full.rounds.len());
        assert!(c1.load(Ordering::SeqCst) <= c2.load(Ordering::SeqCst));
    }

    #[test]
    fn exhaustive_finds_the_analytic_optimum() {
        let calls = AtomicUsize::new(0);
        let report = Tuner::new(Strategy::Exhaustive)
            .with_executor(Arc::new(SearchExecutor::with_threads(4)))
            .tune(&analytic(&calls), &space())
            .unwrap();
        // Optimum of the analytic model: largest compute tile, ring order,
        // copy-engine mapping (0 SMs), fewest stages.
        assert_eq!(report.best.config.compute_tile, TileShape::new(128, 256));
        assert_eq!(report.best.config.order, tilelink::TileOrder::Ring);
        assert_eq!(report.best.config.comm_mapping, CommMapping::CopyEngine);
        assert_eq!(report.best.config.num_stages, 2);
        // One oracle call per priced candidate, plus the winner's exact
        // report (not counted as an evaluation).
        assert_eq!(report.evaluations + 1, calls.load(Ordering::SeqCst));
        assert_eq!(report.failed.simulation_error, 0);
        assert!(report.rounds.is_empty(), "exhaustive search has no rounds");
        // Ranking is fastest-first, led by the winner.
        assert_eq!(report.ranked[0].config, report.best.config);
        for w in report.ranked.windows(2) {
            assert!(w[0].total_s <= w[1].total_s);
        }
    }

    #[test]
    fn beam_matches_exhaustive_on_a_separable_objective() {
        let calls_a = AtomicUsize::new(0);
        let calls_b = AtomicUsize::new(0);
        let exhaustive = Tuner::new(Strategy::Exhaustive)
            .tune(&analytic(&calls_a), &space())
            .unwrap();
        let beam = Tuner::new(Strategy::Beam {
            width: 3,
            sweeps: 4,
        })
        .tune(&analytic(&calls_b), &space())
        .unwrap();
        assert_eq!(beam.best.config, exhaustive.best.config);
        // ...while evaluating fewer candidates.
        assert!(calls_b.load(Ordering::SeqCst) < calls_a.load(Ordering::SeqCst));
    }

    #[test]
    fn search_is_deterministic() {
        let c1 = AtomicUsize::new(0);
        let c2 = AtomicUsize::new(0);
        let r1 = Tuner::new(Strategy::Beam {
            width: 2,
            sweeps: 3,
        })
        .with_executor(Arc::new(SearchExecutor::with_threads(8)))
        .tune(&analytic(&c1), &space())
        .unwrap();
        let r2 = Tuner::new(Strategy::Beam {
            width: 2,
            sweeps: 3,
        })
        .with_executor(Arc::new(SearchExecutor::with_threads(1)))
        .tune(&analytic(&c2), &space())
        .unwrap();
        assert_eq!(r1.best.config, r2.best.config);
        let order1: Vec<&OverlapConfig> = r1.ranked.iter().map(|c| &c.config).collect();
        let order2: Vec<&OverlapConfig> = r2.ranked.iter().map(|c| &c.config).collect();
        assert_eq!(order1, order2);
    }

    #[test]
    fn failing_candidates_are_skipped_not_fatal() {
        let oracle = FnOracle::new("flaky", ClusterSpec::h800_node(8), |cfg| {
            if cfg.num_stages == 3 {
                Err(tilelink::TileLinkError::InvalidConfig {
                    reason: "synthetic".to_string(),
                })
            } else {
                Ok(OverlapReport::new(cfg.num_stages as f64, 0.1, 0.9))
            }
        });
        let space = SearchSpace::new().with_stages([2, 3, 4]);
        let report = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &space)
            .unwrap();
        assert_eq!(report.failed.simulation_error, 1);
        assert_eq!(report.failed.validate_rejected, 0);
        assert_eq!(report.failed.constraint_pruned, 0);
        assert_eq!(report.failed.total(), 1);
        assert_eq!(report.ranked.len(), 2);
        assert_eq!(report.best.config.num_stages, 2);
    }

    #[test]
    fn failure_breakdown_separates_the_four_pruning_stages() {
        // 200 comm SMs fail validate on an H800; stage 3 is unsupported by the
        // oracle (constraint); stage 4 errors in the oracle (simulation).
        let oracle = FnOracle::new("stages", ClusterSpec::h800_node(8), |cfg| {
            if cfg.num_stages == 4 {
                Err(tilelink::TileLinkError::InvalidConfig {
                    reason: "synthetic".to_string(),
                })
            } else {
                Ok(OverlapReport::new(cfg.num_stages as f64, 0.1, 0.9))
            }
        })
        .with_support(|cfg: &OverlapConfig| cfg.num_stages != 3);
        let space = SearchSpace::new()
            .with_mappings([CommMapping::CopyEngine, CommMapping::Sm { sms: 200 }])
            .with_stages([2, 3, 4]);
        let report = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &space)
            .unwrap();
        // Sm{200} is validate-rejected for all 3 stages; stage 3 of the valid
        // mapping is constraint-pruned; stage 4 errors in the oracle.
        assert_eq!(report.failed.validate_rejected, 3);
        assert_eq!(report.failed.constraint_pruned, 1);
        // The oracle has no lower bound and never aborts, so the fourth
        // stage stays empty here (exercised by the pruning tests below).
        assert_eq!(report.failed.bound_pruned, 0);
        assert_eq!(report.failed.simulation_error, 1);
        assert_eq!(report.failed.total(), 5);
        assert_eq!(report.ranked.len(), 1);
        let text = report.summary(1);
        assert!(text.contains("3 validate-rejected"), "{text}");
        assert!(text.contains("1 constraint-pruned"), "{text}");
        assert!(text.contains("0 bound-pruned"), "{text}");
        assert!(text.contains("1 simulation errors"), "{text}");
    }

    #[test]
    fn beam_reports_per_round_progress() {
        let calls = AtomicUsize::new(0);
        let report = Tuner::new(Strategy::Beam {
            width: 2,
            sweeps: 3,
        })
        .tune(&analytic(&calls), &space())
        .unwrap();
        assert!(!report.rounds.is_empty());
        assert!(report.rounds.len() <= 3);
        for (i, round) in report.rounds.iter().enumerate() {
            assert_eq!(round.round, i + 1);
            assert!(round.best_total_s.is_finite());
        }
        // Best-so-far never regresses and cumulative counters never shrink.
        for w in report.rounds.windows(2) {
            assert!(w[1].best_total_s <= w[0].best_total_s);
            assert!(w[1].evaluations >= w[0].evaluations);
            assert!(w[1].cache_hits >= w[0].cache_hits);
        }
        let last = report.rounds.last().unwrap();
        assert_eq!(last.best_total_s, report.best.report.total_s);
        assert_eq!(last.evaluations, report.evaluations);
    }

    #[test]
    fn beam_recovers_when_every_seed_fails_evaluation() {
        // Both beam seeds (the default config and the space's first corner)
        // have num_stages == 3 here and fail in the oracle; the beam must fall
        // back to the pruned enumeration instead of reporting total failure.
        let oracle = FnOracle::new("seedfail", ClusterSpec::h800_node(8), |cfg| {
            if cfg.num_stages == 3 {
                Err(tilelink::TileLinkError::InvalidConfig {
                    reason: "synthetic compile failure".to_string(),
                })
            } else {
                Ok(OverlapReport::new(cfg.num_stages as f64, 0.1, 0.9))
            }
        });
        let space = SearchSpace::new().with_stages([3, 4]);
        let report = Tuner::new(Strategy::Beam {
            width: 2,
            sweeps: 2,
        })
        .tune(&oracle, &space)
        .unwrap();
        assert_eq!(report.best.config.num_stages, 4);
        // The one failing config (the shared seed) is priced once, though
        // the fallback enumeration and every stage sweep revisit it.
        assert_eq!(report.failed.simulation_error, 1);
    }

    /// Oracle that counts `evaluate_bounded` and `is_supported` calls per
    /// config: it fails on `num_stages == 4` and does not support 40 comm SMs.
    struct JudgedOnce {
        cluster: ClusterSpec,
        priced: Mutex<HashMap<OverlapConfig, usize>>,
        checked: Mutex<HashMap<OverlapConfig, usize>>,
    }

    impl CostOracle for JudgedOnce {
        fn workload_key(&self) -> String {
            "judged-once".to_string()
        }

        fn cluster(&self) -> &ClusterSpec {
            &self.cluster
        }

        fn evaluate(&self, cfg: &OverlapConfig) -> tilelink::Result<OverlapReport> {
            if cfg.num_stages == 4 {
                return Err(tilelink::TileLinkError::InvalidConfig {
                    reason: "synthetic".to_string(),
                });
            }
            let t = toy_cost(cfg);
            Ok(OverlapReport::new(t, t / 3.0, 2.0 * t / 3.0))
        }

        fn evaluate_bounded(
            &self,
            cfg: &OverlapConfig,
            _cutoff: f64,
        ) -> tilelink::Result<BoundedEval> {
            *self.priced.lock().unwrap().entry(*cfg).or_default() += 1;
            self.evaluate(cfg).map(|r| BoundedEval::Finished(r.total_s))
        }

        fn is_supported(&self, cfg: &OverlapConfig) -> bool {
            *self.checked.lock().unwrap().entry(*cfg).or_default() += 1;
            cfg.comm_mapping != CommMapping::Sm { sms: 40 }
        }
    }

    /// A width-2 beam over a [`JudgedOnce`] oracle, on a space without
    /// constraints (every constraint rejection is the oracle's).
    fn judged_beam() -> (JudgedOnce, TuneReport) {
        let space = SearchSpace::new()
            .with_compute_tiles([
                TileShape::new(64, 128),
                TileShape::new(128, 128),
                TileShape::new(128, 256),
            ])
            .with_orders([tilelink::TileOrder::AllToAll, tilelink::TileOrder::Ring])
            .with_mappings([
                CommMapping::CopyEngine,
                CommMapping::Sm { sms: 8 },
                CommMapping::Sm { sms: 40 },
                CommMapping::Hybrid { sms: 8 },
            ])
            .with_stages([2, 3, 4]);
        let oracle = JudgedOnce {
            cluster: ClusterSpec::h800_node(8),
            priced: Mutex::default(),
            checked: Mutex::default(),
        };
        let report = Tuner::new(Strategy::Beam {
            width: 2,
            sweeps: 3,
        })
        .tune(&oracle, &space)
        .unwrap();
        assert!(report.rounds.len() > 1, "the beam revisits its bases");
        (oracle, report)
    }

    #[test]
    fn a_beam_prices_each_failing_config_once() {
        let (oracle, report) = judged_beam();
        let priced = oracle.priced.lock().unwrap();
        assert!(priced.values().all(|&n| n == 1), "{priced:?}");
        let failing = priced.keys().filter(|c| c.num_stages == 4).count();
        assert!(failing > 0);
        assert_eq!(report.failed.simulation_error, failing);
    }

    #[test]
    fn a_beam_checks_admission_once_per_config() {
        let (oracle, report) = judged_beam();
        let checked = oracle.checked.lock().unwrap();
        assert!(checked.values().all(|&n| n == 1), "{checked:?}");
        let unsupported = checked
            .keys()
            .filter(|c| c.comm_mapping == CommMapping::Sm { sms: 40 })
            .count();
        assert!(unsupported > 0);
        assert_eq!(report.failed.constraint_pruned, unsupported);
    }

    #[test]
    fn a_panicking_oracle_fails_its_candidate_at_any_thread_count() {
        let oracle = FnOracle::new("panicky", ClusterSpec::h800_node(8), |cfg| {
            if cfg.num_stages == 3 {
                panic!("synthetic oracle panic");
            }
            Ok(OverlapReport::new(cfg.num_stages as f64, 0.1, 0.9))
        });
        let space = SearchSpace::new().with_stages([2, 3, 4]);
        for strategy in [Strategy::Exhaustive, Strategy::default()] {
            let run = |threads: usize| {
                Tuner::new(strategy)
                    .with_executor(Arc::new(SearchExecutor::with_threads(threads)))
                    .tune(&oracle, &space)
                    .unwrap()
            };
            let one = run(1);
            let four = run(4);
            assert_eq!(one.best.config.num_stages, 2);
            assert_eq!(one.failed.simulation_error, 1);
            assert_eq!(format!("{one:?}"), format!("{four:?}"));
            assert_eq!(
                one.best.report.total_s.to_bits(),
                four.best.report.total_s.to_bits()
            );
        }
    }

    #[test]
    fn all_failures_surface_as_error() {
        let oracle = FnOracle::new("dead", ClusterSpec::h800_node(8), |_| {
            Err(tilelink::TileLinkError::InvalidConfig {
                reason: "always".to_string(),
            })
        });
        let err = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &SearchSpace::new())
            .unwrap_err();
        assert!(matches!(err, TuneError::AllCandidatesFailed { .. }));
    }

    #[test]
    fn empty_space_surfaces_as_error() {
        let oracle = FnOracle::new("t", ClusterSpec::h800_node(8), |_| {
            Ok(OverlapReport::new(1.0, 0.5, 0.5))
        })
        .with_support(|_: &OverlapConfig| false);
        let err = Tuner::new(Strategy::Exhaustive)
            .tune(&oracle, &SearchSpace::new())
            .unwrap_err();
        assert!(matches!(err, TuneError::EmptySpace { .. }));
    }

    #[test]
    fn persistent_cache_short_circuits_the_second_search() {
        let dir = std::env::temp_dir().join(format!("tilelink-tune-sc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let _ = std::fs::remove_file(&path);

        let calls = AtomicUsize::new(0);
        let first = Tuner::new(Strategy::Exhaustive)
            .with_cache(TuneCache::open(&path).unwrap())
            .tune(&analytic(&calls), &space())
            .unwrap();
        assert!(calls.load(Ordering::SeqCst) > 0);
        assert_eq!(first.cache_hits, 0);

        calls.store(0, Ordering::SeqCst);
        let second = Tuner::new(Strategy::Exhaustive)
            .with_cache(TuneCache::open(&path).unwrap())
            .tune(&analytic(&calls), &space())
            .unwrap();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "second search must be free"
        );
        assert_eq!(second.evaluations, 0);
        assert_eq!(second.cache_hits, first.ranked.len());
        assert_eq!(second.best.config, first.best.config);
        assert!(second.best.from_cache);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_entries_miss_under_a_different_cost_revision_and_hit_again() {
        let dir = std::env::temp_dir().join(format!("tilelink-tune-rev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let _ = std::fs::remove_file(&path);

        let oracle_with = |counter: &'static AtomicUsize, revision: &str| {
            FnOracle::new("rev", ClusterSpec::h800_node(8), move |cfg| {
                counter.fetch_add(1, Ordering::SeqCst);
                let t = cfg.num_stages as f64;
                Ok(OverlapReport::new(t, t / 2.0, t / 2.0))
            })
            .with_revision(revision)
        };
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let space = SearchSpace::new().with_stages([2, 3]);
        let run = |revision: &str| {
            Tuner::new(Strategy::Exhaustive)
                .with_cache(TuneCache::open(&path).unwrap())
                .tune(&oracle_with(&CALLS, revision), &space)
                .unwrap()
        };

        let first = run("analytic-v2");
        assert_eq!(first.evaluations, 2);
        // A different cost-model revision must not be served stale timings.
        let other = run("calibrated-deadbeef");
        assert_eq!(
            other.evaluations, 2,
            "revision change must force re-evaluation"
        );
        assert_eq!(other.cache_hits, 0);
        // Returning to the original revision hits the original entries again.
        let back = run("analytic-v2");
        assert_eq!(back.evaluations, 0);
        assert_eq!(back.cache_hits, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn beam_respects_cross_axis_constraints() {
        use tilelink::{TileOrder, TransferMode};
        let seen_ring_pull = std::sync::atomic::AtomicBool::new(false);
        let oracle = FnOracle::new("c", ClusterSpec::h800_node(8), |cfg| {
            if cfg.order == TileOrder::Ring && cfg.mode == TransferMode::Pull {
                seen_ring_pull.store(true, Ordering::SeqCst);
            }
            Ok(OverlapReport::new(1.0, 0.5, 0.5))
        });
        let space = SearchSpace::new()
            .with_orders([TileOrder::AllToAll, TileOrder::Ring])
            .with_modes([TransferMode::Pull, TransferMode::Push])
            .with_constraint(crate::RING_REQUIRES_PUSH);
        Tuner::new(Strategy::Beam {
            width: 4,
            sweeps: 2,
        })
        .tune(&oracle, &space)
        .unwrap();
        assert!(
            !seen_ring_pull.load(Ordering::SeqCst),
            "constrained pair must never reach the oracle"
        );
    }

    #[test]
    fn report_summary_mentions_the_best_candidate() {
        let calls = AtomicUsize::new(0);
        let report = Tuner::new(Strategy::Exhaustive)
            .tune(&analytic(&calls), &space())
            .unwrap();
        let text = report.summary(3);
        assert!(text.contains("#1"));
        assert!(text.contains(&report.best.config.cache_key()));
        assert!(report.best_ms() > 0.0);
    }
}

//! Persistent tuning cache keyed by `(workload, cluster, config)`.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tilelink::{OverlapConfig, OverlapReport};

use crate::{cluster_key, CostOracle, Result, TuneError};

/// Environment variable overriding the default cache location.
pub const CACHE_PATH_ENV: &str = "TILELINK_TUNE_CACHE";

/// Test-only crash injection for [`TuneCache::flush`]. When this variable is
/// set to one of the recognised points, `flush` calls
/// [`std::process::abort`] there, simulating a crash:
///
/// - `mid-write` — after roughly half the bytes of the new file have been
///   written to the temp sibling,
/// - `pre-rename` — after the temp sibling is complete but before it is
///   renamed over the real file.
///
/// The torn-write regression tests spawn a child process with this set and
/// then assert the real cache file is untouched. Never set it outside tests.
pub const FLUSH_ABORT_ENV: &str = "TILELINK_TUNE_CACHE_FLUSH_ABORT";

fn flush_abort_point(point: &str) {
    if std::env::var(FLUSH_ABORT_ENV).as_deref() == Ok(point) {
        std::process::abort();
    }
}

/// Serialises the read-merge-rename sequence in [`TuneCache::flush`] within
/// one process so two in-process flushes cannot interleave their
/// read-then-rewrite windows and drop each other's entries. Cross-process
/// writers are protected by the merge itself (best effort: the window between
/// a flush's re-read and its rename is not locked across processes, but it is
/// microseconds instead of the whole tuning run).
static FLUSH_LOCK: Mutex<()> = Mutex::new(());

/// What the cache holds for one key: a search's objective value alone, or
/// the exact report of a priced winner (whose `total_s` is that value).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Total(f64),
    Exact(OverlapReport),
}

impl Entry {
    fn total_s(self) -> f64 {
        match self {
            Entry::Total(total) => total,
            Entry::Exact(report) => report.total_s,
        }
    }
}

/// Stores `entry` under `key` unless that would replace an exact report with
/// an objective-only value: the one rule shared by inserts, file loads and
/// the flush merge.
fn put(entries: &mut HashMap<String, Entry>, key: String, entry: Entry) {
    if let (Entry::Total(_), Some(Entry::Exact(_))) = (entry, entries.get(&key)) {
        return;
    }
    entries.insert(key, entry);
}

/// A persistent map from tuning keys to simulated timings.
///
/// Every candidate a search ranks is cached with its objective value
/// ([`TuneCache::insert_total`], read back by [`TuneCache::total`]); each
/// search's winner is cached with its exact report ([`TuneCache::insert`],
/// read back by [`TuneCache::get`]), which also answers [`TuneCache::total`].
/// An objective-only value never replaces an exact report.
///
/// The on-disk format is a line-oriented TSV so cache files can be inspected
/// and diffed: `key<TAB>total_s<TAB>comm_only_s<TAB>comp_only_s` for exact
/// reports and `key<TAB>total_s` for objective-only values. Keys combine
/// the oracle's workload key, the [`crate::cluster_key`] of the cluster, the
/// cost-model revision ([`crate::CostOracle::cost_revision`]), the objective
/// key ([`crate::Objective::key`]) and [`OverlapConfig::cache_key`], none of
/// which contain tabs or newlines. Because the revision and the objective are
/// part of the key, entries evaluated under a different cost model — or tuned
/// for a different statistic of the sampled makespans — simply miss: a stale
/// cache self-invalidates instead of serving timings the current model would
/// not produce, and mean-tuned entries never alias with p99-tuned ones.
///
/// # Persistence semantics
///
/// [`TuneCache::flush`] rewrites the file atomically: the new contents are
/// written to a sibling temp file which is then `rename`d over the real path,
/// so readers always see either the old complete file or the new complete
/// file — an interrupted flush can never truncate the cache. Before
/// rewriting, `flush` re-reads the on-disk file and merges it with the
/// in-memory entries (union; the in-memory value wins when both sides hold
/// the same key, unless that would replace an exact report with an
/// objective-only value), so concurrent tuners sharing one cache file — as CI's
/// shared `TILELINK_TUNE_CACHE` does across smoke steps — accumulate entries
/// instead of clobbering each other. Unparseable lines are still skipped on
/// load, so a cache file damaged by external means only loses the damaged
/// entries, never the whole cache.
#[derive(Debug)]
pub struct TuneCache {
    path: Option<PathBuf>,
    entries: HashMap<String, Entry>,
    /// Keys removed by [`TuneCache::sweep_stale`]. The flush merge re-reads
    /// the on-disk file, which would silently resurrect swept entries;
    /// tombstones make the removal stick until the next flush rewrites the
    /// file without them.
    tombstones: HashSet<String>,
}

impl TuneCache {
    /// An in-memory cache that never touches the filesystem.
    pub fn in_memory() -> Self {
        Self {
            path: None,
            entries: HashMap::new(),
            tombstones: HashSet::new(),
        }
    }

    /// Opens (or initialises) a cache backed by `path`.
    ///
    /// A missing file is treated as an empty cache; it is created on the first
    /// [`TuneCache::flush`].
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::CacheIo`] if the file exists but cannot be read.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let entries = Self::read_entries(&path)?;
        Ok(Self {
            path: Some(path),
            entries,
            tombstones: HashSet::new(),
        })
    }

    /// Parses the TSV at `path` into a map, treating a missing file as empty
    /// and skipping unparseable lines. Shared by [`TuneCache::open`] and the
    /// merge pass of [`TuneCache::flush`].
    fn read_entries(path: &Path) -> Result<HashMap<String, Entry>> {
        let mut entries = HashMap::new();
        match std::fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines() {
                    if let Some((key, entry)) = Self::parse_line(line) {
                        put(&mut entries, key.to_string(), entry);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(TuneError::CacheIo {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })
            }
        }
        Ok(entries)
    }

    /// One TSV line: 4 columns are an exact report, 2 an objective value;
    /// anything else is `None`. So is a value no simulation produces: a
    /// `total_s` that is not finite and positive, or a comm/compute time that
    /// is not finite and non-negative. A cached value is trusted without
    /// re-pricing, so one such line would otherwise win the search.
    fn parse_line(line: &str) -> Option<(&str, Entry)> {
        let seconds = |text: &str, positive: bool| {
            let s = text.parse::<f64>().ok()?;
            let plausible = s.is_finite() && if positive { s > 0.0 } else { s >= 0.0 };
            plausible.then_some(s)
        };
        let mut parts = line.split('\t');
        let key = parts.next()?;
        let total = seconds(parts.next()?, true)?;
        let entry = match (parts.next(), parts.next()) {
            (None, _) => Entry::Total(total),
            (Some(comm), Some(comp)) => Entry::Exact(OverlapReport::new(
                total,
                seconds(comm, false)?,
                seconds(comp, false)?,
            )),
            (Some(_), None) => return None,
        };
        Some((key, entry))
    }

    /// The default cache location: `$TILELINK_TUNE_CACHE` if set, otherwise
    /// `tilelink-tune-cache.tsv` in the system temp directory.
    pub fn default_path() -> PathBuf {
        std::env::var_os(CACHE_PATH_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("tilelink-tune-cache.tsv"))
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The shared `workload|cluster|revision|objective` prefix of every key
    /// of one tuning run.
    ///
    /// All four parts are fixed for the duration of a [`crate::Tuner::tune`]
    /// call, so the tuner builds this once per run and derives per-candidate
    /// keys with [`TuneCache::key_in`] instead of re-assembling (and
    /// re-allocating) the full quadruple on every cache probe.
    pub fn key_prefix(
        workload_key: &str,
        cluster_key: &str,
        cost_revision: &str,
        objective_key: &str,
    ) -> String {
        format!("{workload_key}|{cluster_key}|{cost_revision}|{objective_key}")
    }

    /// The [`TuneCache::key_prefix`] of every key `oracle` prices: its
    /// workload, cluster, cost-model revision and objective.
    ///
    /// [`crate::Tuner::tune`] files a run's entries under this prefix, and
    /// the serve daemon keys its warm results by it, so the daemon's notion
    /// of a "same" request and the on-disk one cannot drift apart.
    pub fn oracle_prefix(oracle: &dyn CostOracle) -> String {
        Self::key_prefix(
            &oracle.workload_key(),
            &cluster_key(oracle.cluster()),
            &oracle.cost_revision(),
            &oracle.objective().key(),
        )
    }

    /// The full cache key of one candidate under a memoized
    /// [`TuneCache::key_prefix`].
    pub fn key_in(prefix: &str, cfg: &OverlapConfig) -> String {
        format!("{prefix}|{}", cfg.cache_key())
    }

    /// The full cache key for one (workload, cluster, cost-model revision,
    /// objective, config) quintuple.
    pub fn key(
        workload_key: &str,
        cluster_key: &str,
        cost_revision: &str,
        objective_key: &str,
        cfg: &OverlapConfig,
    ) -> String {
        Self::key_in(
            &Self::key_prefix(workload_key, cluster_key, cost_revision, objective_key),
            cfg,
        )
    }

    /// Looks up a cached exact report (objective-only entries miss).
    pub fn get(&self, key: &str) -> Option<OverlapReport> {
        match self.entries.get(key) {
            Some(Entry::Exact(report)) => Some(*report),
            _ => None,
        }
    }

    /// Looks up a cached objective value, from either kind of entry.
    pub fn total(&self, key: &str) -> Option<f64> {
        self.entries.get(key).map(|entry| entry.total_s())
    }

    /// Number of entries for the same `workload|cluster` scope that were
    /// recorded under a *different* cost-model revision or objective than
    /// `current_prefix` (a full [`TuneCache::key_prefix`]).
    ///
    /// These entries are not wrong — they self-invalidate by missing — but
    /// every one of them represents an oracle call the current run has to
    /// repeat, which is worth surfacing in the metrics registry.
    pub fn count_stale(&self, scope: &str, current_prefix: &str) -> usize {
        let current = format!("{current_prefix}|");
        self.entries
            .keys()
            .filter(|k| k.starts_with(scope) && !k.starts_with(&current))
            .count()
    }

    /// Removes every entry in `scope` recorded under a different cost-model
    /// revision or objective than `current_prefix` (the same notion of stale
    /// as [`TuneCache::count_stale`]) and returns how many were swept.
    ///
    /// Swept keys are tombstoned so the next [`TuneCache::flush`] drops them
    /// from the backing file too instead of resurrecting them through the
    /// disk merge. This is the long-running daemon's memory/disk bound: a
    /// cost-model upgrade no longer leaves the superseded revision's entries
    /// behind forever. One-shot CLI runs that alternate between cost models
    /// should prefer `count_stale`, which keeps both revisions warm.
    pub fn sweep_stale(&mut self, scope: &str, current_prefix: &str) -> usize {
        let current = format!("{current_prefix}|");
        let stale: Vec<String> = self
            .entries
            .keys()
            .filter(|k| k.starts_with(scope) && !k.starts_with(&current))
            .cloned()
            .collect();
        for key in &stale {
            self.entries.remove(key);
            self.tombstones.insert(key.clone());
        }
        stale.len()
    }

    /// Inserts (or replaces) a cached exact report. Call [`TuneCache::flush`]
    /// to persist.
    pub fn insert(&mut self, key: String, report: OverlapReport) {
        self.tombstones.remove(&key);
        self.entries.insert(key, Entry::Exact(report));
    }

    /// Caches an objective value, unless `key` already holds an exact report
    /// (whose `total_s` is the same value). Call [`TuneCache::flush`] to
    /// persist.
    pub fn insert_total(&mut self, key: String, total_s: f64) {
        self.tombstones.remove(&key);
        put(&mut self.entries, key, Entry::Total(total_s));
    }

    /// Writes the cache to its backing file (no-op for in-memory caches).
    ///
    /// The rewrite is atomic (temp sibling + `rename`) and merges with the
    /// current on-disk contents first — union of both sides, the in-memory
    /// value winning on key conflict unless it is objective-only and the disk
    /// holds an exact report — so an interrupted flush never truncates the
    /// file and concurrent writers never clobber each other's entries.
    /// Entries are written sorted by key so the file is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::CacheIo`] on any filesystem error.
    pub fn flush(&self) -> Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let io_err = |e: std::io::Error| TuneError::CacheIo {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io_err)?;
            }
        }
        let _serialize = FLUSH_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        // Merge with whatever is on disk right now: another tuner may have
        // flushed since this cache was opened. In-memory entries win on
        // conflict (they are this run's freshest measurements) except that an
        // objective value never replaces an exact report, and keys swept by
        // `sweep_stale` are dropped from the merge so the rewrite shrinks the
        // file instead of re-reading the stale entries back in.
        let mut merged = Self::read_entries(path)?;
        for key in &self.tombstones {
            merged.remove(key);
        }
        for (key, entry) in &self.entries {
            put(&mut merged, key.clone(), *entry);
        }

        let mut keys: Vec<&String> = merged.keys().collect();
        keys.sort();
        let mut out = Vec::with_capacity(merged.len() * 64);
        for key in keys {
            match merged[key] {
                Entry::Total(total) => writeln!(out, "{key}\t{total:.17e}"),
                Entry::Exact(r) => writeln!(
                    out,
                    "{key}\t{:.17e}\t{:.17e}\t{:.17e}",
                    r.total_s, r.comm_only_s, r.comp_only_s
                ),
            }
            .map_err(io_err)?;
        }

        // Write the new contents to a temp sibling, then rename it over the
        // real file: readers only ever observe a complete file. The temp name
        // embeds the pid so two processes flushing at once stage separately.
        let mut tmp_name = path.file_name().map(|n| n.to_os_string()).ok_or_else(|| {
            io_err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cache path has no file name",
            ))
        })?;
        tmp_name.push(format!(".{}.tmp", std::process::id()));
        let tmp_path = path.with_file_name(tmp_name);
        let write_result = (|| {
            let mut file = std::fs::File::create(&tmp_path)?;
            let half = out.len() / 2;
            file.write_all(&out[..half])?;
            flush_abort_point("mid-write");
            file.write_all(&out[half..])?;
            file.sync_all()?;
            flush_abort_point("pre-rename");
            std::fs::rename(&tmp_path, path)
        })();
        if write_result.is_err() {
            let _ = std::fs::remove_file(&tmp_path);
        }
        write_result.map_err(io_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tilelink-tune-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_through_disk() {
        let path = tmp("roundtrip.tsv");
        let _ = std::fs::remove_file(&path);
        let mut cache = TuneCache::open(&path).unwrap();
        assert!(cache.is_empty());
        let key = TuneCache::key("w", "c", "analytic-v2", "mean", &OverlapConfig::default());
        cache.insert(key.clone(), OverlapReport::new(1.25e-3, 5e-4, 1e-3));
        cache.flush().unwrap();

        let reloaded = TuneCache::open(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        let r = reloaded.get(&key).unwrap();
        assert_eq!(r.total_s, 1.25e-3);
        assert_eq!(r.comm_only_s, 5e-4);
        assert_eq!(r.comp_only_s, 1e-3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn objective_only_entries_roundtrip_as_two_columns() {
        let path = tmp("objective-only.tsv");
        let _ = std::fs::remove_file(&path);
        let mut cache = TuneCache::open(&path).unwrap();
        cache.insert_total("k".into(), 1.25e-3);
        assert_eq!(cache.total("k"), Some(1.25e-3));
        assert!(
            cache.get("k").is_none(),
            "an objective value is not a report"
        );
        cache.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().next().unwrap().split('\t').count(), 2);

        let reloaded = TuneCache::open(&path).unwrap();
        assert_eq!(reloaded.total("k").unwrap().to_bits(), 1.25e-3f64.to_bits());
        assert!(reloaded.get("k").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn objective_only_values_never_downgrade_an_exact_entry() {
        let exact = OverlapReport::new(2.0, 0.9, 1.5);
        let mut cache = TuneCache::in_memory();
        cache.insert("k".into(), exact);
        cache.insert_total("k".into(), 2.0);
        assert_eq!(cache.get("k"), Some(exact));
        // An exact report does replace an objective value.
        cache.insert_total("j".into(), 3.0);
        cache.insert("j".into(), exact);
        assert_eq!(cache.get("j"), Some(exact));
        assert_eq!(cache.total("j"), Some(2.0));

        // Nor in the flush merge: an exact report on disk survives a writer
        // that only ranked the same key.
        let path = tmp("no-downgrade.tsv");
        let _ = std::fs::remove_file(&path);
        let mut ranked_only = TuneCache::open(&path).unwrap();
        let mut winner = TuneCache::open(&path).unwrap();
        winner.insert("k".into(), exact);
        winner.flush().unwrap();
        ranked_only.insert_total("k".into(), 2.0);
        ranked_only.flush().unwrap();
        assert_eq!(TuneCache::open(&path).unwrap().get("k"), Some(exact));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn four_column_files_from_older_writers_still_serve_exact_hits() {
        let path = tmp("four-column.tsv");
        let key = TuneCache::key("w", "c", "analytic-v2", "mean", &OverlapConfig::default());
        std::fs::write(
            &path,
            format!(
                "{key}\t{:.17e}\t{:.17e}\t{:.17e}\n",
                1.25e-3f64, 5e-4f64, 1e-3f64
            ),
        )
        .unwrap();
        let cache = TuneCache::open(&path).unwrap();
        assert_eq!(
            cache.get(&key),
            Some(OverlapReport::new(1.25e-3, 5e-4, 1e-3))
        );
        assert_eq!(cache.total(&key), Some(1.25e-3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn impossible_values_are_skipped_as_corrupt() {
        let path = tmp("impossible.tsv");
        let lines = [
            "total-neg\t-1",
            "total-zero\t0",
            "total-nan\t-NaN",
            "total-inf\tinf",
            "exact-neg-comm\t1.0\t-0.5\t0.5",
            "exact-inf-comp\t1.0\t0.5\tinf",
            "zero-split\t1.0\t0\t0",
            "good\t2.5e-3",
        ];
        std::fs::write(&path, lines.join("\n")).unwrap();
        let cache = TuneCache::open(&path).unwrap();
        assert_eq!(cache.len(), 2, "only the last two lines are plausible");
        assert_eq!(cache.total("good"), Some(2.5e-3));
        assert_eq!(
            cache.get("zero-split"),
            Some(OverlapReport::new(1.0, 0.0, 0.0))
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_lines_are_skipped() {
        let path = tmp("corrupt.tsv");
        std::fs::write(&path, "good\t1.0\t0.5\t0.5\nbad line\nworse\tnan-ish\t\t\n").unwrap();
        let cache = TuneCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get("good").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_writers_merge_instead_of_clobbering() {
        // Mirrors CI's shared TILELINK_TUNE_CACHE: two tuners open the same
        // file, each learns a different entry, and both flush. Before the
        // merge-on-flush fix the second flush rewrote the file from its own
        // (disjoint) view and the first tuner's entry was lost.
        let path = tmp("two-writer.tsv");
        let _ = std::fs::remove_file(&path);
        let mut a = TuneCache::open(&path).unwrap();
        let mut b = TuneCache::open(&path).unwrap();
        a.insert("ka".into(), OverlapReport::new(1.0, 0.4, 0.8));
        a.flush().unwrap();
        b.insert("kb".into(), OverlapReport::new(2.0, 0.9, 1.5));
        b.flush().unwrap();

        let merged = TuneCache::open(&path).unwrap();
        assert!(
            merged.get("ka").is_some(),
            "entry flushed by writer A must survive writer B's flush"
        );
        assert!(merged.get("kb").is_some());
        assert_eq!(merged.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_conflict_resolution_prefers_in_memory() {
        let path = tmp("conflict.tsv");
        let _ = std::fs::remove_file(&path);
        let mut a = TuneCache::open(&path).unwrap();
        let mut b = TuneCache::open(&path).unwrap();
        a.insert("k".into(), OverlapReport::new(1.0, 0.4, 0.8));
        a.flush().unwrap();
        b.insert("k".into(), OverlapReport::new(3.0, 1.0, 2.5));
        b.flush().unwrap();

        let merged = TuneCache::open(&path).unwrap();
        assert_eq!(
            merged.get("k").unwrap().total_s,
            3.0,
            "on key conflict the flushing cache's own value wins"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_leaves_no_temp_files_behind() {
        let dir = std::env::temp_dir().join(format!("tilelink-tmpscan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.tsv");
        let mut cache = TuneCache::open(&path).unwrap();
        cache.insert("k".into(), OverlapReport::new(1.0, 0.5, 0.5));
        cache.flush().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "flush must clean up its temp sibling");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_cache_never_writes() {
        let mut cache = TuneCache::in_memory();
        cache.insert("k".into(), OverlapReport::new(1.0, 0.5, 0.5));
        cache.flush().unwrap();
        assert!(cache.path().is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_embed_all_five_parts() {
        let k = TuneCache::key(
            "mlp",
            "h800x8",
            "analytic-v2",
            "mean",
            &OverlapConfig::default(),
        );
        assert!(k.starts_with("mlp|h800x8|analytic-v2|mean|"));
        assert!(k.contains("ct128x128"));
    }

    #[test]
    fn memoized_prefix_produces_identical_keys() {
        let cfg = OverlapConfig::default();
        let prefix = TuneCache::key_prefix("mlp", "h800x8", "analytic-v2", "p95");
        assert_eq!(
            TuneCache::key_in(&prefix, &cfg),
            TuneCache::key("mlp", "h800x8", "analytic-v2", "p95", &cfg)
        );
    }

    #[test]
    fn keys_differ_across_cost_model_revisions() {
        let cfg = OverlapConfig::default();
        let analytic = TuneCache::key("mlp", "h800x8", "analytic-v2", "mean", &cfg);
        let calibrated = TuneCache::key("mlp", "h800x8", "calibrated-00ff", "mean", &cfg);
        assert_ne!(analytic, calibrated);
        let mut cache = TuneCache::in_memory();
        cache.insert(analytic.clone(), OverlapReport::new(1.0, 0.5, 0.5));
        assert!(cache.get(&analytic).is_some());
        assert!(
            cache.get(&calibrated).is_none(),
            "an entry written under one revision must miss under another"
        );
    }

    #[test]
    fn stale_entries_are_counted_per_scope() {
        let cfg = OverlapConfig::default();
        let r = OverlapReport::new(1.0, 0.5, 0.5);
        let mut cache = TuneCache::in_memory();
        cache.insert(
            TuneCache::key("mlp", "h800x8", "analytic-v2", "mean", &cfg),
            r,
        );
        cache.insert(
            TuneCache::key("mlp", "h800x8", "calibrated-00ff", "mean", &cfg),
            r,
        );
        cache.insert(
            TuneCache::key("moe", "h800x8", "analytic-v2", "mean", &cfg),
            r,
        );
        let prefix = TuneCache::key_prefix("mlp", "h800x8", "analytic-v2", "mean");
        // One mlp entry under another revision is stale; the moe entry is out
        // of scope and the matching-revision entry is current.
        assert_eq!(cache.count_stale("mlp|h800x8|", &prefix), 1);
        let p95 = TuneCache::key_prefix("mlp", "h800x8", "analytic-v2", "p95");
        assert_eq!(cache.count_stale("mlp|h800x8|", &p95), 2);
        assert_eq!(cache.count_stale("lm|", &prefix), 0);
    }

    #[test]
    fn sweep_stale_removes_entries_and_shrinks_the_file() {
        let path = tmp("sweep.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = OverlapConfig::default();
        let r = OverlapReport::new(1.0, 0.5, 0.5);
        let mut cache = TuneCache::open(&path).unwrap();
        let stale_key = TuneCache::key("mlp", "h800x8", "analytic-v1", "mean", &cfg);
        let fresh_key = TuneCache::key("mlp", "h800x8", "analytic-v2", "mean", &cfg);
        let other_scope = TuneCache::key("moe", "h800x8", "analytic-v1", "mean", &cfg);
        cache.insert(stale_key.clone(), r);
        cache.insert(fresh_key.clone(), r);
        cache.insert(other_scope.clone(), r);
        cache.flush().unwrap();

        let prefix = TuneCache::key_prefix("mlp", "h800x8", "analytic-v2", "mean");
        let swept = cache.sweep_stale("mlp|h800x8|", &prefix);
        assert_eq!(swept, 1);
        assert!(cache.get(&stale_key).is_none());
        assert!(cache.get(&fresh_key).is_some());
        assert!(cache.get(&other_scope).is_some(), "out of scope, untouched");

        // The flush merge re-reads the disk file; without tombstones the
        // swept entry would ride back in through the merge.
        cache.flush().unwrap();
        let reloaded = TuneCache::open(&path).unwrap();
        assert!(
            reloaded.get(&stale_key).is_none(),
            "swept entry must be dropped from the backing file too"
        );
        assert_eq!(reloaded.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reinserting_a_swept_key_clears_its_tombstone() {
        let path = tmp("sweep-reinsert.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = OverlapConfig::default();
        let mut cache = TuneCache::open(&path).unwrap();
        let key = TuneCache::key("mlp", "h800x8", "analytic-v1", "mean", &cfg);
        cache.insert(key.clone(), OverlapReport::new(1.0, 0.5, 0.5));
        let prefix = TuneCache::key_prefix("mlp", "h800x8", "analytic-v2", "mean");
        assert_eq!(cache.sweep_stale("mlp|h800x8|", &prefix), 1);
        // Re-learned under the old prefix (e.g. the CLI switched back): the
        // fresh value must survive the next flush.
        cache.insert(key.clone(), OverlapReport::new(2.0, 1.0, 1.5));
        cache.flush().unwrap();
        let reloaded = TuneCache::open(&path).unwrap();
        assert_eq!(reloaded.get(&key).unwrap().total_s, 2.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keys_differ_across_objectives() {
        let cfg = OverlapConfig::default();
        let mean = TuneCache::key("moe", "h800x8", "analytic-v2", "mean", &cfg);
        let p95 = TuneCache::key("moe", "h800x8", "analytic-v2", "p95", &cfg);
        assert_ne!(mean, p95);
        let mut cache = TuneCache::in_memory();
        cache.insert(mean.clone(), OverlapReport::new(1.0, 0.5, 0.5));
        assert!(cache.get(&mean).is_some());
        assert!(
            cache.get(&p95).is_none(),
            "a mean-tuned entry must miss under a percentile objective"
        );
    }
}

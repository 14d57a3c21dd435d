//! The tuning service: one LRU warm map, deduplicated cold searches.
//!
//! Requests resolve in three ways, counted by the probe registry:
//!
//! * **warm** (`serve.requests.warm`) — the request key is in the in-memory
//!   result map; the answer is one read lock away, microseconds end to end.
//! * **cold** (`serve.requests.cold`) — this request is the first for its
//!   key: it becomes the *leader*, runs [`autotune::run_tune`] (the search
//!   every front end runs, persistent [`TuneCache`] included), publishes
//!   the result and wakes the waiters.
//! * **deduped** (`serve.requests.deduped`) — an identical request arrived
//!   while a leader was already searching; it blocks on the leader's
//!   in-flight slot instead of starting a second search. N simultaneous
//!   identical cold requests cost exactly one search.
//!
//! A request's key is the [`TuneCache::oracle_prefix`] of the oracle its
//! search prices, built by [`autotune::WorkloadSpec::oracle`] like every
//! front end's oracle, so warm identity and on-disk identity are one
//! function.
//!
//! The persistent [`TuneCache`] is the service's write-behind layer: each
//! cold search opens it, reuses any priced candidates, and flushes its new
//! entries at the end (atomically, merged with concurrent writers). A
//! restarted daemon therefore warms straight from disk — the first request
//! per key still runs a "search", but one in which every candidate is a
//! cache hit (`evals=0`). Entries another cost model wrote for the same
//! workload and cluster stay in the file: they miss under this daemon's
//! revision and still hit when a run under their own model asks again.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use tilelink_probe::metrics::{
    SERVE_CACHE_EVICTIONS, SERVE_INFLIGHT, SERVE_POOL_ACTIVE, SERVE_POOL_QUEUED,
    SERVE_POOL_REJECTED, SERVE_REQUESTS_COLD, SERVE_REQUESTS_DEDUPED, SERVE_REQUESTS_WARM,
};
use tilelink_sim::{ClusterSpec, CostModelSpec, SharedCost};
use tilelink_tune::{cluster_key, CostOracle, TuneCache};
use tilelink_workloads::autotune::{self, TuneOptions, TunedLayer};

use crate::protocol::{OkFields, TuneRequest};

/// Results the warm map holds before it evicts. `seed=<u64>` lets any client
/// mint unbounded distinct keys, so this cap is the daemon's memory bound.
const WARM_ENTRIES: usize = 4096;

/// How a request was answered (the `source=` response field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served from the in-memory warm map.
    Warm,
    /// This request ran the search.
    Cold,
    /// Piggybacked on another request's in-flight search.
    Deduped,
}

impl Source {
    /// Wire name of the source.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Warm => "warm",
            Source::Cold => "cold",
            Source::Deduped => "deduped",
        }
    }
}

/// The result of one tuning search, as cached and broadcast to waiters.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOutcome {
    /// `OverlapConfig::cache_key` of the winning configuration.
    pub config_key: String,
    /// Simulated total layer time under the winner, seconds.
    pub total_s: f64,
    /// Exposed communication seconds under the winner.
    pub comm_s: f64,
    /// Computation seconds under the winner.
    pub comp_s: f64,
    /// Oracle evaluations the search ran.
    pub evaluations: usize,
    /// Candidates answered from the persistent cache.
    pub cache_hits: usize,
}

impl From<&TunedLayer> for TuneOutcome {
    fn from(tuned: &TunedLayer) -> Self {
        Self {
            config_key: tuned.config.cache_key(),
            total_s: tuned.layer.total_s,
            comm_s: tuned.layer.comm_only_s,
            comp_s: tuned.layer.comp_only_s,
            evaluations: tuned.search.evaluations,
            cache_hits: tuned.search.cache_hits,
        }
    }
}

impl TuneOutcome {
    /// The response payload for this outcome.
    pub fn ok_fields(&self, workload: &str, source: Source) -> OkFields {
        OkFields {
            workload: workload.to_string(),
            source: source.as_str().to_string(),
            config: self.config_key.clone(),
            total_ms: self.total_s * 1e3,
            comm_ms: self.comm_s * 1e3,
            comp_ms: self.comp_s * 1e3,
            evals: self.evaluations,
            cache_hits: self.cache_hits,
        }
    }
}

/// Search failures are broadcast to every waiter as strings (the search
/// error types are not `Clone`).
type SearchResult = Result<TuneOutcome, String>;

/// One warm result plus its recency stamp, a logical access number bumped
/// with a relaxed atomic so a hit needs only the map's read lock
/// (wall-clock stamps would tie within a microsecond).
struct WarmEntry {
    outcome: TuneOutcome,
    last_used: AtomicU64,
}

/// The warm path: one lock-guarded map of finished searches. Past `cap`
/// entries an insert evicts the least recently used entry of the whole map
/// (counted in `serve.cache.evictions`).
struct WarmMap {
    entries: RwLock<HashMap<String, WarmEntry>>,
    cap: usize,
    /// The logical clock feeding [`WarmEntry::last_used`].
    clock: AtomicU64,
}

impl WarmMap {
    fn new(cap: usize) -> Self {
        Self {
            entries: RwLock::new(HashMap::new()),
            cap,
            clock: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn get(&self, key: &str) -> Option<TuneOutcome> {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        let entry = entries.get(key)?;
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        Some(entry.outcome.clone())
    }

    fn insert(&self, key: String, outcome: TuneOutcome) {
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        let last_used = AtomicU64::new(self.tick());
        entries.insert(key, WarmEntry { outcome, last_used });
        if entries.len() > self.cap {
            let oldest = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
                .expect("a map over its cap is not empty");
            entries.remove(&oldest);
            SERVE_CACHE_EVICTIONS.inc();
        }
    }

    fn len(&self) -> usize {
        self.entries.read().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// One in-flight cold search: waiters block on the condvar until the leader
/// publishes into the slot.
#[derive(Default)]
struct Flight {
    slot: Mutex<Option<SearchResult>>,
    done: Condvar,
}

impl Flight {
    fn wait(&self) -> SearchResult {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn publish(&self, result: SearchResult) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(result);
        self.done.notify_all();
    }
}

/// The search function a [`TuneService`] runs on a cold miss, given the
/// request and the oracle its key came from. Injectable so tests can count
/// invocations against a slow stub instead of a real search.
pub type SearchFn =
    dyn Fn(&TuneRequest, &dyn CostOracle, &ServeOptions) -> SearchResult + Send + Sync;

/// Configuration of a [`TuneService`]. Every cold search is
/// [`autotune::run_tune`], the search the `tuned_full_*` constructors run
/// (the standard space with the default beam), so a reply names the winner
/// those constructors return.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Cost model every search prices against.
    pub cost: CostModelSpec,
    /// Persistent write-behind cache file; `None` keeps searches in-memory.
    pub cache_path: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            cost: CostModelSpec::Analytic,
            cache_path: Some(TuneCache::default_path()),
        }
    }
}

/// The tuning service shared by every connection of the daemon.
///
/// It holds no search of its own: a request's oracle comes from
/// [`autotune::WorkloadSpec::oracle`] and a cold miss runs
/// [`autotune::run_tune`] on it, as every front end does. The service adds
/// only what a long-running daemon needs around them: the warm map, the
/// deduplication of concurrent cold misses, and one kept cost provider per
/// cluster that has produced a result.
pub struct TuneService {
    opts: ServeOptions,
    results: WarmMap,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    /// One provider per cluster that has produced a result, keyed by
    /// [`cluster_key`]; providers embed their cluster, so one per topology
    /// serves every request for it. Every warm entry's cluster is here.
    providers: Mutex<HashMap<String, SharedCost>>,
    search: Box<SearchFn>,
}

impl std::fmt::Debug for TuneService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuneService")
            .field("opts", &self.opts)
            .field("cached", &self.results.len())
            .finish_non_exhaustive()
    }
}

impl TuneService {
    /// Creates a service whose cold misses run [`autotune::run_tune`],
    /// through the persistent cache at [`ServeOptions::cache_path`] when one
    /// is set.
    pub fn new(opts: ServeOptions) -> Self {
        Self::with_search(
            opts,
            Box::new(|_req, oracle, opts| {
                let tune = TuneOptions {
                    cache_path: opts.cache_path.clone(),
                    ..TuneOptions::default()
                };
                let tuned = autotune::run_tune(oracle, &tune).map_err(|e| e.to_string())?;
                Ok(TuneOutcome::from(&tuned))
            }),
        )
    }

    /// Creates a service with an injected search function (tests use a slow
    /// counting stub to prove dedup semantics).
    pub fn with_search(opts: ServeOptions, search: Box<SearchFn>) -> Self {
        Self {
            opts,
            results: WarmMap::new(WARM_ENTRIES),
            inflight: Mutex::new(HashMap::new()),
            providers: Mutex::new(HashMap::new()),
            search,
        }
    }

    /// Entries in the warm result map.
    pub fn cached_results(&self) -> usize {
        self.results.len()
    }

    /// The kept provider of the cluster keyed `cluster_key`, if any.
    fn kept_provider(&self, cluster_key: &str) -> Option<SharedCost> {
        let providers = self.providers.lock().unwrap_or_else(|e| e.into_inner());
        providers.get(cluster_key).cloned()
    }

    /// The cost provider for `cluster`: the kept one, or a new one built
    /// outside the map's lock, so reading a calibrated TSV never blocks the
    /// reactor's warm probe. [`TuneService::tune`] keeps a new provider only
    /// once its cluster has produced a result, so requests for clusters no
    /// workload supports leave nothing behind.
    fn provider_for(&self, cluster: &ClusterSpec) -> Result<SharedCost, String> {
        match self.kept_provider(&cluster_key(cluster)) {
            Some(cost) => Ok(cost),
            None => self.opts.cost.build(cluster).map_err(|e| e.to_string()),
        }
    }

    /// Warm-map-only probe: answers from memory without ever running — or
    /// waiting on — a search. `None` means the request needs the cold path.
    ///
    /// This is the daemon front end's fast path: it never blocks beyond the
    /// warm map's read lock, so the reactor thread can answer warm hits
    /// inline instead of paying two scheduler hops through the worker pool.
    /// A cluster without a kept cost provider has no warm entries (a
    /// provider is kept before its cluster's first result is published), so
    /// the probe only reuses a kept provider and never constructs one.
    pub fn try_warm(&self, req: &TuneRequest) -> Option<(TuneOutcome, Source)> {
        // The kept provider's cluster has this key, so the oracle's prefix
        // reuses it instead of formatting it again.
        let cluster = cluster_key(&req.cluster);
        let cost = self.kept_provider(&cluster)?;
        let oracle = req.workload.oracle(cost, req.objective);
        let key = TuneCache::key_prefix(
            &oracle.workload_key(),
            &cluster,
            &oracle.cost_revision(),
            &oracle.objective().key(),
        );
        let outcome = self.results.get(&key)?;
        SERVE_REQUESTS_WARM.inc();
        Some((outcome, Source::Warm))
    }

    /// Answers one tuning request: warm hit, in-flight piggyback, or leader
    /// search (see the module docs for the three paths).
    ///
    /// # Errors
    ///
    /// Returns the (stringified) search or cost-model error; parse errors
    /// never reach this layer.
    pub fn tune(&self, req: &TuneRequest) -> Result<(TuneOutcome, Source), String> {
        let _inflight = InflightGuard::new();
        self.tune_inner(req)
    }

    fn tune_inner(&self, req: &TuneRequest) -> Result<(TuneOutcome, Source), String> {
        let cost = self.provider_for(&req.cluster)?;
        let oracle = req.workload.oracle(cost.clone(), req.objective);
        let key = TuneCache::oracle_prefix(&oracle);

        if let Some(outcome) = self.results.get(&key) {
            SERVE_REQUESTS_WARM.inc();
            return Ok((outcome, Source::Warm));
        }

        // Join an in-flight search for this key, or become its leader. The
        // map is the only cross-key shared state on the cold path and is
        // held just long enough to decide.
        enum Role {
            Leader(Arc<Flight>),
            Follower(Arc<Flight>),
        }
        let role = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match inflight.get(&key) {
                Some(flight) => Role::Follower(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight::default());
                    inflight.insert(key.clone(), Arc::clone(&flight));
                    Role::Leader(flight)
                }
            }
        };

        match role {
            Role::Follower(flight) => {
                let result = flight.wait();
                SERVE_REQUESTS_DEDUPED.inc();
                result.map(|outcome| (outcome, Source::Deduped))
            }
            Role::Leader(flight) => {
                // If the search panics, the guard's Drop still deregisters
                // the flight and publishes an error — waiters get `ERR`
                // instead of blocking forever on a leader that unwound.
                let mut guard = LeaderGuard {
                    service: self,
                    key: &key,
                    flight: &flight,
                    armed: true,
                };
                let result = (self.search)(req, &oracle, &self.opts);
                guard.armed = false;
                drop(guard);
                if let Ok(outcome) = &result {
                    // Keep the provider first: a warm entry whose cluster has
                    // no provider would be invisible to `try_warm`.
                    self.providers
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .entry(cluster_key(&req.cluster))
                        .or_insert(cost);
                    self.results.insert(key.clone(), outcome.clone());
                }
                // Deregister *after* publishing to the warm map: a request
                // arriving in between sees either the in-flight entry or the
                // warm result, never a gap that would start a second search.
                self.inflight
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(&key);
                flight.publish(result.clone());
                SERVE_REQUESTS_COLD.inc();
                result.map(|outcome| (outcome, Source::Cold))
            }
        }
    }

    /// One-line snapshot of the serve counters (the `STATS` response body):
    /// request sources, warm-map occupancy and evictions, and request-pool
    /// pressure.
    pub fn stats_line(&self) -> String {
        format!(
            "warm={} cold={} deduped={} inflight={} cached={} evictions={} \
             pool_queued={} pool_active={} pool_rejected={}",
            SERVE_REQUESTS_WARM.get(),
            SERVE_REQUESTS_COLD.get(),
            SERVE_REQUESTS_DEDUPED.get(),
            SERVE_INFLIGHT.get(),
            self.results.len(),
            SERVE_CACHE_EVICTIONS.get(),
            SERVE_POOL_QUEUED.get(),
            SERVE_POOL_ACTIVE.get(),
            SERVE_POOL_REJECTED.get(),
        )
    }
}

/// RAII owner of one unit of the `serve.inflight` gauge: constructed on
/// request entry, decremented on drop — error returns and unwinding panics
/// can no longer leak the gauge upward.
struct InflightGuard;

impl InflightGuard {
    fn new() -> Self {
        SERVE_INFLIGHT.add(1);
        InflightGuard
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        SERVE_INFLIGHT.add(-1);
    }
}

/// Unwind insurance for a cold-search leader: while `armed`, dropping the
/// guard (i.e. the search panicked) deregisters the in-flight entry and
/// publishes an error so followers wake with `ERR` instead of waiting on a
/// flight nobody will ever land.
struct LeaderGuard<'a> {
    service: &'a TuneService,
    key: &'a str,
    flight: &'a Flight,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.service
                .inflight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(self.key);
            self.flight
                .publish(Err("search panicked before producing a result".to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_command, Command};

    fn request(line: &str) -> TuneRequest {
        match parse_command(line).unwrap() {
            Command::Tune(req) => *req,
            other => panic!("expected TUNE, got {other:?}"),
        }
    }

    fn stub_service(counter: Arc<std::sync::atomic::AtomicUsize>) -> TuneService {
        let opts = ServeOptions {
            cache_path: None,
            ..ServeOptions::default()
        };
        TuneService::with_search(
            opts,
            Box::new(move |req, _cost, _opts| {
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
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
    fn warm_hits_after_one_cold_search() {
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let service = stub_service(Arc::clone(&calls));
        let req = request("TUNE workload=MLP-1");

        let (first, source) = service.tune(&req).unwrap();
        assert_eq!(source, Source::Cold);
        let (second, source) = service.tune(&req).unwrap();
        assert_eq!(source, Source::Warm);
        assert_eq!(first, second);
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn distinct_quintuple_axes_get_distinct_searches() {
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let service = stub_service(Arc::clone(&calls));
        for line in [
            "TUNE workload=MLP-1",
            "TUNE workload=MLP-2",
            "TUNE workload=MLP-1 cluster=h800x4",
            "TUNE workload=MoE-1",
            "TUNE workload=MoE-1 routing=zipf:1.2",
            "TUNE workload=MoE-1 routing=zipf:1.2 objective=p95",
            "TUNE workload=MoE-1 routing=zipf:1.2 seed=7",
        ] {
            let (_, source) = service.tune(&request(line)).unwrap();
            assert_eq!(source, Source::Cold, "{line} should be a fresh key");
        }
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 7);
        assert_eq!(service.cached_results(), 7);
    }

    #[test]
    fn search_errors_are_not_cached() {
        let attempts = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let attempts_in_stub = Arc::clone(&attempts);
        let service = TuneService::with_search(
            ServeOptions {
                cache_path: None,
                ..ServeOptions::default()
            },
            Box::new(move |_req, _cost, _opts| {
                let n = attempts_in_stub.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if n == 0 {
                    Err("transient failure".to_string())
                } else {
                    Ok(TuneOutcome {
                        config_key: "recovered".into(),
                        total_s: 1e-3,
                        comm_s: 4e-4,
                        comp_s: 8e-4,
                        evaluations: 1,
                        cache_hits: 0,
                    })
                }
            }),
        );
        let req = request("TUNE workload=MLP-1");
        assert!(service.tune(&req).is_err());
        assert_eq!(service.cached_results(), 0, "failures must not be cached");
        let (outcome, source) = service.tune(&req).unwrap();
        assert_eq!(
            source,
            Source::Cold,
            "a retry after a failure searches again"
        );
        assert_eq!(outcome.config_key, "recovered");
    }

    #[test]
    fn warm_and_disk_identity_share_the_quintuple_prefix() {
        let service = TuneService::new(ServeOptions {
            cache_path: None,
            ..ServeOptions::default()
        });
        let req = request("TUNE workload=MoE-2 routing=hot:2 objective=p95");
        let cost = service.provider_for(&req.cluster).unwrap();
        let key = TuneCache::oracle_prefix(&req.workload.oracle(cost, req.objective));
        assert!(key.contains("moe/"), "workload part missing: {key}");
        assert!(key.contains("rt="), "routing part missing: {key}");
        assert!(key.contains("H800"), "cluster part missing: {key}");
        assert!(
            key.ends_with("|p95"),
            "objective must close the prefix: {key}"
        );
    }

    #[test]
    fn only_clusters_that_produced_a_result_keep_a_provider() {
        // The stub fails every search on three GPUs, as the real search does
        // (no token count splits over 3 ranks).
        let service = TuneService::with_search(
            ServeOptions {
                cache_path: None,
                ..ServeOptions::default()
            },
            Box::new(|req, _oracle, _opts| match req.cluster.world_size() {
                3 => Err("no config is supported".to_string()),
                _ => Ok(outcome(1)),
            }),
        );
        let providers = || service.providers.lock().unwrap().len();
        for line in [
            "TUNE workload=MLP-1 cluster=h800x3",
            "TUNE workload=MoE-1 cluster=h100x3",
            "TUNE workload=MLP-1 cluster=h800x3",
        ] {
            assert!(service.tune(&request(line)).is_err(), "{line}");
            assert!(service.try_warm(&request(line)).is_none(), "{line}");
        }
        assert_eq!(providers(), 0, "failed clusters must leave no provider");

        let req = request("TUNE workload=MLP-1 cluster=h800x4");
        assert_eq!(service.tune(&req).unwrap().1, Source::Cold);
        assert_eq!(providers(), 1);
        // The warm entry is reachable through the kept provider.
        assert_eq!(service.try_warm(&req), Some((outcome(1), Source::Warm)));
        let other = request("TUNE workload=MLP-2 cluster=h800x4");
        assert_eq!(service.tune(&other).unwrap().1, Source::Cold);
        assert_eq!(providers(), 1, "one provider per cluster");
    }

    #[test]
    fn cold_searches_keep_other_cost_models_entries_on_disk() {
        let dir = std::env::temp_dir().join(format!("tilelink-serve-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let service = TuneService::new(ServeOptions {
            cache_path: Some(path.clone()),
            ..ServeOptions::default()
        });
        // An entry for the same workload and cluster under another cost
        // model, as a `reproduce --tune --cost-model calibrated` run sharing
        // the default cache file leaves behind.
        let req = request("TUNE workload=MLP-1 cluster=h800x4");
        let cost = service.provider_for(&req.cluster).unwrap();
        let oracle = req.workload.oracle(cost, req.objective);
        let prefix = TuneCache::key_prefix(
            &oracle.workload_key(),
            &cluster_key(oracle.cluster()),
            "calibrated-0123456789abcdef",
            &req.objective.key(),
        );
        let other = TuneCache::key_in(&prefix, &tilelink::OverlapConfig::default());
        std::fs::write(&path, format!("{other}\t1.0e-3\t4.0e-4\t8.0e-4\n")).unwrap();

        let (outcome, source) = service.tune(&req).unwrap();
        assert_eq!(source, Source::Cold);
        assert!(outcome.evaluations > 0, "the other model's entry must miss");
        let disk = TuneCache::open(&path).unwrap();
        assert_eq!(
            disk.get(&other),
            Some(tilelink::OverlapReport::new(1.0e-3, 4.0e-4, 8.0e-4)),
            "a cold search must keep another cost model's entry on disk"
        );
        assert!(disk.len() > 1, "the search flushed its own entries too");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn outcome(n: usize) -> TuneOutcome {
        TuneOutcome {
            config_key: format!("cfg-{n}"),
            total_s: 1e-3,
            comm_s: 4e-4,
            comp_s: 8e-4,
            evaluations: n,
            cache_hits: 0,
        }
    }

    #[test]
    fn warm_map_roundtrip_and_replace() {
        let map = WarmMap::new(8);
        assert_eq!(map.len(), 0);
        map.insert("a".into(), outcome(1));
        map.insert("b".into(), outcome(2));
        map.insert("a".into(), outcome(3));
        assert_eq!(map.get("a"), Some(outcome(3)));
        assert_eq!(map.get("b"), Some(outcome(2)));
        assert_eq!(map.get("c"), None);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn warm_map_concurrent_readers_and_writers_agree() {
        let map = WarmMap::new(WARM_ENTRIES);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..100 {
                        map.insert(format!("t{t}-k{i}"), outcome(i));
                        assert_eq!(map.get(&format!("t{t}-k{i}")), Some(outcome(i)));
                    }
                });
            }
        });
        assert_eq!(map.len(), 800);
    }

    #[test]
    fn warm_map_holds_its_cap_under_churn() {
        let map = WarmMap::new(64);
        for i in 0..1000 {
            map.insert(format!("churn-key-{i}"), outcome(i));
            assert!(
                map.len() <= 64,
                "cap must hold at every step, len={} after {i} inserts",
                map.len()
            );
        }
        assert_eq!(map.len(), 64);
        // The survivors are exactly the 64 newest keys.
        assert!(map.get("churn-key-935").is_none());
        assert!((936..1000).all(|i| map.get(&format!("churn-key-{i}")).is_some()));
    }

    #[test]
    fn warm_map_evicts_the_least_recently_used() {
        let map = WarmMap::new(3);
        map.insert("a".into(), outcome(1));
        map.insert("b".into(), outcome(2));
        map.insert("c".into(), outcome(3));
        // Touch "a" so "b" is now the coldest.
        assert_eq!(map.get("a"), Some(outcome(1)));
        map.insert("d".into(), outcome(4));
        assert_eq!(map.get("b"), None, "coldest entry must be evicted");
        assert_eq!(map.get("a"), Some(outcome(1)));
        assert_eq!(map.get("c"), Some(outcome(3)));
        assert_eq!(map.get("d"), Some(outcome(4)));
    }
}

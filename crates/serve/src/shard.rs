//! A sharded concurrent map: the warm path of the serve daemon.
//!
//! Lock granularity is the point. A single `RwLock<HashMap>` would serialise
//! every warm hit behind one lock word; splitting the key space over N
//! independently locked shards lets N readers (and up to N writers) proceed
//! in parallel with nothing shared but the immutable shard vector. Keys are
//! assigned to shards by FNV-1a hash, which is cheap, has no per-process
//! randomisation (so shard occupancy is reproducible in tests) and mixes the
//! long, structured tuning keys well.
//!
//! # Eviction
//!
//! A daemon that never forgets grows without bound under key churn, so the
//! cache optionally enforces a [`CachePolicy`]: a per-shard LRU entry cap
//! (evictions counted in `serve.cache.evictions`) and a time-to-live measured
//! from an entry's last *access* (expiries counted in `serve.cache.expired`).
//! Recency is tracked with a relaxed atomic stamp per entry, so warm hits
//! still only take the shard's read lock. TTL expiry is enforced lazily on
//! `get` and eagerly by [`ShardedCache::purge_expired`], which the server's
//! maintenance tick calls periodically.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use tilelink_probe::metrics::{SERVE_CACHE_EVICTIONS, SERVE_CACHE_EXPIRED};

/// Number of shards [`ShardedCache::default`] uses — comfortably more than
/// the daemon's worker threads, so two concurrent warm hits rarely contend
/// on the same lock.
pub const DEFAULT_SHARDS: usize = 64;

/// Bounds on a [`ShardedCache`]: entry cap and idle time-to-live. The
/// default is unbounded with no expiry — the pre-policy behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CachePolicy {
    /// Total entry cap across all shards; `0` means unbounded. The cap is
    /// enforced per shard (`max_entries / shards`, at least 1 each, with the
    /// shard count clamped so the total never exceeds `max_entries`), evicting
    /// the shard's least-recently-used entry on overflow.
    pub max_entries: usize,
    /// Drop entries not accessed for this long; `None` disables expiry.
    pub ttl: Option<Duration>,
}

/// One cached value plus its recency bookkeeping, both bumped with relaxed
/// atomics so reads need only the shard's read lock: `seq` is a logical
/// access number (LRU ordering — wall-clock stamps tie within a
/// microsecond), `stamp_us` is microseconds since the cache's epoch (TTL).
#[derive(Debug)]
struct Entry<V> {
    value: V,
    seq: AtomicU64,
    stamp_us: AtomicU64,
}

impl<V> Entry<V> {
    fn touch(&self, seq: u64, now_us: u64) {
        self.seq.store(seq, Ordering::Relaxed);
        self.stamp_us.store(now_us, Ordering::Relaxed);
    }
}

/// A concurrent string-keyed map split over independently locked shards, with
/// optional per-shard LRU eviction and idle TTL (see [`CachePolicy`]).
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Vec<RwLock<HashMap<String, Entry<V>>>>,
    /// Entry cap per shard; `usize::MAX` when unbounded.
    per_shard_cap: usize,
    /// Idle TTL in microseconds; `None` disables expiry.
    ttl_us: Option<u64>,
    /// Zero point of the `stamp_us` stamps.
    epoch: Instant,
    /// Logical access clock feeding `Entry::seq`.
    clock: AtomicU64,
}

impl<V: Clone> Default for ShardedCache<V> {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl<V: Clone> ShardedCache<V> {
    /// Creates an unbounded cache with `shards` independently locked shards
    /// (at least 1).
    pub fn new(shards: usize) -> Self {
        Self::with_policy(shards, CachePolicy::default())
    }

    /// Creates a cache with `shards` shards bounded by `policy`. When the
    /// entry cap is smaller than the shard count, the shard count is reduced
    /// so the per-shard caps sum to at most `policy.max_entries`.
    pub fn with_policy(shards: usize, policy: CachePolicy) -> Self {
        let mut shards = shards.max(1);
        let per_shard_cap = if policy.max_entries == 0 {
            usize::MAX
        } else {
            shards = shards.min(policy.max_entries);
            policy.max_entries / shards
        };
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            per_shard_cap,
            ttl_us: policy.ttl.map(|d| d.as_micros() as u64),
            epoch: Instant::now(),
            clock: AtomicU64::new(0),
        }
    }

    /// Number of shards (fixed at construction).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total entries the cache will hold before evicting, or `None` when
    /// unbounded.
    pub fn capacity(&self) -> Option<usize> {
        (self.per_shard_cap != usize::MAX).then(|| self.per_shard_cap * self.shards.len())
    }

    /// Microseconds since the cache's epoch.
    fn tick(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Next logical access number (total order over gets and inserts).
    fn next_seq(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn expired(&self, entry_last_used: u64, now: u64) -> bool {
        self.ttl_us
            .is_some_and(|ttl| now.saturating_sub(entry_last_used) > ttl)
    }

    /// FNV-1a over the key bytes, reduced to a shard index.
    fn shard_of(&self, key: &str) -> usize {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in key.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash % self.shards.len() as u64) as usize
    }

    /// Clones the value under `key`, if present and not expired, holding only
    /// that shard's read lock on the hit path (recency is bumped through a
    /// relaxed atomic). An expired entry is removed (upgrading to the write
    /// lock), counted in `serve.cache.expired`, and reported as a miss.
    pub fn get(&self, key: &str) -> Option<V> {
        let idx = self.shard_of(key);
        let now = self.tick();
        {
            let shard = self.shards[idx].read().unwrap_or_else(|e| e.into_inner());
            match shard.get(key) {
                None => return None,
                Some(entry) if !self.expired(entry.stamp_us.load(Ordering::Relaxed), now) => {
                    entry.touch(self.next_seq(), now);
                    return Some(entry.value.clone());
                }
                Some(_) => {} // expired: fall through to the write path
            }
        }
        let mut shard = self.shards[idx].write().unwrap_or_else(|e| e.into_inner());
        // Re-check under the write lock: a concurrent insert may have
        // replaced the entry with a fresh one between the two locks.
        if let Some(entry) = shard.get(key) {
            if self.expired(entry.stamp_us.load(Ordering::Relaxed), now) {
                shard.remove(key);
                SERVE_CACHE_EXPIRED.inc();
            } else {
                let value = entry.value.clone();
                entry.touch(self.next_seq(), now);
                return Some(value);
            }
        }
        None
    }

    /// Inserts (or replaces) the value under `key`, holding only that shard's
    /// write lock, then evicts the shard's least-recently-used entries until
    /// it is back under its cap (counted in `serve.cache.evictions`).
    pub fn insert(&self, key: String, value: V) {
        let now = self.tick();
        let mut shard = self.shards[self.shard_of(&key)]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        shard.insert(
            key,
            Entry {
                value,
                seq: AtomicU64::new(self.next_seq()),
                stamp_us: AtomicU64::new(now),
            },
        );
        while shard.len() > self.per_shard_cap {
            let Some(oldest) = shard
                .iter()
                .min_by_key(|(_, e)| e.seq.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            shard.remove(&oldest);
            SERVE_CACHE_EVICTIONS.inc();
        }
    }

    /// Removes every expired entry right now and returns how many were
    /// dropped (also counted in `serve.cache.expired`). A no-op without a
    /// TTL. Called from the server's periodic maintenance tick so idle
    /// entries are reclaimed even when nothing touches their keys.
    pub fn purge_expired(&self) -> usize {
        if self.ttl_us.is_none() {
            return 0;
        }
        let now = self.tick();
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.write().unwrap_or_else(|e| e.into_inner());
            let before = shard.len();
            shard.retain(|_, e| !self.expired(e.stamp_us.load(Ordering::Relaxed), now));
            dropped += before - shard.len();
        }
        SERVE_CACHE_EXPIRED.add(dropped as u64);
        dropped
    }

    /// Total entries across all shards (takes each read lock in turn, so the
    /// count is only a snapshot under concurrent writers).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Returns `true` when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn roundtrip_and_replace() {
        let cache: ShardedCache<u32> = ShardedCache::new(8);
        assert!(cache.is_empty());
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        cache.insert("a".into(), 3);
        assert_eq!(cache.get("a"), Some(3));
        assert_eq!(cache.get("b"), Some(2));
        assert_eq!(cache.get("c"), None);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.capacity(), None);
    }

    #[test]
    fn zero_shards_is_clamped() {
        let cache: ShardedCache<u32> = ShardedCache::new(0);
        assert_eq!(cache.shards(), 1);
        cache.insert("k".into(), 7);
        assert_eq!(cache.get("k"), Some(7));
    }

    #[test]
    fn keys_spread_over_multiple_shards() {
        let cache: ShardedCache<usize> = ShardedCache::new(16);
        for i in 0..256 {
            cache.insert(format!("mlp/S8192-H4096|key-{i}"), i);
        }
        assert_eq!(cache.len(), 256);
        let occupied = (0..256)
            .map(|i| cache.shard_of(&format!("mlp/S8192-H4096|key-{i}")))
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(
            occupied > 8,
            "256 keys should land on most of 16 shards, got {occupied}"
        );
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let cache: Arc<ShardedCache<usize>> = Arc::new(ShardedCache::new(8));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..100 {
                        cache.insert(format!("t{t}-k{i}"), i);
                        assert_eq!(cache.get(&format!("t{t}-k{i}")), Some(i));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 800);
    }

    #[test]
    fn lru_eviction_holds_the_cap_under_churn() {
        let cache: ShardedCache<usize> = ShardedCache::with_policy(
            8,
            CachePolicy {
                max_entries: 64,
                ttl: None,
            },
        );
        assert_eq!(cache.capacity(), Some(64));
        for i in 0..1000 {
            cache.insert(format!("churn-key-{i}"), i);
            assert!(
                cache.len() <= 64,
                "cap must hold at every step, len={} after {i} inserts",
                cache.len()
            );
        }
        assert!(!cache.is_empty());
    }

    #[test]
    fn eviction_prefers_the_least_recently_used() {
        // One shard so every key competes in the same LRU domain.
        let cache: ShardedCache<u32> = ShardedCache::with_policy(
            1,
            CachePolicy {
                max_entries: 3,
                ttl: None,
            },
        );
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        cache.insert("c".into(), 3);
        // Touch "a" so "b" is now the coldest.
        assert_eq!(cache.get("a"), Some(1));
        cache.insert("d".into(), 4);
        assert_eq!(cache.get("b"), None, "coldest entry must be evicted");
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.get("c"), Some(3));
        assert_eq!(cache.get("d"), Some(4));
    }

    #[test]
    fn cap_smaller_than_shard_count_still_holds() {
        let cache: ShardedCache<u32> = ShardedCache::with_policy(
            64,
            CachePolicy {
                max_entries: 4,
                ttl: None,
            },
        );
        assert!(cache.capacity().unwrap() <= 4);
        for i in 0..100 {
            cache.insert(format!("k{i}"), i);
            assert!(cache.len() <= 4);
        }
    }

    #[test]
    fn ttl_expires_idle_entries() {
        let cache: ShardedCache<u32> = ShardedCache::with_policy(
            4,
            CachePolicy {
                max_entries: 0,
                ttl: Some(Duration::from_millis(30)),
            },
        );
        cache.insert("k".into(), 1);
        assert_eq!(cache.get("k"), Some(1));
        std::thread::sleep(Duration::from_millis(60));
        let before = SERVE_CACHE_EXPIRED.get();
        assert_eq!(cache.get("k"), None, "idle entry must expire");
        assert!(SERVE_CACHE_EXPIRED.get() > before);
        assert_eq!(cache.len(), 0, "expired entry is removed, not just hidden");
    }

    #[test]
    fn access_refreshes_the_ttl() {
        let cache: ShardedCache<u32> = ShardedCache::with_policy(
            4,
            CachePolicy {
                max_entries: 0,
                ttl: Some(Duration::from_millis(80)),
            },
        );
        cache.insert("hot".into(), 1);
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(40));
            assert_eq!(
                cache.get("hot"),
                Some(1),
                "an entry touched within its TTL must stay warm"
            );
        }
    }

    #[test]
    fn purge_expired_sweeps_untouched_entries() {
        let cache: ShardedCache<u32> = ShardedCache::with_policy(
            4,
            CachePolicy {
                max_entries: 0,
                ttl: Some(Duration::from_millis(20)),
            },
        );
        for i in 0..16 {
            cache.insert(format!("k{i}"), i);
        }
        assert_eq!(cache.purge_expired(), 0, "nothing expired yet");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(cache.purge_expired(), 16);
        assert!(cache.is_empty());
        // Without a TTL the purge is a no-op.
        let unbounded: ShardedCache<u32> = ShardedCache::new(2);
        unbounded.insert("k".into(), 1);
        assert_eq!(unbounded.purge_expired(), 0);
    }
}

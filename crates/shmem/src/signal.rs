//! Signal slots with release/acquire semantics (the symmetric control plane).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How long a waiter spins before yielding the thread.
const SPIN_BEFORE_YIELD: u32 = 64;

/// An array of 64-bit signal slots shared between ranks.
///
/// Signal slots are the implementation substrate of the paper's *signal
/// primitives* (`producer_tile_notify`, `consumer_tile_wait`, `peer_tile_notify`,
/// `peer_tile_wait`, `rank_notify`, `rank_wait`). The memory-consistency contract
/// of Section 3.2.1 is implemented directly:
///
/// * notify operations ([`SignalSet::set`], [`SignalSet::add`]) use **release**
///   ordering, so no prior memory access can be reordered after them;
/// * wait operations ([`SignalSet::wait_ge`]) use **acquire** ordering, so no later memory access can be reordered before
///   them.
///
/// A slot usually represents one *channel* of the tile-centric channel mapping
/// (`f_C` in Section 4.1): producers increment the slot once per finished tile,
/// and the consumer waits until the counter reaches the producer threshold.
///
/// # Example
///
/// ```
/// use tilelink_shmem::SignalSet;
///
/// let signals = SignalSet::new(4);
/// signals.add(2, 1);
/// signals.wait_ge(2, 1);
/// assert_eq!(signals.load(2), 1);
/// ```
#[derive(Clone)]
pub struct SignalSet {
    slots: Arc<[AtomicU64]>,
}

impl SignalSet {
    /// Creates `len` signal slots, all initialised to zero.
    pub fn new(len: usize) -> Self {
        let slots: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        Self {
            slots: slots.into(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Stores `value` into slot `index` with **release** ordering.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set(&self, index: usize, value: u64) {
        self.slots[index].store(value, Ordering::Release);
    }

    /// Adds `delta` to slot `index` with **release** ordering and returns the
    /// previous value.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn add(&self, index: usize, delta: u64) -> u64 {
        self.slots[index].fetch_add(delta, Ordering::Release)
    }

    /// Loads slot `index` with **acquire** ordering.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn load(&self, index: usize) -> u64 {
        self.slots[index].load(Ordering::Acquire)
    }

    /// Resets slot `index` to zero (release ordering).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn reset(&self, index: usize) {
        self.set(index, 0);
    }

    /// Blocks until slot `index` is at least `value` (acquire ordering).
    ///
    /// The waiter spins briefly and then yields to the scheduler, which keeps
    /// oversubscribed test configurations (many simulated blocks per hardware
    /// thread) from livelocking.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn wait_ge(&self, index: usize, value: u64) {
        let slot = &self.slots[index];
        let mut spins = 0u32;
        while slot.load(Ordering::Acquire) < value {
            spins += 1;
            if spins > SPIN_BEFORE_YIELD {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl std::fmt::Debug for SignalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignalSet")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn new_slots_start_at_zero() {
        let s = SignalSet::new(3);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        for i in 0..3 {
            assert_eq!(s.load(i), 0);
        }
    }

    #[test]
    fn set_and_load() {
        let s = SignalSet::new(1);
        s.set(0, 42);
        assert_eq!(s.load(0), 42);
    }

    #[test]
    fn add_returns_previous_value() {
        let s = SignalSet::new(1);
        assert_eq!(s.add(0, 5), 0);
        assert_eq!(s.add(0, 3), 5);
        assert_eq!(s.load(0), 8);
    }

    #[test]
    fn reset_and_reset_all() {
        let s = SignalSet::new(2);
        s.set(0, 1);
        s.set(1, 2);
        s.reset(0);
        assert_eq!(s.load(0), 0);
        assert_eq!(s.load(1), 2);
    }

    #[test]
    fn wait_ge_observes_writes_before_release() {
        // The canonical message-passing litmus test: the waiter must observe the
        // data store once it observes the signal.
        let s = SignalSet::new(1);
        let data = std::sync::Arc::new(AtomicU64::new(0));
        let (s2, data2) = (s.clone(), data.clone());
        let producer = thread::spawn(move || {
            data2.store(99, Ordering::Relaxed);
            s2.set(0, 1);
        });
        s.wait_ge(0, 1);
        assert_eq!(data.load(Ordering::Relaxed), 99);
        producer.join().unwrap();
    }

    #[test]
    fn concurrent_adds_accumulate() {
        let s = SignalSet::new(1);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                thread::spawn(move || {
                    for _ in 0..100 {
                        s.add(0, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.load(0), 400);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", SignalSet::new(1)).is_empty());
    }
}

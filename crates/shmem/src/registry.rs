//! Name-based symmetric allocation registry (the symmetric heap).

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

use crate::{Result, SharedBuffer, ShmemError, SignalSet};

/// What a symbol resolves to on one rank's heap.
#[derive(Clone, Debug)]
enum Symbol {
    Buffer(SharedBuffer),
    Signals(SignalSet),
}

/// A registry of named, per-rank symmetric allocations.
///
/// NVSHMEM's symmetric heap guarantees that every rank allocates the same
/// object at the same symmetric address, so a rank can compute a peer's pointer
/// from its own. We reproduce the addressing property with *names*: every rank
/// registers its local buffer under an agreed-upon name, and a peer resolves
/// `(rank, name)` to the remote handle. Lookups block until the owning rank has
/// performed its registration, mirroring the collective nature of
/// `nvshmem_malloc`.
///
/// The registry is typically used through [`crate::RankContext`]; it is public
/// so that host-side code (for example a benchmark harness that pre-allocates
/// weights) can also populate it.
pub struct SymmetricRegistry {
    world_size: usize,
    symbols: Mutex<HashMap<(usize, String), Symbol>>,
    registered: Condvar,
}

impl SymmetricRegistry {
    /// Creates an empty registry for `world_size` ranks.
    pub fn new(world_size: usize) -> Self {
        Self {
            world_size,
            symbols: Mutex::new(HashMap::new()),
            registered: Condvar::new(),
        }
    }

    /// Number of ranks this registry serves.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank >= self.world_size {
            return Err(ShmemError::InvalidRank {
                rank,
                world_size: self.world_size,
            });
        }
        Ok(())
    }

    /// Registers (or re-uses) a buffer of length `len` named `name` on `rank`.
    ///
    /// Registering the same name twice returns the existing buffer, so the call
    /// is idempotent, as long as the lengths agree.
    ///
    /// # Errors
    ///
    /// Returns [`ShmemError::InvalidRank`] for an out-of-range rank and
    /// [`ShmemError::LengthMismatch`] when re-registering with a different
    /// length.
    pub fn alloc_buffer(&self, rank: usize, name: &str, len: usize) -> Result<SharedBuffer> {
        self.check_rank(rank)?;
        let mut symbols = self.symbols.lock().expect("registry lock poisoned");
        let key = (rank, name.to_string());
        if let Some(Symbol::Buffer(existing)) = symbols.get(&key) {
            if existing.len() != len {
                return Err(ShmemError::LengthMismatch {
                    name: name.to_string(),
                    existing: existing.len(),
                    requested: len,
                });
            }
            return Ok(existing.clone());
        }
        let buffer = SharedBuffer::zeros(len);
        symbols.insert(key, Symbol::Buffer(buffer.clone()));
        self.registered.notify_all();
        Ok(buffer)
    }

    /// Registers (or re-uses) a signal set of `len` slots named `name` on `rank`.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`SymmetricRegistry::alloc_buffer`].
    pub fn alloc_signals(&self, rank: usize, name: &str, len: usize) -> Result<SignalSet> {
        self.check_rank(rank)?;
        let mut symbols = self.symbols.lock().expect("registry lock poisoned");
        let key = (rank, name.to_string());
        if let Some(Symbol::Signals(existing)) = symbols.get(&key) {
            if existing.len() != len {
                return Err(ShmemError::LengthMismatch {
                    name: name.to_string(),
                    existing: existing.len(),
                    requested: len,
                });
            }
            return Ok(existing.clone());
        }
        let signals = SignalSet::new(len);
        symbols.insert(key, Symbol::Signals(signals.clone()));
        self.registered.notify_all();
        Ok(signals)
    }

    /// Resolves the buffer named `name` on `rank`, blocking until it is registered.
    ///
    /// # Errors
    ///
    /// Returns [`ShmemError::InvalidRank`] for an out-of-range rank, or
    /// [`ShmemError::UnknownSymbol`] if the symbol resolves to a signal set
    /// instead of a buffer.
    pub fn buffer(&self, rank: usize, name: &str) -> Result<SharedBuffer> {
        self.check_rank(rank)?;
        let key = (rank, name.to_string());
        let mut symbols = self.symbols.lock().expect("registry lock poisoned");
        loop {
            match symbols.get(&key) {
                Some(Symbol::Buffer(b)) => return Ok(b.clone()),
                Some(Symbol::Signals(_)) => {
                    return Err(ShmemError::UnknownSymbol {
                        rank,
                        name: name.to_string(),
                    })
                }
                None => {
                    symbols = self
                        .registered
                        .wait(symbols)
                        .expect("registry lock poisoned")
                }
            }
        }
    }

    /// Resolves the signal set named `name` on `rank`, blocking until registered.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`SymmetricRegistry::buffer`].
    pub fn signals(&self, rank: usize, name: &str) -> Result<SignalSet> {
        self.check_rank(rank)?;
        let key = (rank, name.to_string());
        let mut symbols = self.symbols.lock().expect("registry lock poisoned");
        loop {
            match symbols.get(&key) {
                Some(Symbol::Signals(s)) => return Ok(s.clone()),
                Some(Symbol::Buffer(_)) => {
                    return Err(ShmemError::UnknownSymbol {
                        rank,
                        name: name.to_string(),
                    })
                }
                None => {
                    symbols = self
                        .registered
                        .wait(symbols)
                        .expect("registry lock poisoned")
                }
            }
        }
    }
}

impl std::fmt::Debug for SymmetricRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymmetricRegistry")
            .field("world_size", &self.world_size)
            .field(
                "symbols",
                &self.symbols.lock().expect("registry lock poisoned").len(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn alloc_and_lookup() {
        let reg = SymmetricRegistry::new(2);
        let b = reg.alloc_buffer(0, "x", 4).unwrap();
        b.store(0, 1.5);
        let again = reg.buffer(0, "x").unwrap();
        assert_eq!(again.load(0), 1.5);
    }

    #[test]
    fn alloc_is_idempotent() {
        let reg = SymmetricRegistry::new(1);
        let a = reg.alloc_buffer(0, "x", 4).unwrap();
        let b = reg.alloc_buffer(0, "x", 4).unwrap();
        a.store(1, 2.0);
        assert_eq!(b.load(1), 2.0);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let reg = SymmetricRegistry::new(1);
        reg.alloc_buffer(0, "x", 4).unwrap();
        let err = reg.alloc_buffer(0, "x", 8).unwrap_err();
        assert!(matches!(err, ShmemError::LengthMismatch { .. }));
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let reg = SymmetricRegistry::new(2);
        assert!(matches!(
            reg.alloc_buffer(5, "x", 1),
            Err(ShmemError::InvalidRank { .. })
        ));
        assert!(matches!(
            reg.buffer(5, "x"),
            Err(ShmemError::InvalidRank { .. })
        ));
    }

    #[test]
    fn kind_mismatch_is_unknown_symbol() {
        let reg = SymmetricRegistry::new(1);
        reg.alloc_signals(0, "sig", 2).unwrap();
        assert!(matches!(
            reg.buffer(0, "sig"),
            Err(ShmemError::UnknownSymbol { .. })
        ));
    }

    #[test]
    fn lookup_blocks_until_registration() {
        let reg = Arc::new(SymmetricRegistry::new(2));
        let reg2 = reg.clone();
        let waiter = thread::spawn(move || reg2.buffer(1, "late").unwrap().load(0));
        thread::sleep(std::time::Duration::from_millis(20));
        let b = reg.alloc_buffer(1, "late", 1).unwrap();
        b.store(0, 7.0);
        // The waiter may have resolved the handle before the store; both observing
        // 0.0 and 7.0 are legal. We only require that it unblocks.
        let v = waiter.join().unwrap();
        assert!(v == 0.0 || v == 7.0);
    }

    #[test]
    fn signal_alloc_and_lookup() {
        let reg = SymmetricRegistry::new(1);
        let s = reg.alloc_signals(0, "bar", 4).unwrap();
        s.set(3, 9);
        assert_eq!(reg.signals(0, "bar").unwrap().load(3), 9);
    }
}

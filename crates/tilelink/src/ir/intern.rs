//! String interning for IR names.
//!
//! Programs are rebuilt thousands of times during a tune, and every block and
//! buffer name used to be an owned `String` cloned through lowering,
//! pipelining and graph building. A [`Symbol`] is a `u32` handle into a global
//! intern table instead: constructing an op is a table lookup, copying one is
//! free, and comparing two is an integer compare. The table stores each
//! distinct string once for the lifetime of the process. It holds buffer
//! names, kernel names and block name patterns, which repeat across
//! candidates, so it stays small: a block's own name is a pattern plus its
//! indices ([`super::BlockName`]), not an interned string.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string: a copyable handle to a name in the global intern table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `name` and returns its handle. Interning the same string twice
    /// returns the same handle.
    pub fn intern(name: &str) -> Self {
        let mut t = interner().lock().expect("intern table poisoned");
        if let Some(&id) = t.by_name.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(t.names.len()).expect("intern table overflow");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        t.names.push(leaked);
        t.by_name.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().lock().expect("intern table poisoned").names[self.0 as usize]
    }
}

impl Default for Symbol {
    fn default() -> Self {
        Symbol::intern("")
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::intern(&s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Self {
        Symbol::intern(s)
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_round_trips() {
        let a = Symbol::intern("gathered");
        let b: Symbol = "gathered".into();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "gathered");
        assert_eq!(a, "gathered");
        assert_eq!("gathered", a);
        assert_eq!(format!("{a}"), "gathered");
        assert_eq!(format!("{a:?}"), "\"gathered\"");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::intern("intern-test-a");
        let b = Symbol::intern("intern-test-b");
        assert_ne!(a, b);
        let from_string: Symbol = String::from("intern-test-a").into();
        assert_eq!(a, from_string);
    }

    #[test]
    fn default_is_the_empty_string() {
        assert_eq!(Symbol::default().as_str(), "");
    }
}

//! Block names: a pattern interned once plus a block's indices.
//!
//! A builder names every block it emits (`ag/r3/b7`, `ggemm/r0/e5/d12`, ...)
//! and programs are rebuilt on every compile-cache miss, so formatting and
//! interning one string per block used to be a third of a builder's time and
//! left one leaked string per distinct name in the intern table. A
//! [`BlockName`] is instead a [`NamePattern`] (interned once per builder
//! call, with `{}` placeholders) plus up to three integer indices: `Copy`,
//! compared as plain data, and rendered only where a name is shown (task
//! labels, consistency errors, `Debug`).

use std::fmt;

use super::Symbol;

/// Most indices one [`BlockName`] carries.
const MAX_NAME_INDICES: usize = 3;

/// The interned text of a family of block names, whose `{}` placeholders
/// take each block's indices in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NamePattern {
    text: Symbol,
    placeholders: u8,
}

impl NamePattern {
    /// Interns `text`; each `{}` in it is a placeholder for one index.
    ///
    /// # Panics
    ///
    /// Panics if `text` has more than three placeholders.
    pub fn new(text: &str) -> Self {
        let placeholders = text.matches("{}").count();
        assert!(
            placeholders <= MAX_NAME_INDICES,
            "block name pattern {text:?} has {placeholders} placeholders, at most {MAX_NAME_INDICES} are supported"
        );
        Self {
            text: Symbol::intern(text),
            placeholders: placeholders as u8,
        }
    }

    /// The name of the block whose placeholders take `indices`.
    ///
    /// # Panics
    ///
    /// Panics if `N` differs from the pattern's placeholder count or an index
    /// exceeds `u32::MAX`.
    pub fn name<const N: usize>(self, indices: [usize; N]) -> BlockName {
        assert_eq!(
            N,
            usize::from(self.placeholders),
            "block name pattern takes {} indices",
            self.placeholders
        );
        let mut packed = [0u32; MAX_NAME_INDICES];
        for (slot, index) in packed.iter_mut().zip(indices) {
            *slot = u32::try_from(index).expect("block name index exceeds u32::MAX");
        }
        BlockName {
            pattern: self,
            indices: packed,
        }
    }
}

/// A block's name: a [`NamePattern`] plus the indices its placeholders take.
///
/// Names compare by pattern and indices, so a literal name and a pattern
/// name that render alike are different names. A literal name (`From<&str>`
/// or `From<String>`) has no placeholders and renders as itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockName {
    pattern: NamePattern,
    indices: [u32; MAX_NAME_INDICES],
}

impl BlockName {
    fn literal(text: &str) -> Self {
        Self {
            pattern: NamePattern {
                text: Symbol::intern(text),
                placeholders: 0,
            },
            indices: [0; MAX_NAME_INDICES],
        }
    }
}

impl fmt::Display for BlockName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.pattern.text.as_str();
        for index in &self.indices[..usize::from(self.pattern.placeholders)] {
            let (head, tail) = rest
                .split_once("{}")
                .expect("a pattern has one `{}` per index");
            write!(f, "{head}{index}")?;
            rest = tail;
        }
        f.write_str(rest)
    }
}

impl fmt::Debug for BlockName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl From<&str> for BlockName {
    fn from(text: &str) -> Self {
        Self::literal(text)
    }
}

impl From<String> for BlockName {
    fn from(text: String) -> Self {
        Self::literal(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_names_render_like_format() {
        let ggemm = NamePattern::new("ggemm/r{}/e{}/d{}");
        let name = ggemm.name([3, 17, 204]);
        assert_eq!(name.to_string(), format!("ggemm/r{}/e{}/d{}", 3, 17, 204));
        assert_eq!(format!("{name:?}"), "\"ggemm/r3/e17/d204\"");
        assert_eq!(
            NamePattern::new("agkv/r{}").name([0]).to_string(),
            "agkv/r0"
        );
        assert_eq!(NamePattern::new("plain").name([]).to_string(), "plain");
    }

    #[test]
    fn literal_names_render_as_themselves() {
        for text in ["gemm", "comm/r1", "odd{}name", ""] {
            assert_eq!(BlockName::from(text).to_string(), text);
            assert_eq!(BlockName::from(text.to_string()).to_string(), text);
        }
    }

    #[test]
    fn names_compare_by_pattern_and_indices() {
        let ag = NamePattern::new("ag/r{}/b{}");
        assert_eq!(ag.name([1, 2]), ag.name([1, 2]));
        assert_ne!(ag.name([1, 2]), ag.name([2, 1]));
        assert_ne!(ag.name([1, 2]), BlockName::from("ag/r1/b2"));
    }

    #[test]
    #[should_panic(expected = "takes 2 indices")]
    fn wrong_index_count_panics() {
        NamePattern::new("ag/r{}/b{}").name([1]);
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn too_many_placeholders_panic() {
        NamePattern::new("{}{}{}{}");
    }
}

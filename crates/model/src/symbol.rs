//! String interning.
//!
//! Every identifier in a schema — class names, attribute names, enumeration
//! tokens such as `'Dove` — is interned into a [`Sym`], a small copyable
//! handle. A single [`Interner`] is owned by the
//! [`Schema`](crate::schema::Schema) so that symbol identity is well-defined
//! within one schema and comparisons are integer comparisons.

use std::collections::HashMap;
use std::fmt;

use crate::hash::FxBuildHasher;

/// An interned string handle.
///
/// `Sym`s are only meaningful relative to the [`Interner`] that produced
/// them; resolving a `Sym` from a different interner yields an unrelated
/// string (or panics if out of bounds).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The raw index of this symbol in its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol from its raw index — for storage codecs that
    /// persist symbol indexes. Only meaningful against the same interner
    /// the index came from.
    #[inline]
    pub const fn from_raw(raw: u32) -> Sym {
        Sym(raw)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// An append-only string interner.
#[derive(Default, Clone)]
pub struct Interner {
    strings: Vec<Box<str>>,
    index: HashMap<Box<str>, Sym, FxBuildHasher>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the existing handle if already present.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.index.get(s) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.strings.len()).expect("interner overflow"));
        self.strings.push(s.into());
        self.index.insert(s.into(), sym);
        sym
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.index.get(s).copied()
    }

    /// Resolves a handle back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.strings.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Person");
        let b = i.intern("Person");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        let mut i = Interner::new();
        let a = i.intern("Person");
        let b = i.intern("Employee");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "Person");
        assert_eq!(i.resolve(b), "Employee");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("Person").is_none());
        let s = i.intern("Person");
        assert_eq!(i.get("Person"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_string_is_internable() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
    }

    #[test]
    fn is_empty_reflects_state() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        i.intern("x");
        assert!(!i.is_empty());
    }
}

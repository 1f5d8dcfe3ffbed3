//! String interning for the detector's high-cardinality repeated strings.
//!
//! Every visit record repeats the same handful of strings thousands of
//! times across a campaign — partner names, bidder codes, slot codes, size
//! strings, channel labels, domains. Storing them as owned `String`s makes
//! the per-request hot path allocation-bound and the dataset
//! cache-hostile. [`Interner`] stores each distinct string once and hands
//! out copyable 4-byte [`Symbol`] handles; records store symbols, and the
//! analysis layer resolves them against the campaign-wide interner carried
//! by the dataset.
//!
//! ## Concurrency model
//!
//! The interner is deliberately *not* shared across threads. Each crawl
//! worker owns a private interner; the campaign collector re-interns every
//! record into the campaign interner in deterministic (day, site) order,
//! so symbol numbering is identical regardless of scheduling or
//! parallelism (see `hb-crawler`'s campaign module).

use hb_simnet::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// A handle to an interned string. `Symbol::EMPTY` (the default) always
/// resolves to `""` in every interner.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Symbol(u32);

impl Symbol {
    /// The empty string, pre-interned at index 0 by [`Interner::new`].
    pub const EMPTY: Symbol = Symbol(0);

    /// The raw index (stable within one interner).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True for the pre-interned empty string.
    pub fn is_empty(self) -> bool {
        self == Symbol::EMPTY
    }

    /// Rebuild a symbol from its raw index — wire decoding only. Kept
    /// crate-private so external code cannot forge symbols that bypass an
    /// interner; the wire decoder bounds-checks every index against the
    /// companion interner before constructing.
    pub(crate) const fn from_raw(raw: u32) -> Symbol {
        Symbol(raw)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// A string interner: each distinct string is stored once (an `Arc<str>`
/// shared between the lookup map and the index), and [`Interner::intern`]
/// is idempotent — the same text always yields the same [`Symbol`].
#[derive(Clone, Debug)]
pub struct Interner {
    strings: Vec<Arc<str>>,
    /// Fx-hashed: interning happens per record string on the crawl and
    /// merge hot paths; symbol numbering comes from `strings` order, so
    /// the hasher cannot influence any output.
    map: FxHashMap<Arc<str>, Symbol>,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl Interner {
    /// New interner with `""` pre-interned as [`Symbol::EMPTY`].
    pub fn new() -> Interner {
        let mut interner = Interner {
            strings: Vec::new(),
            map: FxHashMap::default(),
        };
        interner.intern("");
        interner
    }

    /// Intern `s`, returning its symbol (allocating only on first sight).
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let arc: Arc<str> = Arc::from(s);
        let sym = Symbol(self.strings.len() as u32);
        self.strings.push(arc.clone());
        self.map.insert(arc, sym);
        sym
    }

    /// Resolve a symbol to its text.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different interner with more
    /// entries than this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct strings (including the pre-interned `""`).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Always false: `""` is pre-interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate `(symbol, text)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_preinterned() {
        let mut i = Interner::new();
        assert_eq!(i.intern(""), Symbol::EMPTY);
        assert_eq!(i.resolve(Symbol::EMPTY), "");
        assert_eq!(Symbol::default(), Symbol::EMPTY);
        assert!(Symbol::EMPTY.is_empty());
    }

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("appnexus");
        let b = i.intern("rubicon");
        assert_ne!(a, b);
        assert_eq!(i.intern("appnexus"), a);
        assert_eq!(i.resolve(a), "appnexus");
        assert_eq!(i.resolve(b), "rubicon");
        assert_eq!(i.len(), 3, "two strings plus the empty string");
    }

    #[test]
    fn iteration_order_is_interning_order() {
        let mut i = Interner::new();
        i.intern("b");
        i.intern("a");
        let texts: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(texts, vec!["", "b", "a"]);
    }
}

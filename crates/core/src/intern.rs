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

use hb_simnet::FxHasher;
use std::fmt;
use std::hash::Hasher;

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

/// A string interner: each distinct string is stored once, and
/// [`Interner::intern`] is idempotent — the same text always yields the
/// same [`Symbol`].
///
/// All text lives in one buffer, string `i` at
/// `text[offsets[i]..offsets[i + 1]]`, so interning a new string copies
/// its bytes and allocates nothing else, and dropping an interner frees
/// three buffers however many strings it holds. Lookups go through an
/// open-addressed table of symbol indexes keyed by the Fx hash of the
/// text: interning happens per record string on the crawl, decode and
/// fold paths, and symbol numbering comes from insertion order, so the
/// hasher cannot influence any output.
#[derive(Clone, Debug)]
pub struct Interner {
    /// Every string's bytes, back to back, in symbol order.
    text: String,
    /// `offsets[i]..offsets[i + 1]` is string `i`'s span of `text`; one
    /// more entry than there are strings.
    offsets: Vec<u32>,
    /// Linear-probing table of `symbol index + 1` (0: an empty slot). Its
    /// length is a power of two, at least twice the number of strings.
    table: Vec<u32>,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

/// Slots of the smallest table: room for 8 strings.
const MIN_TABLE: usize = 16;

/// The table key of `s`. Fx is not collision-resistant; what it hashes
/// here is text the crawl produced or a chunk frame carried.
fn hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

impl Interner {
    /// New interner with `""` pre-interned as [`Symbol::EMPTY`].
    pub fn new() -> Interner {
        Interner::with_capacity(0)
    }

    /// [`Interner::new`], with room for `strings` strings, `""` included,
    /// before its table first grows.
    pub fn with_capacity(strings: usize) -> Interner {
        let slots = (2 * strings).next_power_of_two().max(MIN_TABLE);
        let mut offsets = Vec::with_capacity(strings + 1);
        offsets.push(0);
        let mut interner = Interner {
            text: String::new(),
            offsets,
            table: vec![0; slots],
        };
        interner.intern("");
        interner
    }

    /// Intern `s`, returning its symbol (copying its text only on first
    /// sight).
    pub fn intern(&mut self, s: &str) -> Symbol {
        let mask = self.table.len() - 1;
        let mut slot = hash(s) as usize & mask;
        loop {
            match self.table[slot] {
                0 => break,
                entry => {
                    let sym = Symbol(entry - 1);
                    if self.resolve(sym) == s {
                        return sym;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
        let sym = Symbol(self.len() as u32);
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("interned text stays under 4 GiB");
        self.offsets.push(end);
        self.table[slot] = sym.0 + 1;
        if 2 * self.len() > self.table.len() {
            self.grow();
        }
        sym
    }

    /// Double the table and re-seat every symbol.
    fn grow(&mut self) {
        let slots = 2 * self.table.len();
        let mask = slots - 1;
        let mut table = vec![0; slots];
        for (sym, s) in self.iter() {
            let mut slot = hash(s) as usize & mask;
            while table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            table[slot] = sym.0 + 1;
        }
        self.table = table;
    }

    /// Resolve a symbol to its text.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different interner with more
    /// entries than this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.index();
        &self.text[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of distinct strings (including the pre-interned `""`).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Always false: `""` is pre-interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate `(symbol, text)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.offsets
            .windows(2)
            .enumerate()
            .map(|(i, w)| (Symbol(i as u32), &self.text[w[0] as usize..w[1] as usize]))
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

    proptest::proptest! {
        /// The interner against a naive model, a `Vec<String>` searched
        /// front to back: over up to 400 draws from 341 possible strings
        /// the table grows from 16 slots to 1,024, and every symbol, the
        /// length, resolution and iteration order must match the model
        /// throughout. A wire round trip rebuilds the same interner.
        #[test]
        fn interner_matches_a_naive_model_across_table_growth(
            words in proptest::collection::vec(
                proptest::string::string_regex("[a-d]{0,4}").expect("pattern"),
                0..400,
            ),
        ) {
            let mut model = vec![String::new()];
            let mut interner = Interner::new();
            for w in &words {
                let want = model.iter().position(|m| m == w).unwrap_or_else(|| {
                    model.push(w.clone());
                    model.len() - 1
                });
                proptest::prop_assert_eq!(interner.intern(w).index(), want);
                proptest::prop_assert_eq!(interner.len(), model.len());
            }
            for w in &words {
                let sym = interner.intern(w);
                proptest::prop_assert_eq!(interner.resolve(sym), w.as_str());
            }
            proptest::prop_assert_eq!(interner.len(), model.len());
            let texts: Vec<&str> = interner.iter().map(|(_, s)| s).collect();
            proptest::prop_assert_eq!(&texts, &model);
            for (i, m) in model.iter().enumerate() {
                proptest::prop_assert_eq!(interner.resolve(Symbol(i as u32)), m.as_str());
            }

            let mut w = crate::WireWriter::new();
            crate::encode_interner(&interner, &mut w);
            let bytes = w.into_bytes();
            let back = crate::decode_interner(&mut crate::WireReader::new(&bytes))
                .expect("round trip");
            let back: Vec<&str> = back.iter().map(|(_, s)| s).collect();
            proptest::prop_assert_eq!(back, texts);
        }
    }
}

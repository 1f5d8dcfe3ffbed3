//! Compact strings for the HTTP hot path.
//!
//! Nearly every string flowing through the simulated HTTP layer is short:
//! hostnames (`pub1234.example`), parameter keys (`hb_bidder`), bidder
//! codes, slot codes, size strings, auction ids. Storing them as owned
//! `String`s makes every `Url` construction and every JSON payload a
//! chain of small heap allocations — the dominant cost of a simulated
//! visit once the detector itself is allocation-free.
//!
//! The type lives in `hb-simnet` (the workspace root crate) so that the
//! engine's own host-keyed structures — most importantly
//! [`FaultInjector`](crate::FaultInjector) outage sets — can share the
//! compact representation; `hb-http` re-exports it unchanged.
//!
//! [`HStr`] replaces `String` in those positions with a three-way
//! representation, all 24 bytes (the size of a `String`):
//!
//! * `Static` — a `&'static str` (parameter keys, paths, labels): zero
//!   allocation, zero copy;
//! * `Inline` — up to 22 bytes stored in place: zero allocation (covers
//!   hostnames, codes, auction ids, size strings);
//! * `Shared` — an `Arc<str>` for the long tail: one allocation on first
//!   creation, two atomic ops per clone afterwards.
//!
//! Equality, ordering and hashing delegate to the underlying `str`, so an
//! `HStr` behaves exactly like its text regardless of representation —
//! sorted containers keyed by `HStr` (e.g. `hb-http`'s sorted-vec
//! `JsonObj`) iterate in the same order as their `String`-keyed
//! equivalents, which is what keeps figure output byte-identical.

use std::borrow::{Borrow, Cow};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Maximum byte length stored inline.
pub const INLINE_CAP: usize = 22;

/// A compact immutable string: static, inline, or shared.
#[derive(Clone)]
pub struct HStr(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Shared(Arc<str>),
}

impl HStr {
    /// The empty string (no allocation).
    pub const EMPTY: HStr = HStr(Repr::Static(""));

    /// Wrap a `&'static str` without copying.
    pub const fn from_static(s: &'static str) -> HStr {
        HStr(Repr::Static(s))
    }

    /// Copy an arbitrary string, storing it inline when it fits.
    pub fn new(s: &str) -> HStr {
        if s.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            HStr(Repr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            HStr(Repr::Shared(Arc::from(s)))
        }
    }

    /// Build from a `Display` value through a stack buffer: short renders
    /// (auction ids, creative ids, prices) never touch the heap.
    pub fn from_display(value: impl fmt::Display) -> HStr {
        struct StackWriter {
            buf: [u8; 64],
            len: usize,
            spill: Option<String>,
        }
        impl fmt::Write for StackWriter {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                if let Some(sp) = &mut self.spill {
                    sp.push_str(s);
                    return Ok(());
                }
                if self.len + s.len() <= self.buf.len() {
                    self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
                    self.len += s.len();
                } else {
                    let mut sp = String::with_capacity(self.len + s.len());
                    // Safety not needed: the buffer only ever holds bytes
                    // copied from valid `&str` fragments at char breaks.
                    sp.push_str(std::str::from_utf8(&self.buf[..self.len]).unwrap_or(""));
                    sp.push_str(s);
                    self.spill = Some(sp);
                }
                Ok(())
            }
        }
        let mut w = StackWriter {
            buf: [0u8; 64],
            len: 0,
            spill: None,
        };
        use fmt::Write as _;
        let _ = write!(w, "{value}");
        match w.spill {
            Some(s) => HStr::from(s),
            None => HStr::new(std::str::from_utf8(&w.buf[..w.len]).unwrap_or("")),
        }
    }

    /// View as `&str`.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Inline { len, buf } => {
                let bytes = &buf[..*len as usize];
                debug_assert!(std::str::from_utf8(bytes).is_ok());
                // SAFETY: `Repr::Inline` is only ever constructed in
                // [`HStr::new`], which copies exactly `len` bytes from a
                // valid `&str`; the buffer is never mutated afterwards, so
                // `bytes` is always valid UTF-8. Skipping re-validation
                // here keeps `as_str` O(1) on the detector hot path.
                #[allow(unsafe_code)]
                unsafe {
                    std::str::from_utf8_unchecked(bytes)
                }
            }
            Repr::Shared(s) => s,
        }
    }

    /// Byte length.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_str().len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_str().is_empty()
    }
}

/// Lower-case an ASCII-ish component without allocating when it already
/// is lower-case (hostnames, schemes, header names — the common case).
pub fn lower_ascii(s: &str) -> HStr {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        HStr::from(s.to_ascii_lowercase())
    } else {
        HStr::new(s)
    }
}

impl HStr {
    /// Lower-case in the by-value form: an already-lowercase string is
    /// returned *as the same handle* — no copy, no fresh `Arc` for long
    /// shared strings — so registering an interned hostname under a
    /// lowercased key is a true handle clone.
    pub fn into_lower_ascii(self) -> HStr {
        if self.bytes().any(|b| b.is_ascii_uppercase()) {
            HStr::from(self.as_str().to_ascii_lowercase())
        } else {
            self
        }
    }
}

impl Default for HStr {
    fn default() -> HStr {
        HStr::EMPTY
    }
}

impl Deref for HStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for HStr {
    #[inline]
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for HStr {
    #[inline]
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for HStr {
    #[inline]
    fn from(s: &str) -> HStr {
        HStr::new(s)
    }
}

impl From<String> for HStr {
    fn from(s: String) -> HStr {
        if s.len() <= INLINE_CAP {
            HStr::new(&s)
        } else {
            HStr(Repr::Shared(Arc::from(s)))
        }
    }
}

impl From<&String> for HStr {
    fn from(s: &String) -> HStr {
        HStr::new(s)
    }
}

impl From<Cow<'_, str>> for HStr {
    fn from(s: Cow<'_, str>) -> HStr {
        match s {
            Cow::Borrowed(b) => HStr::new(b),
            Cow::Owned(o) => HStr::from(o),
        }
    }
}

impl From<HStr> for String {
    fn from(s: HStr) -> String {
        s.as_str().to_string()
    }
}

impl PartialEq for HStr {
    #[inline]
    fn eq(&self, other: &HStr) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for HStr {}

impl PartialEq<str> for HStr {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for HStr {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<HStr> for str {
    #[inline]
    fn eq(&self, other: &HStr) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<HStr> for &str {
    #[inline]
    fn eq(&self, other: &HStr) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<String> for HStr {
    #[inline]
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<HStr> for String {
    #[inline]
    fn eq(&self, other: &HStr) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for HStr {
    #[inline]
    fn partial_cmp(&self, other: &HStr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HStr {
    #[inline]
    fn cmp(&self, other: &HStr) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for HStr {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for HStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for HStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representations_compare_equal_by_content() {
        let a = HStr::from_static("hb_bidder");
        let b = HStr::new("hb_bidder");
        assert_eq!(a, b);
        assert_eq!(a, "hb_bidder");
        assert_eq!("hb_bidder", b);
        let long = "x".repeat(40);
        let c = HStr::new(&long);
        assert_eq!(c.as_str(), long);
        assert_eq!(c, HStr::from(long.clone()));
    }

    #[test]
    fn inline_boundary() {
        let at = "a".repeat(INLINE_CAP);
        let over = "a".repeat(INLINE_CAP + 1);
        assert_eq!(HStr::new(&at).as_str(), at);
        assert_eq!(HStr::new(&over).as_str(), over);
    }

    #[test]
    fn ordering_matches_str() {
        let mut v = [HStr::new("b"), HStr::from_static("a"), HStr::new("c")];
        v.sort();
        let texts: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
    }

    #[test]
    fn from_display_stays_on_stack_for_short_values() {
        let s = HStr::from_display(format_args!("auc-{}-{}", 1_000_000, 999_999_999));
        assert_eq!(s, "auc-1000000-999999999");
        let long = HStr::from_display(format_args!("{}", "y".repeat(100)));
        assert_eq!(long.len(), 100);
    }

    #[test]
    fn same_size_as_string() {
        assert_eq!(std::mem::size_of::<HStr>(), std::mem::size_of::<String>());
    }

    #[test]
    fn map_lookup_by_str_key() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<HStr, u32> = BTreeMap::new();
        m.insert(HStr::from_static("hb_pb"), 1);
        m.insert(HStr::new("channel"), 2);
        assert_eq!(m.get("hb_pb"), Some(&1));
        assert_eq!(m.get("channel"), Some(&2));
        assert_eq!(m.get("missing"), None);
    }
}

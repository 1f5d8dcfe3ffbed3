//! A minimal JSON value type with parser and serializer.
//!
//! Bid requests, bid responses and DOM event payloads in this reproduction
//! are structured data; a small self-contained JSON implementation keeps the
//! detector auditable and avoids pulling a serialization framework into the
//! measurement boundary. Supports the full JSON grammar except for
//! `\u` surrogate pairs being passed through unpaired.
//!
//! ## Representation and pooling
//!
//! Objects are a **sorted `Vec<(HStr, Json)>`** ([`JsonObj`]) with unique
//! keys, so iteration and serialization are byte-identical to the
//! previous `BTreeMap` representation by construction — while the whole
//! object lives in one contiguous spine instead of one node allocation
//! per key.
//!
//! Wire objects are small (a bid, a winner or an event payload holds at
//! most eight keys), and both operations the visit path runs on them are
//! shaped for that:
//!
//! * **Build in one sort.** [`Json::obj`] (any `collect` into a
//!   [`JsonObj`]) insertion-sorts the pairs into one pooled spine as they
//!   arrive, walking back from the end: already-sorted input costs one
//!   key comparison per pair, and a repeated key overwrites the value it
//!   already placed (last write wins, as `BTreeMap::insert`). No binary
//!   search and no second pass.
//! * **Look up linearly.** [`JsonObj::get`] and [`JsonObj::get_mut`] scan
//!   objects of up to [`LINEAR_LOOKUP_MAX`] keys with plain byte equality
//!   (a length check rejects most keys without touching their bytes) and
//!   binary-search larger ones. [`JsonObj::insert`] always
//!   binary-searches for its slot.
//!
//! Those spines (and array spines) are recycled through [`JsonScratch`],
//! a per-worker-thread pool mirroring `MsgScratch`: builders
//! ([`Json::obj`], [`Json::arr`]) and the parser draw cleared spines from
//! the pool, and [`Json::recycle`] walks a dead tree handing every spine
//! back. Message payloads that die inside a visit (request bodies after
//! dispatch, response bodies after parsing) therefore stop touching the
//! allocator in the steady state; trees that escape into records are
//! simply dropped as before — pooling is best-effort and behaviour-free.

use crate::hstr::HStr;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string (compact storage: static, inline, or shared).
    Str(HStr),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys for deterministic serialization).
    Obj(JsonObj),
}

/// A JSON object: key-sorted `Vec` of entries with unique keys.
///
/// Semantically a drop-in for the `BTreeMap<HStr, Json>` it replaced:
/// `insert` and `collect` keep entries sorted (last write to a key wins),
/// `get` finds the same entry a map lookup would (see the module docs for
/// how), iteration yields keys in ascending order. Equality,
/// ordering of serialization bytes, and parameter-flattening order are
/// therefore unchanged by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsonObj {
    entries: Vec<(HStr, Json)>,
}

impl JsonObj {
    /// An empty object backed by a recycled spine when one is pooled.
    pub fn new() -> JsonObj {
        JsonObj {
            entries: JsonScratch::take_obj_spine(),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the object has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Position of `key`, or where it would insert.
    #[inline]
    fn search(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Position of `key`, if present: a linear byte-equality scan up to
    /// [`LINEAR_LOOKUP_MAX`] keys, a binary search above.
    #[inline]
    fn position(&self, key: &str) -> Option<usize> {
        if self.entries.len() <= LINEAR_LOOKUP_MAX {
            self.entries.iter().position(|(k, _)| k.as_str() == key)
        } else {
            self.search(key).ok()
        }
    }

    /// Value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let i = self.position(key)?;
        Some(&self.entries[i].1)
    }

    /// Mutable value for `key`, if present.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        let i = self.position(key)?;
        Some(&mut self.entries[i].1)
    }

    /// Insert a key/value pair, keeping entries sorted. Returns the
    /// previous value when the key was already present (last write wins —
    /// `BTreeMap::insert` semantics).
    pub fn insert(&mut self, key: impl Into<HStr>, value: Json) -> Option<Json> {
        let key = key.into();
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Iterate `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&HStr, &Json)> {
        self.entries.iter().map(|e| (&e.0, &e.1))
    }
}

impl<'a> IntoIterator for &'a JsonObj {
    type Item = (&'a HStr, &'a Json);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (HStr, Json)>,
        fn(&'a (HStr, Json)) -> (&'a HStr, &'a Json),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|e| (&e.0, &e.1))
    }
}

/// Objects with at most this many keys are searched linearly by
/// [`JsonObj::get`]: below it a length-then-bytes equality scan beats the
/// ordered comparisons of a binary search. Every wire object the visit
/// path builds fits.
pub const LINEAR_LOOKUP_MAX: usize = 8;

impl FromIterator<(HStr, Json)> for JsonObj {
    /// Insertion sort into the pooled spine: each pair walks back from the
    /// end past greater keys, so already-sorted input costs one key
    /// comparison per pair. A key equal to one already placed replaces
    /// that entry's value in place (last write wins) — the same entries
    /// `insert` one pair at a time would leave.
    fn from_iter<T: IntoIterator<Item = (HStr, Json)>>(iter: T) -> JsonObj {
        let mut entries = JsonScratch::take_obj_spine();
        for (key, value) in iter {
            let mut at = entries.len();
            let mut order = Ordering::Less;
            while at > 0 {
                order = entries[at - 1].0.as_str().cmp(key.as_str());
                if order != Ordering::Greater {
                    break;
                }
                at -= 1;
            }
            if order == Ordering::Equal {
                entries[at - 1].1 = value;
            } else {
                entries.insert(at, (key, value));
            }
        }
        JsonObj { entries }
    }
}

/// Upper bound on pooled spines of each kind.
const SPINE_POOL_CAP: usize = 64;

/// Per-worker-thread recycling pool for JSON `Vec` spines (object entry
/// vectors and array element vectors), mirroring `MsgScratch`'s role for
/// query/header buffers. One pool per thread; builders and the parser pull
/// from it implicitly, [`Json::recycle`] pays trees back in.
#[derive(Default)]
pub struct JsonScratch {
    objs: Vec<Vec<(HStr, Json)>>,
    arrs: Vec<Vec<Json>>,
}

thread_local! {
    static JSON_SCRATCH: RefCell<JsonScratch> = RefCell::new(JsonScratch::default());
}

impl JsonScratch {
    /// A cleared object spine, recycled when the pool has one.
    fn take_obj_spine() -> Vec<(HStr, Json)> {
        JSON_SCRATCH.with(|s| s.borrow_mut().objs.pop().unwrap_or_default())
    }

    /// A cleared array spine, recycled when the pool has one.
    fn take_arr_spine() -> Vec<Json> {
        JSON_SCRATCH.with(|s| s.borrow_mut().arrs.pop().unwrap_or_default())
    }

    /// Recycle a dead JSON tree: every object and array spine with real
    /// capacity returns to this thread's pool (up to a fixed cap per spine
    /// kind); strings and scalars are dropped as usual.
    pub fn recycle(j: Json) {
        JSON_SCRATCH.with(|s| Self::recycle_into(&mut s.borrow_mut(), j));
    }

    fn recycle_into(pool: &mut JsonScratch, j: Json) {
        match j {
            Json::Arr(mut items) => {
                for item in items.iter_mut().filter(|j| j.is_container()) {
                    Self::recycle_into(pool, std::mem::replace(item, Json::Null));
                }
                items.clear();
                if items.capacity() > 0 && pool.arrs.len() < SPINE_POOL_CAP {
                    pool.arrs.push(items);
                }
            }
            Json::Obj(obj) => {
                let mut entries = obj.entries;
                for (_, v) in entries.iter_mut().filter(|(_, v)| v.is_container()) {
                    Self::recycle_into(pool, std::mem::replace(v, Json::Null));
                }
                entries.clear();
                if entries.capacity() > 0 && pool.objs.len() < SPINE_POOL_CAP {
                    pool.objs.push(entries);
                }
            }
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => {}
        }
    }

    /// Spines currently pooled on this thread, `(objects, arrays)` —
    /// diagnostics for the allocation tests.
    pub fn pooled_spines() -> (usize, usize) {
        JSON_SCRATCH.with(|s| {
            let s = s.borrow();
            (s.objs.len(), s.arrs.len())
        })
    }
}

/// Error from [`Json::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Shorthand: build an object from `(key, value)` pairs (last write
    /// to a duplicate key wins). The entry spine comes from this thread's
    /// [`JsonScratch`] pool when one is available.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (HStr::from_static(k), v))
                .collect(),
        )
    }

    /// Shorthand: build an array. The element spine comes from this
    /// thread's [`JsonScratch`] pool when one is available.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        let mut v = JsonScratch::take_arr_spine();
        v.extend(items);
        Json::Arr(v)
    }

    /// Hand a dead tree's spines back to this thread's [`JsonScratch`]
    /// pool (behaviour-free: purely an allocator-traffic optimization).
    pub fn recycle(self) {
        JsonScratch::recycle(self);
    }

    /// Shorthand: a string value.
    pub fn str(s: impl Into<HStr>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand: a numeric value.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// Field access on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Mutable field access on objects.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(m) => m.get_mut(key),
            _ => None,
        }
    }

    /// Insert into an object; no-op (returning false) on non-objects.
    pub fn insert(&mut self, key: impl Into<HStr>, value: Json) -> bool {
        match self {
            Json::Obj(m) => {
                m.insert(key.into(), value);
                true
            }
            _ => false,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The underlying [`HStr`], if this is a string. Callers that keep
    /// the value should clone this handle instead of re-building one from
    /// [`Json::as_str`] — an inline/static `HStr` copies in place and a
    /// shared one bumps its refcount, so nothing re-allocates even when
    /// the string is past the inline cap.
    pub fn as_hstr(&self) -> Option<&HStr> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean content, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array content, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object content, if this is an object.
    pub fn as_obj(&self) -> Option<&JsonObj> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Is this an array or an object (a value holding a pooled spine)?
    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Walk a dotted path (`"a.b.c"`) through nested objects.
    pub fn path(&self, dotted: &str) -> Option<&Json> {
        let mut cur = self;
        for part in dotted.split('.') {
            cur = cur.get(part)?;
        }
        Some(cur)
    }

    /// Parse a JSON document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Serialize to a compact JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                use fmt::Write as _;
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    // `iter` ascends sorted keys, so the serialized bytes
                    // match the former BTreeMap representation exactly.
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected literal {lit}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = JsonScratch::take_arr_spine();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = JsonObj::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<HStr, JsonError> {
        self.expect(b'"')?;
        // Fast path: no escape before the closing quote — borrow the slice
        // directly (short strings are then stored inline, unescaped text
        // never round-trips through a temporary `String`).
        let start = self.pos;
        let mut i = self.pos;
        while i < self.bytes.len() {
            match self.bytes[i] {
                b'"' => {
                    let text = std::str::from_utf8(&self.bytes[start..i])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    self.pos = i + 1;
                    return Ok(HStr::new(text));
                }
                b'\\' => break,
                _ => i += 1,
            }
        }
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(HStr::from(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parse_nested() {
        let doc = r#"{"bids":[{"bidder":"appnexus","cpm":0.52,"size":"300x250"}],"ok":true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.path("bids").unwrap().as_arr().unwrap()[0]
                .get("bidder")
                .unwrap()
                .as_str(),
            Some("appnexus")
        );
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn roundtrip() {
        let doc = r#"{"a":[1,2.5,null,"x\"y"],"b":{"c":false}}"#;
        let v = Json::parse(doc).unwrap();
        let s = v.to_string_compact();
        let v2 = Json::parse(&s).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn escapes() {
        let v = Json::parse(r#""line\nbreak\tand A""#).unwrap();
        assert_eq!(v.as_str(), Some("line\nbreak\tand A"));
        let out = Json::str("a\"b\\c\nd").to_string_compact();
        assert_eq!(Json::parse(&out).unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn errors_carry_position() {
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert!(e.at >= 6, "at {}", e.at);
        assert!(Json::parse("[1,2,").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn obj_builder_and_path() {
        let v = Json::obj([
            ("auction", Json::str("abc")),
            (
                "meta",
                Json::obj([("cpm", Json::num(0.31)), ("late", Json::Bool(false))]),
            ),
        ]);
        assert_eq!(v.path("meta.cpm").unwrap().as_f64(), Some(0.31));
        assert_eq!(v.path("meta.missing"), None);
        assert_eq!(v.path("auction").unwrap().as_str(), Some("abc"));
    }

    #[test]
    fn insert_only_on_objects() {
        let mut v = Json::obj([]);
        assert!(v.insert("k", Json::num(1.0)));
        assert_eq!(v.get("k").unwrap().as_f64(), Some(1.0));
        let mut arr = Json::Arr(vec![]);
        assert!(!arr.insert("k", Json::Null));
    }

    #[test]
    fn integer_formatting_is_compact() {
        assert_eq!(Json::num(300.0).to_string_compact(), "300");
        assert_eq!(Json::num(0.5).to_string_compact(), "0.5");
    }

    #[test]
    fn sorted_vec_object_duplicate_key_last_write_wins() {
        let mut obj = JsonObj::new();
        assert_eq!(obj.insert("k", Json::num(1.0)), None);
        assert_eq!(obj.insert("a", Json::num(2.0)), None);
        // Re-inserting replaces in place and returns the old value.
        assert_eq!(obj.insert("k", Json::num(3.0)), Some(Json::num(1.0)));
        assert_eq!(obj.len(), 2);
        assert_eq!(obj.get("k").unwrap().as_f64(), Some(3.0));
        // Builder sugar behaves the same way (BTreeMap collect semantics).
        let v = Json::obj([("k", Json::num(1.0)), ("k", Json::num(9.0))]);
        assert_eq!(v.get("k").unwrap().as_f64(), Some(9.0));
        assert_eq!(v.as_obj().unwrap().len(), 1);
        // And so does the parser.
        let p = Json::parse(r#"{"k":1,"k":9}"#).unwrap();
        assert_eq!(p.get("k").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn sorted_vec_object_lookup_miss_and_empty() {
        let empty = JsonObj::new();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.get("anything"), None);
        assert_eq!(Json::Obj(empty).to_string_compact(), "{}");

        let v = Json::obj([("bb", Json::num(1.0)), ("dd", Json::num(2.0))]);
        let obj = v.as_obj().unwrap();
        // Misses before, between, and after the sorted entries.
        assert_eq!(obj.get("aa"), None);
        assert_eq!(obj.get("cc"), None);
        assert_eq!(obj.get("zz"), None);
        assert_eq!(obj.get("bb").unwrap().as_f64(), Some(1.0));
        // get on non-objects stays None.
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::Arr(vec![]).get("k"), None);
    }

    #[test]
    fn sorted_vec_iteration_is_key_ascending() {
        let v = Json::obj([
            ("zeta", Json::num(1.0)),
            ("alpha", Json::num(2.0)),
            ("mid", Json::num(3.0)),
        ]);
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    /// Serializer fixtures captured from the `BTreeMap<HStr, Json>` build
    /// (the representation before the sorted-vec refactor). The new
    /// representation must reproduce these bytes exactly — this is the
    /// invariant that keeps figure CSVs byte-identical.
    #[test]
    fn serializer_byte_equivalent_to_btreemap_fixtures() {
        let cases: [(Json, &str); 4] = [
            (
                // Insertion order deliberately unsorted.
                Json::obj([
                    ("hb_slot", Json::str("ad-slot-1")),
                    ("bidder", Json::str("appnexus")),
                    ("cpm", Json::num(0.52)),
                    ("hb_size", Json::str("300x250")),
                ]),
                r#"{"bidder":"appnexus","cpm":0.52,"hb_size":"300x250","hb_slot":"ad-slot-1"}"#,
            ),
            (
                Json::obj([
                    (
                        "winners",
                        Json::arr([Json::obj([
                            ("hb_slot", Json::str("s1")),
                            ("channel", Json::str("hb")),
                        ])]),
                    ),
                    ("hb_auction", Json::str("auc-7")),
                ]),
                r#"{"hb_auction":"auc-7","winners":[{"channel":"hb","hb_slot":"s1"}]}"#,
            ),
            (
                Json::obj([("empty", Json::obj([])), ("arr", Json::arr([]))]),
                r#"{"arr":[],"empty":{}}"#,
            ),
            (
                Json::obj([
                    ("b", Json::Bool(true)),
                    ("a", Json::Null),
                    ("n", Json::num(300.0)),
                ]),
                r#"{"a":null,"b":true,"n":300}"#,
            ),
        ];
        for (value, expected) in cases {
            assert_eq!(value.to_string_compact(), expected);
            // Parsing the fixture reproduces the same value and bytes.
            let reparsed = Json::parse(expected).unwrap();
            assert_eq!(reparsed, value);
            assert_eq!(reparsed.to_string_compact(), expected);
        }
    }

    #[test]
    fn recycled_spines_are_reused_by_builders() {
        // Drain whatever this thread pooled so counts start known.
        JSON_SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            s.objs.clear();
            s.arrs.clear();
        });
        let tree = Json::obj([
            ("bids", Json::arr([Json::obj([("cpm", Json::num(0.4))])])),
            ("ok", Json::Bool(true)),
        ]);
        tree.recycle();
        let (objs, arrs) = JsonScratch::pooled_spines();
        assert!(objs >= 2, "outer + inner object spines pooled, got {objs}");
        assert!(arrs >= 1, "array spine pooled, got {arrs}");
        // Builders drain the pool again.
        let rebuilt = Json::obj([("x", Json::arr([Json::num(1.0)]))]);
        let (objs2, arrs2) = JsonScratch::pooled_spines();
        assert!(objs2 < objs);
        assert!(arrs2 < arrs);
        assert_eq!(rebuilt.to_string_compact(), r#"{"x":[1]}"#);
    }

    #[test]
    fn unicode_content_survives() {
        let v = Json::parse("\"héllo ▲\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ▲"));
        let rt = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(v, rt);
    }
}

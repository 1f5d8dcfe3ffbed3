//! URL parsing and construction.
//!
//! A deliberately small URL type covering what ad-tech traffic needs:
//! scheme, host, optional port, path, and a query-string multimap with
//! percent-encoding. Implemented in-repo so the detector's parameter
//! extraction is fully auditable.
//!
//! Hot-path notes: every component is an [`HStr`], so building a URL for a
//! bid request allocates nothing when the host, path and parameters are
//! short or static (the overwhelmingly common case). The query multimap's
//! entry storage can be loaned from a
//! [`MsgScratch`](crate::MsgScratch) pool and recycled between visits.

use crate::hstr::{lower_ascii, HStr};
use std::borrow::Cow;
use std::fmt;

/// Error produced when parsing a URL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UrlError {
    /// The scheme separator `://` was missing.
    MissingScheme,
    /// The host component was empty.
    EmptyHost,
    /// A port component failed to parse.
    BadPort(String),
}

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrlError::MissingScheme => write!(f, "missing '://' scheme separator"),
            UrlError::EmptyHost => write!(f, "empty host"),
            UrlError::BadPort(p) => write!(f, "invalid port: {p:?}"),
        }
    }
}

impl std::error::Error for UrlError {}

/// An ordered multimap of query parameters.
///
/// Preserves insertion order for serialization (ad servers are sensitive to
/// `hb_*` key ordering in logs) while allowing repeated keys.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryParams {
    entries: Vec<(HStr, HStr)>,
}

impl QueryParams {
    /// Empty parameter list.
    pub fn new() -> Self {
        QueryParams::default()
    }

    /// Build over recycled entry storage (see
    /// [`MsgScratch`](crate::MsgScratch)); the vector is cleared.
    pub fn with_storage(mut storage: Vec<(HStr, HStr)>) -> Self {
        storage.clear();
        QueryParams { entries: storage }
    }

    /// Take the entry storage back for recycling.
    pub fn into_storage(self) -> Vec<(HStr, HStr)> {
        self.entries
    }

    /// Parse from a raw query string (no leading `?`).
    pub fn parse(raw: &str) -> Self {
        let mut q = QueryParams::new();
        if raw.is_empty() {
            return q;
        }
        for pair in raw.split('&') {
            if pair.is_empty() {
                continue;
            }
            match pair.split_once('=') {
                Some((k, v)) => q.append(percent_decode(k), percent_decode(v)),
                None => q.append(percent_decode(pair), HStr::EMPTY),
            }
        }
        q
    }

    /// Append a key/value pair (repeated keys allowed).
    pub fn append(&mut self, key: impl Into<HStr>, value: impl Into<HStr>) {
        self.entries.push((key.into(), value.into()));
    }

    /// Set a key to a single value, removing previous occurrences.
    pub fn set(&mut self, key: &str, value: impl Into<HStr>) {
        self.entries.retain(|(k, _)| k != key);
        self.entries.push((HStr::new(key), value.into()));
    }

    /// First value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All values for `key`.
    pub fn get_all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Does `key` exist?
    pub fn contains(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// Iterate `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no pairs are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize (percent-encoded, insertion order).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push('&');
            }
            percent_encode_into(k, &mut out);
            out.push('=');
            percent_encode_into(v, &mut out);
        }
        out
    }
}

/// Characters that survive percent-encoding untouched (RFC 3986 unreserved).
fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~')
}

/// Uppercase hex digits, indexed by nibble.
const HEX_UPPER: &[u8; 16] = b"0123456789ABCDEF";

/// Percent-encode `s`, appending to `out` (no per-byte formatting
/// machinery: hex digits come from a lookup table).
pub fn percent_encode_into(s: &str, out: &mut String) {
    for &b in s.as_bytes() {
        if is_unreserved(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(HEX_UPPER[(b >> 4) as usize] as char);
            out.push(HEX_UPPER[(b & 0x0F) as usize] as char);
        }
    }
}

/// Percent-encode a string.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    percent_encode_into(s, &mut out);
    out
}

/// Percent-decode a string; invalid escapes are passed through literally.
/// `+` is decoded as a space (form encoding convention). Borrows the input
/// unchanged when it contains neither `%` nor `+` — the common case for
/// the simulator's already-clean query strings.
pub fn percent_decode(s: &str) -> Cow<'_, str> {
    let bytes = s.as_bytes();
    if !bytes.iter().any(|&b| b == b'%' || b == b'+') {
        return Cow::Borrowed(s);
    }
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = &s[i + 1..i + 3];
                if let Ok(v) = u8::from_str_radix(hex, 16) {
                    out.push(v);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    Cow::Owned(String::from_utf8_lossy(&out).into_owned())
}

/// A parsed URL.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Url {
    /// Scheme, e.g. `https`.
    pub scheme: HStr,
    /// Hostname, lower-cased.
    pub host: HStr,
    /// Optional explicit port.
    pub port: Option<u16>,
    /// Path beginning with `/` (defaults to `/`).
    pub path: HStr,
    /// Query parameters.
    pub query: QueryParams,
}

impl Url {
    /// Parse a URL string.
    pub fn parse(raw: &str) -> Result<Url, UrlError> {
        let (scheme, rest) = raw.split_once("://").ok_or(UrlError::MissingScheme)?;
        let (authority, path_query) = match rest.find('/') {
            Some(idx) => (&rest[..idx], &rest[idx..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(UrlError::EmptyHost);
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) if !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()) => {
                let port = p.parse::<u16>().map_err(|_| UrlError::BadPort(p.into()))?;
                (h, Some(port))
            }
            _ => (authority, None),
        };
        if host.is_empty() {
            return Err(UrlError::EmptyHost);
        }
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (HStr::new(p), QueryParams::parse(q)),
            None => (HStr::new(path_query), QueryParams::new()),
        };
        Ok(Url {
            scheme: lower_ascii(scheme),
            host: lower_ascii(host),
            port,
            path,
            query,
        })
    }

    /// Build a URL programmatically.
    pub fn build(scheme: &str, host: &str, path: &str) -> Url {
        Url {
            scheme: lower_ascii(scheme),
            host: lower_ascii(host),
            port: None,
            path: if path.starts_with('/') {
                HStr::new(path)
            } else {
                HStr::from(format!("/{path}"))
            },
            query: QueryParams::new(),
        }
    }

    /// `https://host/path` convenience constructor. Short hosts and paths
    /// are stored inline; neither touches the heap in the common case.
    pub fn https(host: &str, path: &str) -> Url {
        Url {
            scheme: HStr::from_static("https"),
            host: lower_ascii(host),
            port: None,
            path: if path.starts_with('/') {
                HStr::new(path)
            } else {
                HStr::from(format!("/{path}"))
            },
            query: QueryParams::new(),
        }
    }

    /// [`Url::https`] with pre-built components and recycled query storage
    /// — the zero-allocation constructor the visit hot path uses. The
    /// lower-case-host invariant is preserved: an already-lowercase host
    /// (the only thing the hot path passes) moves through untouched.
    pub fn https_pooled(host: HStr, path: HStr, query: QueryParams) -> Url {
        let host = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            HStr::from(host.to_ascii_lowercase())
        } else {
            host
        };
        Url {
            scheme: HStr::from_static("https"),
            host,
            port: None,
            path,
            query,
        }
    }

    /// Add a query parameter (builder style).
    pub fn with_param(mut self, key: impl Into<HStr>, value: impl Into<HStr>) -> Url {
        self.query.append(key, value);
        self
    }

    /// Does this URL's host equal `domain` or end with `.domain`?
    pub fn host_matches(&self, domain: &str) -> bool {
        host_matches(&self.host, domain)
    }

    /// Serialize back to a string.
    pub fn to_string_full(&self) -> String {
        let mut out = format!("{}://{}", self.scheme, self.host);
        if let Some(p) = self.port {
            use fmt::Write as _;
            let _ = write!(out, ":{p}");
        }
        out.push_str(&self.path);
        if !self.query.is_empty() {
            out.push('?');
            out.push_str(&self.query.encode());
        }
        out
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_full())
    }
}

/// The final two labels of a hostname (`a.b.c` → `b.c`).
pub fn base_domain_of(host: &str) -> &str {
    let mut dots = host.rmatch_indices('.');
    match (dots.next(), dots.next()) {
        (Some(_), Some((idx, _))) => &host[idx + 1..],
        _ => host,
    }
}

/// `host` equals `domain` or is a subdomain of it.
pub fn host_matches(host: &str, domain: &str) -> bool {
    host == domain
        || (host.len() > domain.len()
            && host.ends_with(domain)
            && host.as_bytes()[host.len() - domain.len() - 1] == b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_url() {
        let u = Url::parse("https://Ads.Example.com:8443/bid/v1?hb_bidder=appnexus&hb_pb=0.50")
            .unwrap();
        assert_eq!(u.scheme, "https");
        assert_eq!(u.host, "ads.example.com");
        assert_eq!(u.port, Some(8443));
        assert_eq!(u.path, "/bid/v1");
        assert_eq!(u.query.get("hb_bidder"), Some("appnexus"));
        assert_eq!(u.query.get("hb_pb"), Some("0.50"));
    }

    #[test]
    fn parse_without_path_defaults_root() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.path, "/");
        assert!(u.query.is_empty());
    }

    #[test]
    fn parse_errors() {
        assert_eq!(Url::parse("example.com/x"), Err(UrlError::MissingScheme));
        assert_eq!(Url::parse("https:///x"), Err(UrlError::EmptyHost));
        assert!(matches!(
            Url::parse("https://h:99999/"),
            Err(UrlError::BadPort(_))
        ));
    }

    #[test]
    fn roundtrip_display() {
        let raw = "https://dsp.adnet.example/hb/bid?a=1&b=two%20words";
        let u = Url::parse(raw).unwrap();
        let again = Url::parse(&u.to_string_full()).unwrap();
        assert_eq!(u, again);
    }

    #[test]
    fn query_multimap_semantics() {
        let q = QueryParams::parse("k=1&k=2&other=x");
        assert_eq!(q.get("k"), Some("1"));
        let all: Vec<&str> = q.get_all("k").collect();
        assert_eq!(all, vec!["1", "2"]);
        assert_eq!(q.len(), 3);
        assert!(q.contains("other"));
        assert!(!q.contains("missing"));
    }

    #[test]
    fn query_set_replaces() {
        let mut q = QueryParams::parse("k=1&k=2");
        q.set("k", "9");
        let all: Vec<&str> = q.get_all("k").collect();
        assert_eq!(all, vec!["9"]);
    }

    #[test]
    fn percent_coding_roundtrip() {
        let original = "a b&c=d/e?f";
        let enc = percent_encode(original);
        assert!(!enc.contains(' '));
        assert!(!enc.contains('&'));
        assert_eq!(percent_decode(&enc), original);
    }

    #[test]
    fn percent_decode_tolerates_garbage() {
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("a+b"), "a b");
    }

    #[test]
    fn percent_decode_borrows_clean_input() {
        assert!(matches!(
            percent_decode("clean-input_1.2~x"),
            Cow::Borrowed(_)
        ));
        assert!(matches!(percent_decode("has%20escape"), Cow::Owned(_)));
        assert!(matches!(percent_decode("plus+plus"), Cow::Owned(_)));
    }

    #[test]
    fn encode_hex_table_matches_format() {
        // Every byte the table encodes must render exactly like {:02X}.
        for b in 0u8..=255 {
            if is_unreserved(b) {
                continue;
            }
            let s = String::from_utf8_lossy(&[b]).into_owned();
            // Multi-byte lossy replacement still goes byte-by-byte through
            // the encoder; compare against the reference rendering.
            let enc = percent_encode(&s);
            for chunk in enc.split('%').skip(1) {
                assert_eq!(chunk.len(), 2);
                assert!(chunk.bytes().all(|c| c.is_ascii_hexdigit()));
                assert_eq!(chunk, chunk.to_ascii_uppercase());
            }
        }
        assert_eq!(percent_encode(" "), "%20");
        assert_eq!(percent_encode("/"), "%2F");
        assert_eq!(percent_encode("\u{7f}"), "%7F");
    }

    #[test]
    fn base_domain_and_matching() {
        let u = Url::parse("https://fast.cdn.prebid.org/lib.js").unwrap();
        assert_eq!(base_domain_of(&u.host), "prebid.org");
        assert!(u.host_matches("prebid.org"));
        assert!(u.host_matches("cdn.prebid.org"));
        assert!(!u.host_matches("ebid.org"));
        assert!(!u.host_matches("other.org"));
        assert_eq!(base_domain_of("localhost"), "localhost");
    }

    #[test]
    fn with_param_builder() {
        let u = Url::https("ads.example.com", "/bid")
            .with_param("hb_size", "300x250")
            .with_param("cpm", "0.42");
        assert!(u.to_string_full().contains("hb_size=300x250"));
        assert!(u.to_string_full().contains("cpm=0.42"));
    }

    #[test]
    fn pooled_storage_roundtrip() {
        let mut q = QueryParams::with_storage(vec![(HStr::new("old"), HStr::new("gone"))]);
        assert!(q.is_empty(), "storage is cleared on loan");
        q.append("k", "v");
        let storage = q.into_storage();
        assert_eq!(storage.len(), 1);
        let q2 = QueryParams::with_storage(storage);
        assert!(q2.is_empty());
    }
}

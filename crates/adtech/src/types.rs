//! Shared ad-tech domain types: ad sizes, CPM prices, facets, ad units.

use hb_http::HStr;
use std::fmt;

/// An ad creative size in pixels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AdSize {
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl AdSize {
    /// Construct a size.
    pub const fn new(w: u32, h: u32) -> AdSize {
        AdSize { w, h }
    }

    /// Area in square pixels.
    pub fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// Parse from `"300x250"` notation. The six standard sizes' exact
    /// labels are matched first; anything else (other sizes, whitespace
    /// around either number) takes the general split-and-parse path.
    pub fn parse(s: &str) -> Option<AdSize> {
        if let Some((size, _)) = STANDARD_SIZES.iter().find(|(_, label)| *label == s) {
            return Some(*size);
        }
        let (w, h) = s.split_once('x')?;
        Some(AdSize {
            w: w.trim().parse().ok()?,
            h: h.trim().parse().ok()?,
        })
    }

    /// The medium rectangle (side banner) — the web's most common slot.
    pub const MEDIUM_RECT: AdSize = AdSize::new(300, 250);
    /// The leaderboard (top banner).
    pub const LEADERBOARD: AdSize = AdSize::new(728, 90);
    /// Half page.
    pub const HALF_PAGE: AdSize = AdSize::new(300, 600);
    /// Mobile banner.
    pub const MOBILE_BANNER: AdSize = AdSize::new(320, 50);
    /// Billboard.
    pub const BILLBOARD: AdSize = AdSize::new(970, 250);
    /// Wide skyscraper.
    pub const SKYSCRAPER: AdSize = AdSize::new(160, 600);

    /// The `"WxH"` label, as `Display` renders it. The six standard sizes
    /// (the constants above — every size the generator assigns) return a
    /// static string without formatting; any other size is rendered
    /// through `Display`.
    pub fn label(&self) -> HStr {
        match STANDARD_SIZES.iter().find(|(size, _)| size == self) {
            Some((_, label)) => HStr::from_static(label),
            None => HStr::from_display(self),
        }
    }
}

/// The standard sizes and their `"WxH"` labels.
const STANDARD_SIZES: [(AdSize, &str); 6] = [
    (AdSize::MEDIUM_RECT, "300x250"),
    (AdSize::LEADERBOARD, "728x90"),
    (AdSize::HALF_PAGE, "300x600"),
    (AdSize::MOBILE_BANNER, "320x50"),
    (AdSize::BILLBOARD, "970x250"),
    (AdSize::SKYSCRAPER, "160x600"),
];

/// Write `n` in decimal so that it ends at `buf[end]`; returns where it
/// starts. `buf` must hold the digits (20 bytes fit any `u64`).
fn decimal_into(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    loop {
        end -= 1;
        buf[end] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return end;
        }
    }
}

/// `n` in decimal, as `Display` renders it, without going through `fmt`.
pub(crate) fn decimal(n: u64) -> HStr {
    let mut buf = [0u8; 20];
    let at = decimal_into(&mut buf, 20, n);
    HStr::new(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

impl fmt::Display for AdSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.w, self.h)
    }
}

/// A price in CPM (cost per thousand impressions, USD).
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Cpm(pub f64);

impl Cpm {
    /// Zero price.
    pub const ZERO: Cpm = Cpm(0.0);

    /// Is this price positive?
    pub fn is_positive(&self) -> bool {
        self.0 > 0.0
    }

    /// Round **down** to a price bucket of the given granularity — the
    /// `hb_pb` key-value prebid sends to the ad server. Buckets are floored
    /// so the publisher is never over-reported. A small epsilon keeps the
    /// operation idempotent under floating-point division (re-bucketing an
    /// already-bucketed price must not drop it a bucket).
    pub fn bucket(&self, granularity: f64) -> Cpm {
        if granularity <= 0.0 {
            return *self;
        }
        Cpm((self.0 / granularity + 1e-9).floor() * granularity)
    }

    /// Render as the ad-server string form, `format!("{:.2}")` of the
    /// price. Stays on the stack: the rendered form is at most a few bytes.
    ///
    /// Fast path, without `fmt`: when the price is finite, non-negative
    /// (not `-0.0`) and below 1e9, and `100·x` lies more than 1e-6 from a
    /// `.5` tie, the rounded integer cents are written directly. Off a
    /// tie, rounding the computed `100·x` lands on the same cent as
    /// rounding the exact decimal value of `x`: below 1e11 a half-integer
    /// is representable, so a computed value off the tie is at least one
    /// ulp away from it, farther than the product's rounding error. Every
    /// other value — ties, negatives, `-0.0`, NaN, ±inf, ≥ 1e9 — keeps the
    /// `{:.2}` rendering.
    pub fn to_param(&self) -> HStr {
        let x = self.0;
        let hundredths = x * 100.0;
        if x.is_sign_positive() && x < 1e9 && (hundredths.fract() - 0.5).abs() > 1e-6 {
            let cents = hundredths.round() as u64;
            let mut buf = [0u8; 20];
            let frac = decimal_into(&mut buf, 20, 100 + cents % 100);
            // `100 + c` renders as "1cc": overwrite its leading 1 with the
            // point, then prepend the whole part.
            buf[frac] = b'.';
            let at = decimal_into(&mut buf, frac, cents / 100);
            return HStr::new(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
        }
        HStr::from_display(format_args!("{:.2}", x))
    }

    /// Parse from a parameter string.
    pub fn parse(s: &str) -> Option<Cpm> {
        let v: f64 = s.trim().parse().ok()?;
        if v.is_finite() && v >= 0.0 {
            Some(Cpm(v))
        } else {
            None
        }
    }
}

impl fmt::Display for Cpm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.4} CPM", self.0)
    }
}

/// The three deployment facets of header bidding identified by the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HbFacet {
    /// The auction runs entirely in the browser (Fig. 5).
    ClientSide,
    /// A single provider runs the auction server-side (Fig. 6).
    ServerSide,
    /// Client fan-out plus a server-side auction at the ad server (Fig. 7).
    Hybrid,
}

impl HbFacet {
    /// Stable label used in records and tables.
    pub fn label(&self) -> &'static str {
        match self {
            HbFacet::ClientSide => "client-side",
            HbFacet::ServerSide => "server-side",
            HbFacet::Hybrid => "hybrid",
        }
    }

    /// All facets, in the paper's market-share order.
    pub fn all() -> [HbFacet; 3] {
        [HbFacet::ServerSide, HbFacet::Hybrid, HbFacet::ClientSide]
    }
}

impl fmt::Display for HbFacet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accepted creative sizes of one ad unit, stored inline. Real-world
/// units accept a handful of sizes (the generator assigns one); the
/// former one-element `Vec<AdSize>` per unit was the dominant cold-
/// derivation allocation for unit-heavy sites, so the list lives on the
/// stack — `AdUnit` is now allocation-free apart from its (usually
/// inline) slot code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeList {
    len: u8,
    sizes: [AdSize; 4],
}

impl Default for SizeList {
    fn default() -> SizeList {
        SizeList::empty()
    }
}

impl SizeList {
    /// No sizes.
    pub const fn empty() -> SizeList {
        SizeList {
            len: 0,
            sizes: [AdSize { w: 0, h: 0 }; 4],
        }
    }

    /// A single-size list.
    pub fn one(size: AdSize) -> SizeList {
        let mut l = SizeList::empty();
        l.push(size);
        l
    }

    /// Append a size; silently ignores overflow past the inline capacity
    /// (four sizes — beyond anything the generator or paper describe).
    pub fn push(&mut self, size: AdSize) {
        if (self.len as usize) < self.sizes.len() {
            self.sizes[self.len as usize] = size;
            self.len += 1;
        }
    }

    /// First (primary) size, if any.
    pub fn first(&self) -> Option<AdSize> {
        (self.len > 0).then(|| self.sizes[0])
    }

    /// Number of sizes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no sizes are listed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the sizes.
    pub fn iter(&self) -> impl Iterator<Item = AdSize> + '_ {
        self.sizes[..self.len as usize].iter().copied()
    }
}

impl From<AdSize> for SizeList {
    fn from(size: AdSize) -> SizeList {
        SizeList::one(size)
    }
}

/// An ad slot a publisher puts up for auction.
#[derive(Clone, Debug, PartialEq)]
pub struct AdUnit {
    /// Slot code (matches the page's `div` id).
    pub code: HStr,
    /// Accepted creative sizes (first is primary).
    pub sizes: SizeList,
    /// Floor price agreed with the publisher.
    pub floor: Cpm,
}

impl AdUnit {
    /// Construct an ad unit with one size.
    pub fn new(code: impl Into<HStr>, size: AdSize, floor: Cpm) -> AdUnit {
        AdUnit {
            code: code.into(),
            sizes: SizeList::one(size),
            floor,
        }
    }

    /// Primary size.
    pub fn primary_size(&self) -> AdSize {
        self.sizes.first().unwrap_or(AdSize::MEDIUM_RECT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adsize_parse_display_roundtrip() {
        let s = AdSize::parse("300x250").unwrap();
        assert_eq!(s, AdSize::MEDIUM_RECT);
        assert_eq!(format!("{s}"), "300x250");
        assert_eq!(AdSize::parse("x"), None);
        assert_eq!(AdSize::parse("300"), None);
        assert_eq!(AdSize::parse(" 728 x 90 ").unwrap(), AdSize::LEADERBOARD);
    }

    #[test]
    fn adsize_area() {
        assert_eq!(AdSize::MEDIUM_RECT.area(), 75_000);
        assert_eq!(AdSize::new(0, 10).area(), 0);
    }

    #[test]
    fn cpm_bucketing_floors() {
        assert_eq!(Cpm(0.57).bucket(0.10).0, 0.5);
        assert_eq!(Cpm(0.57).bucket(0.05).0, 0.55);
        let exact = Cpm(1.0).bucket(0.5);
        assert!((exact.0 - 1.0).abs() < 1e-12);
        // Degenerate granularity leaves the price untouched.
        assert_eq!(Cpm(0.37).bucket(0.0).0, 0.37);
    }

    #[test]
    fn cpm_param_roundtrip() {
        let c = Cpm(0.5);
        assert_eq!(c.to_param(), "0.50");
        assert_eq!(Cpm::parse("0.50"), Some(Cpm(0.5)));
        assert_eq!(Cpm::parse("-1"), None);
        assert_eq!(Cpm::parse("nan"), None);
        assert_eq!(Cpm::parse("abc"), None);
    }

    #[test]
    fn facet_labels() {
        assert_eq!(HbFacet::ClientSide.label(), "client-side");
        assert_eq!(HbFacet::all().len(), 3);
        assert_eq!(HbFacet::all()[0], HbFacet::ServerSide);
    }

    #[test]
    fn ad_unit_primary_size() {
        let u = AdUnit::new("ad-slot-1", AdSize::LEADERBOARD, Cpm(0.05));
        assert_eq!(u.primary_size(), AdSize::LEADERBOARD);
        let empty = AdUnit {
            code: "x".into(),
            sizes: SizeList::empty(),
            floor: Cpm::ZERO,
        };
        assert_eq!(empty.primary_size(), AdSize::MEDIUM_RECT);
    }
}

//! Detection records — the dataset rows the analysis layer consumes.
//!
//! All high-cardinality repeated strings (domains, partner names, bidder
//! codes, slot codes, size strings, channel labels) are stored as interned
//! [`Symbol`]s; resolve them against the interner the record was built
//! with (per-visit: the detector's; per-campaign: the dataset's).

use crate::intern::Symbol;
use std::fmt;

/// The detector's independent facet verdict (kept separate from the
/// simulator's ground-truth enum so hb-core never depends on hb-adtech).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DetectedFacet {
    /// Auction ran in the browser; bids forwarded to the publisher's own
    /// ad server.
    Client,
    /// A single known partner ran the auction remotely.
    Server,
    /// Client fan-out plus a known-partner ad server.
    Hybrid,
}

impl DetectedFacet {
    /// Stable label matching the paper's terminology.
    pub fn label(&self) -> &'static str {
        match self {
            DetectedFacet::Client => "client-side",
            DetectedFacet::Server => "server-side",
            DetectedFacet::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for DetectedFacet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a detected bid was observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BidSource {
    /// Client-visible bid response (Client-Side / Hybrid HB).
    ClientVisible,
    /// Reported in an ad-server/provider response (Server-Side winners).
    ServerReported,
}

/// One bid the detector extracted.
#[derive(Clone, Copy, Debug)]
pub struct DetectedBid {
    /// Bidder code (`appnexus`).
    pub bidder_code: Symbol,
    /// Display name resolved through the partner list (falls back to the
    /// code when unknown).
    pub partner_name: Symbol,
    /// Slot the bid targeted.
    pub slot: Symbol,
    /// Price in CPM (client bids: raw cpm; server-reported: price bucket).
    pub cpm: f64,
    /// Creative size string (`300x250`).
    pub size: Symbol,
    /// Did it arrive after the ad-server send (late)?
    pub late: bool,
    /// Partner response latency in milliseconds, when measurable.
    pub latency_ms: Option<f64>,
    /// Observation channel.
    pub source: BidSource,
}

/// One per-partner request latency observation.
#[derive(Clone, Copy, Debug)]
pub struct PartnerLatency {
    /// Partner display name.
    pub partner_name: Symbol,
    /// Bidder code.
    pub bidder_code: Symbol,
    /// Round-trip milliseconds (request out → response completed).
    pub latency_ms: f64,
    /// Was the response late relative to the ad-server send?
    pub late: bool,
}

/// A rendered/decisioned slot observation.
#[derive(Clone, Copy, Debug)]
pub struct DetectedSlot {
    /// Slot code.
    pub slot: Symbol,
    /// Size string.
    pub size: Symbol,
    /// Winning bidder code, when an HB bid won ([`Symbol::EMPTY`]
    /// otherwise).
    pub winner: Symbol,
    /// Price bucket it cleared at (0 when not HB).
    pub price: f64,
    /// Channel label reported by the ad server (`hb`/`direct`/`fallback`/
    /// `unfilled`), when visible.
    pub channel: Symbol,
}

/// Everything the detector learned from one page visit.
#[derive(Clone, Debug, Default)]
pub struct VisitRecord {
    /// Site hostname.
    pub domain: Symbol,
    /// Site rank (1-based) — metadata supplied by the crawler.
    pub rank: u32,
    /// Crawl day (0-based) — metadata supplied by the crawler.
    pub day: u32,
    /// Did the visit exhibit HB activity?
    pub hb_detected: bool,
    /// Facet classification, when HB was detected.
    pub facet: Option<DetectedFacet>,
    /// Unique partner display names participating (request-level
    /// evidence), sorted by resolved name.
    pub partners: Vec<Symbol>,
    /// Number of ad slots auctioned.
    pub slots_auctioned: u32,
    /// Total HB latency (first bid request → ad-server response), ms.
    pub hb_latency_ms: Option<f64>,
    /// All bids observed.
    pub bids: Vec<DetectedBid>,
    /// Per-partner latency observations.
    pub partner_latencies: Vec<PartnerLatency>,
    /// Slot decisions observed.
    pub slots: Vec<DetectedSlot>,
    /// Count of HB DOM events seen, per kind label (sorted by label).
    pub event_counts: Vec<(Symbol, u32)>,
    /// Page load time in ms, when the page finished loading.
    pub page_load_ms: Option<f64>,
    /// Bid requests that never completed (dropped/timed out on the wire).
    pub bids_dropped: u32,
    /// Bid requests that were deterministic retries of a failed attempt.
    pub retries: u32,
    /// Distinct partners with at least one uncompleted bid request.
    pub timed_out_partners: u32,
    /// Did a passback / house ad fill the slots after every demand source
    /// failed?
    pub passback_served: bool,
}

impl VisitRecord {
    /// Bids that arrived late.
    pub fn late_bids(&self) -> usize {
        self.bids.iter().filter(|b| b.late).count()
    }

    /// Fraction of bids that were late; `None` when no bids arrived.
    pub fn late_fraction(&self) -> Option<f64> {
        if self.bids.is_empty() {
            None
        } else {
            Some(self.late_bids() as f64 / self.bids.len() as f64)
        }
    }

    /// Number of distinct partners.
    pub fn partner_count(&self) -> usize {
        self.partners.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;

    fn bid(strings: &mut Interner, late: bool) -> DetectedBid {
        DetectedBid {
            bidder_code: strings.intern("x"),
            partner_name: strings.intern("X"),
            slot: strings.intern("s"),
            cpm: 0.1,
            size: strings.intern("300x250"),
            late,
            latency_ms: Some(100.0),
            source: BidSource::ClientVisible,
        }
    }

    #[test]
    fn late_accounting() {
        let mut strings = Interner::new();
        let mut r = VisitRecord::default();
        assert_eq!(r.late_fraction(), None);
        r.bids = vec![
            bid(&mut strings, false),
            bid(&mut strings, true),
            bid(&mut strings, true),
            bid(&mut strings, false),
        ];
        assert_eq!(r.late_bids(), 2);
        assert_eq!(r.late_fraction(), Some(0.5));
    }

    #[test]
    fn facet_labels() {
        assert_eq!(DetectedFacet::Client.label(), "client-side");
        assert_eq!(DetectedFacet::Server.label(), "server-side");
        assert_eq!(DetectedFacet::Hybrid.label(), "hybrid");
        assert_eq!(format!("{}", DetectedFacet::Hybrid), "hybrid");
    }

    #[test]
    fn partner_count_uses_list() {
        let mut strings = Interner::new();
        let r = VisitRecord {
            partners: vec![strings.intern("DFP"), strings.intern("Criteo")],
            ..VisitRecord::default()
        };
        assert_eq!(r.partner_count(), 2);
    }
}

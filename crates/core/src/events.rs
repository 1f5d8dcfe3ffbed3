//! HB DOM event taxonomy.
//!
//! Mirrors the event list the paper reverse-engineered from prebid.js (and
//! gpt.js / pubfood.js): the detector keeps its *own* copy of these names —
//! it must not share code with the wrapper, exactly as the real extension
//! is independent from the libraries it observes.

use hb_dom::DomEvent;
use hb_http::HStr;
use std::fmt;

/// The HB events the detector recognizes (paper §3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HbEventKind {
    /// The auction has started.
    AuctionInit,
    /// Bids have been requested.
    RequestBids,
    /// A bid was requested from a specific partner.
    BidRequested,
    /// A response has arrived.
    BidResponse,
    /// The auction has ended.
    AuctionEnd,
    /// A bid has won.
    BidWon,
    /// The ad's code is injected into a slot.
    SlotRenderEnded,
    /// An ad failed to render.
    AdRenderFailed,
    /// A passback / house ad filled the slots because every demand source
    /// failed (graceful degradation under network faults).
    Passback,
}

impl HbEventKind {
    /// All recognized kinds.
    pub const ALL: [HbEventKind; 9] = [
        HbEventKind::AuctionInit,
        HbEventKind::RequestBids,
        HbEventKind::BidRequested,
        HbEventKind::BidResponse,
        HbEventKind::AuctionEnd,
        HbEventKind::BidWon,
        HbEventKind::SlotRenderEnded,
        HbEventKind::AdRenderFailed,
        HbEventKind::Passback,
    ];

    /// The DOM event name this kind corresponds to.
    pub fn event_name(&self) -> &'static str {
        match self {
            HbEventKind::AuctionInit => "auctionInit",
            HbEventKind::RequestBids => "requestBids",
            HbEventKind::BidRequested => "bidRequested",
            HbEventKind::BidResponse => "bidResponse",
            HbEventKind::AuctionEnd => "auctionEnd",
            HbEventKind::BidWon => "bidWon",
            HbEventKind::SlotRenderEnded => "slotRenderEnded",
            HbEventKind::AdRenderFailed => "adRenderFailed",
            HbEventKind::Passback => "passbackServed",
        }
    }

    /// Parse a DOM event name.
    pub fn parse(name: &str) -> Option<HbEventKind> {
        Self::ALL.iter().copied().find(|k| k.event_name() == name)
    }

    /// Events that *prove* an HB auction is running in the browser.
    /// `slotRenderEnded` alone does not qualify: ad-manager tags fire it
    /// for any programmatic fill, including waterfall. `passbackServed`
    /// likewise: any tag setup can fall back to a house ad.
    pub fn proves_hb(&self) -> bool {
        !matches!(
            self,
            HbEventKind::SlotRenderEnded | HbEventKind::AdRenderFailed | HbEventKind::Passback
        )
    }
}

impl fmt::Display for HbEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.event_name())
    }
}

/// A recognized HB event with its payload, as captured by the tap.
#[derive(Clone, Debug)]
pub struct CapturedEvent {
    /// Which event.
    pub kind: HbEventKind,
    /// When it fired (simulated time, ms).
    pub at_ms: f64,
    /// Auction id, when the payload carried one.
    pub auction_id: Option<HStr>,
    /// Bidder code, when the payload carried one.
    pub bidder: Option<HStr>,
    /// Slot code, when the payload carried one.
    pub slot: Option<HStr>,
    /// CPM, when the payload carried one.
    pub cpm: Option<f64>,
    /// Size string, when the payload carried one.
    pub size: Option<HStr>,
}

impl CapturedEvent {
    /// Try to capture a DOM event as an HB event.
    pub fn from_dom(ev: &DomEvent) -> Option<CapturedEvent> {
        let kind = HbEventKind::parse(ev.name)?;
        let p = ev.payload;
        let get_str = |key: &str| p.get(key).and_then(|v| v.as_str()).map(HStr::new);
        Some(CapturedEvent {
            kind,
            at_ms: ev.at.as_millis_f64(),
            auction_id: get_str("hb_auction"),
            bidder: get_str("bidder").or_else(|| get_str("hb_bidder")),
            slot: get_str("hb_slot"),
            cpm: p.get("cpm").and_then(|v| v.as_f64()),
            size: get_str("hb_size"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_http::Json;
    use hb_simnet::SimTime;

    fn dom<'a>(name: &'a str, payload: &'a Json) -> DomEvent<'a> {
        DomEvent {
            name,
            payload,
            at: SimTime::from_millis(250),
        }
    }

    #[test]
    fn all_names_roundtrip() {
        for kind in HbEventKind::ALL {
            assert_eq!(HbEventKind::parse(kind.event_name()), Some(kind));
        }
        assert_eq!(HbEventKind::parse("click"), None);
        assert_eq!(HbEventKind::parse("AuctionInit"), None, "case sensitive");
    }

    #[test]
    fn proof_semantics() {
        assert!(HbEventKind::AuctionEnd.proves_hb());
        assert!(HbEventKind::BidWon.proves_hb());
        assert!(HbEventKind::BidResponse.proves_hb());
        assert!(!HbEventKind::SlotRenderEnded.proves_hb());
        assert!(!HbEventKind::AdRenderFailed.proves_hb());
        assert!(!HbEventKind::Passback.proves_hb());
    }

    #[test]
    fn capture_extracts_payload_fields() {
        let payload = Json::obj([
            ("bidder", Json::str("rubicon")),
            ("hb_auction", Json::str("auc-1")),
            ("hb_slot", Json::str("ad-slot-2")),
            ("cpm", Json::num(0.37)),
            ("hb_size", Json::str("300x250")),
        ]);
        let ev = dom("bidResponse", &payload);
        let c = CapturedEvent::from_dom(&ev).unwrap();
        assert_eq!(c.kind, HbEventKind::BidResponse);
        assert_eq!(c.at_ms, 250.0);
        assert_eq!(c.bidder.as_deref(), Some("rubicon"));
        assert_eq!(c.auction_id.as_deref(), Some("auc-1"));
        assert_eq!(c.slot.as_deref(), Some("ad-slot-2"));
        assert_eq!(c.cpm, Some(0.37));
        assert_eq!(c.size.as_deref(), Some("300x250"));
    }

    #[test]
    fn non_hb_events_ignored() {
        let ev = dom("scroll", &Json::Null);
        assert!(CapturedEvent::from_dom(&ev).is_none());
    }

    #[test]
    fn hb_bidder_fallback_key() {
        let payload = Json::obj([("hb_bidder", Json::str("appnexus"))]);
        let ev = dom("bidWon", &payload);
        let c = CapturedEvent::from_dom(&ev).unwrap();
        assert_eq!(c.bidder.as_deref(), Some("appnexus"));
    }

    #[test]
    fn missing_fields_are_none() {
        let payload = Json::obj([]);
        let ev = dom("auctionEnd", &payload);
        let c = CapturedEvent::from_dom(&ev).unwrap();
        assert!(c.auction_id.is_none());
        assert!(c.bidder.is_none());
        assert!(c.cpm.is_none());
    }
}

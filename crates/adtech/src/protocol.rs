//! Wire-level conventions of the simulated HB protocol.
//!
//! The paper's detection hinges on two facts: (a) HB libraries fire a fixed
//! set of DOM events, and (b) HB traffic carries library-fixed `hb_*`
//! parameters that every partner must use, unlike RTB where notification
//! parameter names are DSP-specific. This module pins down both surfaces
//! for the simulation: event names, parameter keys, URL paths, and the
//! payload builders/parsers used by wrapper, partners and ad server.

use crate::types::{AdSize, Cpm};
use hb_http::{HStr, Json, QueryParams};

/// DOM events fired by the wrapper / ad-manager tag (paper §3.1).
pub mod events {
    /// The auction has started.
    pub const AUCTION_INIT: &str = "auctionInit";
    /// Bids have been requested.
    pub const REQUEST_BIDS: &str = "requestBids";
    /// A bid was requested from a specific partner.
    pub const BID_REQUESTED: &str = "bidRequested";
    /// A response has arrived.
    pub const BID_RESPONSE: &str = "bidResponse";
    /// The auction has ended.
    pub const AUCTION_END: &str = "auctionEnd";
    /// A bid has won.
    pub const BID_WON: &str = "bidWon";
    /// The ad's code is injected into a slot.
    pub const SLOT_RENDER_ENDED: &str = "slotRenderEnded";
    /// An ad failed to render.
    pub const AD_RENDER_FAILED: &str = "adRenderFailed";
    /// Every demand source failed; a passback / house ad filled the slots.
    pub const PASSBACK: &str = "passbackServed";
}

/// Library-fixed HB parameter keys (paper §3.1: "bidder", "hb_partner",
/// "hb_price", etc.).
pub mod params {
    /// Bidder code of the partner.
    pub const HB_BIDDER: &str = "hb_bidder";
    /// Price bucket (floored CPM) for ad-server targeting.
    pub const HB_PB: &str = "hb_pb";
    /// Creative/ad id.
    pub const HB_ADID: &str = "hb_adid";
    /// Creative size `WxH`.
    pub const HB_SIZE: &str = "hb_size";
    /// Auction correlation id.
    pub const HB_AUCTION: &str = "hb_auction";
    /// Ad unit (slot) code.
    pub const HB_SLOT: &str = "hb_slot";
    /// Auction source: `client` or `s2s`.
    pub const HB_SOURCE: &str = "hb_source";
    /// Exact clearing price (win notifications).
    pub const HB_PRICE: &str = "hb_price";
    /// Bid currency.
    pub const HB_CURRENCY: &str = "hb_currency";
    /// Raw CPM on bid responses.
    pub const CPM: &str = "cpm";
    /// Generic bidder key also used by bid responses.
    pub const BIDDER: &str = "bidder";
    /// Marks a bid request as a deterministic retry of a failed attempt.
    pub const HB_RETRY: &str = "hb_retry";
}

/// URL path conventions in the simulated namespace.
pub mod paths {
    /// Client-side bid request endpoint on partner hosts.
    pub const BID: &str = "/hb/bid";
    /// Win notification endpoint on partner hosts.
    pub const WIN: &str = "/hb/win";
    /// Server-side HB auction endpoint on provider hosts.
    pub const S2S_AUCTION: &str = "/openrtb2/auction";
    /// Ad-server decisioning endpoint.
    pub const AD_SERVER: &str = "/gampad/ads";
    /// Waterfall RTB ad request endpoint.
    pub const RTB_AD: &str = "/rtb/ad";
    /// Waterfall RTB win notification (DSP-specific params!).
    pub const RTB_NOTIFY: &str = "/rtb/notify";
    /// HB wrapper library file.
    pub const WRAPPER_JS: &str = "/prebid.js";
    /// Ad manager tag library file.
    pub const GPT_JS: &str = "/gpt/pubads_impl.js";
}

/// Default bidder timeout used by most wrappers (paper §5.2: 3 seconds).
pub const DEFAULT_BIDDER_TIMEOUT_MS: u64 = 3_000;

/// Default `hb_pb` price-bucket granularity (prebid "dense"-ish: 1 cent).
pub const DEFAULT_PB_GRANULARITY: f64 = 0.01;

/// One bid inside a bid response payload.
#[derive(Clone, Debug, PartialEq)]
pub struct BidPayload {
    /// Bidder code (e.g. `appnexus`).
    pub bidder: HStr,
    /// Ad unit code the bid targets.
    pub slot: HStr,
    /// Bid price.
    pub cpm: Cpm,
    /// Creative size.
    pub size: AdSize,
    /// Creative id.
    pub ad_id: HStr,
    /// Currency (always USD in the baseline crawl).
    pub currency: HStr,
}

impl BidPayload {
    /// Encode as the JSON object carried in bid responses.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (params::BIDDER, Json::str(self.bidder.clone())),
            (params::HB_SLOT, Json::str(self.slot.clone())),
            (params::CPM, Json::num(self.cpm.0)),
            (params::HB_SIZE, Json::str(self.size.label())),
            (params::HB_ADID, Json::str(self.ad_id.clone())),
            (params::HB_CURRENCY, Json::str(self.currency.clone())),
        ])
    }

    /// Decode from a bid-response JSON object. Clones the body's own
    /// string handles ([`Json::as_hstr`]) so values past the inline cap
    /// share the body's `Arc<str>` instead of re-allocating.
    pub fn from_json(j: &Json) -> Option<BidPayload> {
        Some(BidPayload {
            bidder: j.get(params::BIDDER)?.as_hstr()?.clone(),
            slot: j.get(params::HB_SLOT)?.as_hstr()?.clone(),
            cpm: Cpm(j.get(params::CPM)?.as_f64()?),
            size: AdSize::parse(j.get(params::HB_SIZE)?.as_str()?)?,
            ad_id: j.get(params::HB_ADID)?.as_hstr()?.clone(),
            currency: j
                .get(params::HB_CURRENCY)
                .and_then(|c| c.as_hstr())
                .cloned()
                .unwrap_or(HStr::from_static("USD")),
        })
    }
}

/// The bid-response body: `{"hb_auction": id, "bids": [...]}`.
pub fn bid_response_body(auction_id: &str, bids: &[BidPayload]) -> Json {
    Json::obj([
        (params::HB_AUCTION, Json::str(auction_id)),
        ("bids", Json::arr(bids.iter().map(BidPayload::to_json))),
    ])
}

/// Parse a bid-response body back into payloads.
pub fn parse_bid_response(body: &Json) -> Option<(HStr, Vec<BidPayload>)> {
    let auction = body.get(params::HB_AUCTION)?.as_hstr()?.clone();
    let bids = body
        .get("bids")?
        .as_arr()?
        .iter()
        .filter_map(BidPayload::from_json)
        .collect();
    Some((auction, bids))
}

/// A winner entry in an ad-server (or s2s provider) response.
#[derive(Clone, Debug, PartialEq)]
pub struct WinnerPayload {
    /// Slot the winner fills.
    pub slot: HStr,
    /// Winning bidder code (empty when a non-HB line item won).
    pub bidder: HStr,
    /// Price bucket the win cleared at.
    pub pb: Cpm,
    /// Creative size.
    pub size: AdSize,
    /// Creative id.
    pub ad_id: HStr,
    /// Which channel filled the slot.
    pub channel: FillChannel,
}

/// How a slot ended up filled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillChannel {
    /// A header bidding bid won.
    HeaderBid,
    /// A direct order (sponsorship) filled the slot.
    DirectOrder,
    /// Remnant/fallback (house ads, AdSense-like).
    Fallback,
    /// Nothing filled the slot.
    Unfilled,
}

impl FillChannel {
    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            FillChannel::HeaderBid => "hb",
            FillChannel::DirectOrder => "direct",
            FillChannel::Fallback => "fallback",
            FillChannel::Unfilled => "unfilled",
        }
    }

    /// Parse from label.
    pub fn parse(s: &str) -> Option<FillChannel> {
        Some(match s {
            "hb" => FillChannel::HeaderBid,
            "direct" => FillChannel::DirectOrder,
            "fallback" => FillChannel::Fallback,
            "unfilled" => FillChannel::Unfilled,
            _ => return None,
        })
    }
}

impl WinnerPayload {
    /// Encode as JSON. HB winners carry the full `hb_*` targeting echo,
    /// which is exactly what the detector scans for in responses.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj([
            (params::HB_SLOT, Json::str(self.slot.clone())),
            ("channel", Json::str(self.channel.label())),
            (params::HB_SIZE, Json::str(self.size.label())),
        ]);
        if self.channel == FillChannel::HeaderBid {
            j.insert(params::HB_BIDDER, Json::str(self.bidder.clone()));
            j.insert(params::HB_PB, Json::str(self.pb.to_param()));
            j.insert(params::HB_ADID, Json::str(self.ad_id.clone()));
        }
        j
    }

    /// Decode from JSON. Like [`BidPayload::from_json`], shares the
    /// body's string handles instead of re-allocating them.
    pub fn from_json(j: &Json) -> Option<WinnerPayload> {
        let channel = FillChannel::parse(j.get("channel")?.as_str()?)?;
        Some(WinnerPayload {
            slot: j.get(params::HB_SLOT)?.as_hstr()?.clone(),
            bidder: j
                .get(params::HB_BIDDER)
                .and_then(|b| b.as_hstr())
                .cloned()
                .unwrap_or(HStr::EMPTY),
            pb: j
                .get(params::HB_PB)
                .and_then(|p| p.as_str())
                .and_then(Cpm::parse)
                .unwrap_or(Cpm::ZERO),
            size: AdSize::parse(j.get(params::HB_SIZE)?.as_str()?)?,
            ad_id: j
                .get(params::HB_ADID)
                .and_then(|a| a.as_hstr())
                .cloned()
                .unwrap_or(HStr::EMPTY),
            channel,
        })
    }
}

/// The ad-server response body: `{"winners": [...]}` (plus `hb_auction`).
pub fn ad_server_response_body(auction_id: &str, winners: &[WinnerPayload]) -> Json {
    Json::obj([
        (params::HB_AUCTION, Json::str(auction_id)),
        (
            "winners",
            Json::arr(winners.iter().map(WinnerPayload::to_json)),
        ),
    ])
}

/// Parse an ad-server response body.
pub fn parse_ad_server_response(body: &Json) -> Option<(HStr, Vec<WinnerPayload>)> {
    let auction = HStr::new(body.get(params::HB_AUCTION)?.as_str()?);
    let winners = body
        .get("winners")?
        .as_arr()?
        .iter()
        .filter_map(WinnerPayload::from_json)
        .collect();
    Some((auction, winners))
}

/// Append the query parameters of a client-side bid request to `q` (a
/// pooled buffer from the caller): auction id, bidder code, source and
/// slot count. [`crate::provider::hb_bid_request`] builds every bid
/// request of the crawl and the serving plane on it; a retry appends
/// [`params::HB_RETRY`] after it.
pub fn bid_request_params(
    q: &mut QueryParams,
    auction_id: impl Into<HStr>,
    bidder: impl Into<HStr>,
    n_slots: usize,
) {
    q.append(params::HB_AUCTION, auction_id);
    q.append(params::HB_BIDDER, bidder);
    q.append(params::HB_SOURCE, "client");
    q.append("slots", crate::types::decimal(n_slots as u64));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid() -> BidPayload {
        BidPayload {
            bidder: "rubicon".into(),
            slot: "ad-slot-1".into(),
            cpm: Cpm(0.42),
            size: AdSize::MEDIUM_RECT,
            ad_id: "cr-99".into(),
            currency: "USD".into(),
        }
    }

    #[test]
    fn bid_payload_roundtrip() {
        let b = bid();
        let j = b.to_json();
        let back = BidPayload::from_json(&j).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn bid_response_roundtrip() {
        let body = bid_response_body("auc-1", &[bid(), bid()]);
        let (auction, bids) = parse_bid_response(&body).unwrap();
        assert_eq!(auction, "auc-1");
        assert_eq!(bids.len(), 2);
        assert_eq!(bids[0].bidder, "rubicon");
    }

    #[test]
    fn winner_payload_roundtrip_hb() {
        let w = WinnerPayload {
            slot: "ad-slot-2".into(),
            bidder: "appnexus".into(),
            pb: Cpm(0.5),
            size: AdSize::LEADERBOARD,
            ad_id: "cr-1".into(),
            channel: FillChannel::HeaderBid,
        };
        let back = WinnerPayload::from_json(&w.to_json()).unwrap();
        assert_eq!(w, back);
        // HB winners expose hb_* keys in the flattened response params.
        let flat = hb_http::Response::json(hb_http::RequestId(1), w.to_json());
        assert_eq!(
            flat.visible_params().get(params::HB_BIDDER),
            Some("appnexus")
        );
        assert_eq!(flat.visible_params().get(params::HB_PB), Some("0.50"));
    }

    #[test]
    fn non_hb_winner_hides_hb_params() {
        let w = WinnerPayload {
            slot: "ad-slot-1".into(),
            bidder: HStr::EMPTY,
            pb: Cpm::ZERO,
            size: AdSize::MEDIUM_RECT,
            ad_id: HStr::EMPTY,
            channel: FillChannel::DirectOrder,
        };
        let j = w.to_json();
        assert!(j.get(params::HB_BIDDER).is_none());
        assert!(j.get(params::HB_PB).is_none());
        let back = WinnerPayload::from_json(&j).unwrap();
        assert_eq!(back.channel, FillChannel::DirectOrder);
        assert_eq!(back.bidder, "");
    }

    #[test]
    fn ad_server_response_roundtrip() {
        let winners = vec![
            WinnerPayload {
                slot: "s1".into(),
                bidder: "openx".into(),
                pb: Cpm(0.3),
                size: AdSize::MEDIUM_RECT,
                ad_id: "a".into(),
                channel: FillChannel::HeaderBid,
            },
            WinnerPayload {
                slot: "s2".into(),
                bidder: HStr::EMPTY,
                pb: Cpm::ZERO,
                size: AdSize::LEADERBOARD,
                ad_id: HStr::EMPTY,
                channel: FillChannel::Unfilled,
            },
        ];
        let body = ad_server_response_body("auc-9", &winners);
        let (auction, back) = parse_ad_server_response(&body).unwrap();
        assert_eq!(auction, "auc-9");
        assert_eq!(back, winners);
    }

    #[test]
    fn fill_channel_labels_roundtrip() {
        for ch in [
            FillChannel::HeaderBid,
            FillChannel::DirectOrder,
            FillChannel::Fallback,
            FillChannel::Unfilled,
        ] {
            assert_eq!(FillChannel::parse(ch.label()), Some(ch));
        }
        assert_eq!(FillChannel::parse("nope"), None);
    }

    #[test]
    fn bid_request_params_carry_hb_keys() {
        let mut q = QueryParams::new();
        bid_request_params(&mut q, "a-1", "criteo", 3);
        assert_eq!(q.get(params::HB_AUCTION), Some("a-1"));
        assert_eq!(q.get(params::HB_BIDDER), Some("criteo"));
        assert_eq!(q.get(params::HB_SOURCE), Some("client"));
        assert_eq!(q.get("slots"), Some("3"));
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(BidPayload::from_json(&Json::Null).is_none());
        assert!(parse_bid_response(&Json::obj([("bids", Json::Arr(vec![]))])).is_none());
        assert!(WinnerPayload::from_json(&Json::obj([("channel", Json::str("hb"))])).is_none());
    }
}

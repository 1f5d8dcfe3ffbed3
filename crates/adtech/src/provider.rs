//! Provider adapters: the one place each demand-side wire shape of an
//! auction is built, and the parsers that fold its responses.
//!
//! The crawl's [`wrapper`](crate::wrapper) and
//! [`waterfall`](crate::waterfall) flows and `hb-serve`'s orchestrator
//! drive the same endpoints through the same builders:
//!
//! * [`hb_bid_request`] — the client-side bid request (the wrapper's
//!   first attempt and `hb_retry=1` retry, the orchestrator's HB leg and
//!   its hedge);
//! * [`tier_request`] — the waterfall tier request (the crawl's tier and
//!   its `rt=1` retry, the orchestrator's tier leg), sent to the
//!   partner's [`rtb_edge_host`];
//! * [`mediation_request`] — the serving plane's ad-server call; it
//!   shares `ad_server_params` with the crawl's two ad-server requests;
//! * response parsers ([`hb_bids_from`], [`mediation_winner`],
//!   [`tier_fill`]) folding raw [`Response`]s into bid data.
//!
//! Builders take the caller's pooled [`QueryParams`] and leave the
//! initiator tag to the caller. They know nothing about deadlines,
//! retries or hedges: each caller keeps its own leg policy.

use crate::partner::bid_request_body;
use crate::protocol::{self, params, paths, BidPayload, WinnerPayload};
use crate::types::{AdSize, AdUnit, Cpm};
use crate::wrapper::PartnerRef;
use hb_http::{Body, QueryParams, Request, RequestId, Response, Status, Url};
use hb_simnet::HStr;

/// The waterfall edge of a partner host. Tier traffic goes to
/// `rtb.<host>`, a failure domain apart from the partner's HB endpoint.
pub fn rtb_edge_host(partner_host: &str) -> HStr {
    HStr::from_display(format_args!("rtb.{partner_host}"))
}

/// Build a client-side bid request: POST `/hb/bid` to the partner with
/// the slot list body and the query the partner endpoint parses.
/// `retry` marks a second copy (the crawl's retry, the serving plane's
/// hedge) with `hb_retry=1`, which the endpoint ignores but the wire log
/// keeps.
pub fn hb_bid_request(
    id: RequestId,
    mut q: QueryParams,
    partner: &PartnerRef,
    auction_id: &HStr,
    units: &[AdUnit],
    retry: bool,
) -> Request {
    protocol::bid_request_params(
        &mut q,
        auction_id.clone(),
        partner.code.clone(),
        units.len(),
    );
    if retry {
        q.append(params::HB_RETRY, "1");
    }
    let url = Url::https_pooled(partner.host.clone(), HStr::from_static(paths::BID), q);
    Request::post(id, url, Body::Json(bid_request_body(units)))
}

/// Append the prefix every ad-server request starts with: the publisher
/// account, the auction id and the bid source (`client` or `s2s`).
pub(crate) fn ad_server_params(
    q: &mut QueryParams,
    account_id: &HStr,
    auction_id: &HStr,
    source: &'static str,
) {
    q.append("account", account_id.clone());
    q.append(params::HB_AUCTION, auction_id.clone());
    q.append(params::HB_SOURCE, source);
}

/// Build the serving plane's mediation request: POST the collected
/// client bids to the site's ad server, which decisions them against
/// direct orders and (for server-side/hybrid accounts) its s2s seats.
pub fn mediation_request(
    id: RequestId,
    mut q: QueryParams,
    ad_server_host: &HStr,
    account_id: &HStr,
    auction_id: &HStr,
    client_bids: &[BidPayload],
) -> Request {
    ad_server_params(&mut q, account_id, auction_id, "client");
    let url = Url::https_pooled(
        ad_server_host.clone(),
        HStr::from_static(paths::AD_SERVER),
        q,
    );
    Request::post(
        id,
        url,
        Body::Json(protocol::bid_response_body(auction_id, client_bids)),
    )
}

/// Build a waterfall tier request: GET `/rtb/ad` on the partner's RTB
/// `edge` with the tier floor, the first unit's size and the
/// cache-buster `cb`. `retry` marks the second attempt with the
/// DSP-style `rt=1`: waterfall traffic never carries `hb_*` keys.
pub fn tier_request(
    id: RequestId,
    mut q: QueryParams,
    edge: &HStr,
    floor: Cpm,
    units: &[AdUnit],
    cb: u64,
    retry: bool,
) -> Request {
    let size = units
        .first()
        .map(AdUnit::primary_size)
        .unwrap_or(AdSize::MEDIUM_RECT);
    q.append("floor", floor.to_param());
    q.append("size", size.label());
    q.append("cb", crate::types::decimal(cb));
    if retry {
        q.append("rt", "1");
    }
    Request::get(
        id,
        Url::https_pooled(edge.clone(), HStr::from_static(paths::RTB_AD), q),
    )
}

/// Parse an HB bid response into payloads. `None` for no-bid (204),
/// non-OK statuses, or malformed bodies; `Some(vec)` may still be
/// empty when the partner answered with zero bids.
pub fn hb_bids_from(rsp: &Response) -> Option<Vec<BidPayload>> {
    if rsp.status != Status::OK {
        return None;
    }
    let body = rsp.body.json()?;
    protocol::parse_bid_response(body).map(|(_, bids)| bids)
}

/// Parse a mediation response into the best winner: the filled slot
/// with the highest price bucket (first such slot on ties, so the
/// pick is deterministic). `None` when nothing filled.
pub fn mediation_winner(rsp: &Response) -> Option<WinnerPayload> {
    if rsp.status != Status::OK {
        return None;
    }
    let body = rsp.body.json()?;
    let (_, winners) = protocol::parse_ad_server_response(body)?;
    let mut best: Option<WinnerPayload> = None;
    for w in winners {
        if w.channel == protocol::FillChannel::Unfilled {
            continue;
        }
        let better = match &best {
            None => true,
            Some(b) => w.pb.0 > b.pb.0,
        };
        if better {
            best = Some(w);
        }
    }
    best
}

/// Parse a waterfall tier response into a fill price. `None` on
/// passback (204) or malformed bodies.
pub fn tier_fill(rsp: &Response) -> Option<Cpm> {
    if rsp.status != Status::OK {
        return None;
    }
    let body = rsp.body.json()?;
    body.get("price").and_then(|p| p.as_f64()).map(Cpm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FillChannel;
    use hb_http::Json;

    fn partner() -> PartnerRef {
        PartnerRef {
            code: "bidder0".into(),
            name: "Bidder 0".into(),
            host: "bidder0.example".into(),
        }
    }

    fn units() -> Vec<AdUnit> {
        vec![
            AdUnit::new("ad-slot-1", AdSize::LEADERBOARD, Cpm(0.1)),
            AdUnit::new("ad-slot-2", AdSize::MEDIUM_RECT, Cpm(0.1)),
        ]
    }

    #[test]
    fn bid_request_matches_partner_wire_shape() {
        let auction: HStr = "srv-42".into();
        let first = hb_bid_request(
            RequestId(1),
            QueryParams::new(),
            &partner(),
            &auction,
            &units(),
            false,
        );
        assert_eq!(first.url.host.as_str(), "bidder0.example");
        assert_eq!(first.url.path.as_str(), paths::BID);
        assert_eq!(first.url.query.get(params::HB_AUCTION), Some("srv-42"));
        assert_eq!(first.url.query.get(params::HB_BIDDER), Some("bidder0"));
        assert_eq!(first.url.query.get(params::HB_SOURCE), Some("client"));
        assert_eq!(first.url.query.get("slots"), Some("2"));
        assert!(!first.url.query.contains(params::HB_RETRY));
        let slots = first
            .body
            .json()
            .unwrap()
            .get("slots")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(slots.len(), 2);
        assert_eq!(
            slots[0].get("code").and_then(|c| c.as_str()),
            Some("ad-slot-1")
        );
        assert_eq!(
            slots[0].get("size").and_then(|c| c.as_str()),
            Some("728x90")
        );

        let retry = hb_bid_request(
            RequestId(2),
            QueryParams::new(),
            &partner(),
            &auction,
            &units(),
            true,
        );
        assert_eq!(retry.url.query.get(params::HB_RETRY), Some("1"));
        let prefix: Vec<_> = retry.url.query.iter().take(first.url.query.len()).collect();
        assert_eq!(
            prefix,
            first.url.query.iter().collect::<Vec<_>>(),
            "the retry only appends its marker"
        );
    }

    #[test]
    fn tier_requests_mark_retries_with_rt_and_carry_no_hb_keys() {
        let edge = rtb_edge_host("bidder10.example");
        assert_eq!(edge.as_str(), "rtb.bidder10.example");
        let first = tier_request(
            RequestId(1),
            QueryParams::new(),
            &edge,
            Cpm(1.5),
            &units(),
            7,
            false,
        );
        let retry = tier_request(
            RequestId(2),
            QueryParams::new(),
            &edge,
            Cpm(1.5),
            &units(),
            8,
            true,
        );
        assert_eq!(first.url.host, edge);
        assert_eq!(first.url.path.as_str(), paths::RTB_AD);
        assert_eq!(first.url.query.get("floor"), Some("1.50"));
        assert_eq!(
            first.url.query.get("size"),
            Some("728x90"),
            "the first unit's size"
        );
        assert_eq!(first.url.query.get("cb"), Some("7"));
        assert!(!first.url.query.contains("rt"));
        assert_eq!(retry.url.query.get("rt"), Some("1"));
        for req in [&first, &retry] {
            let mut hb = false;
            req.for_each_visible_param(|k, _| hb |= k.starts_with("hb_"));
            assert!(
                !hb,
                "waterfall traffic must not carry hb_*: {:?}",
                req.url.query
            );
        }
        let unsized_ = tier_request(
            RequestId(3),
            QueryParams::new(),
            &edge,
            Cpm(1.5),
            &[],
            9,
            false,
        );
        assert_eq!(unsized_.url.query.get("size"), Some("300x250"));
    }

    #[test]
    fn mediation_request_starts_with_the_ad_server_prefix() {
        let req = mediation_request(
            RequestId(1),
            QueryParams::new(),
            &"ads.gam.example".into(),
            &"acct-1".into(),
            &"srv-42".into(),
            &[],
        );
        assert_eq!(req.url.path.as_str(), paths::AD_SERVER);
        let query: Vec<_> = req.url.query.iter().collect();
        assert_eq!(
            query,
            [
                ("account", "acct-1"),
                (params::HB_AUCTION, "srv-42"),
                (params::HB_SOURCE, "client")
            ]
        );
    }

    #[test]
    fn parsers_roundtrip_protocol_bodies() {
        let bids = vec![BidPayload {
            bidder: "bidder0".into(),
            slot: "ad-slot-1".into(),
            cpm: Cpm(1.25),
            size: AdSize::MEDIUM_RECT,
            ad_id: "cr-1".into(),
            currency: "USD".into(),
        }];
        let rsp = Response::json(RequestId(1), protocol::bid_response_body("srv-1", &bids));
        assert_eq!(hb_bids_from(&rsp).unwrap(), bids);
        assert!(hb_bids_from(&Response::no_content(RequestId(2))).is_none());

        let winners = vec![
            WinnerPayload {
                slot: "ad-slot-1".into(),
                bidder: "bidder0".into(),
                pb: Cpm(1.20),
                size: AdSize::MEDIUM_RECT,
                ad_id: "cr-1".into(),
                channel: FillChannel::HeaderBid,
            },
            WinnerPayload {
                slot: "ad-slot-2".into(),
                bidder: HStr::EMPTY,
                pb: Cpm(2.00),
                size: AdSize::MEDIUM_RECT,
                ad_id: HStr::EMPTY,
                channel: FillChannel::DirectOrder,
            },
        ];
        let rsp = Response::json(
            RequestId(3),
            protocol::ad_server_response_body("srv-1", &winners),
        );
        // Non-HB fills carry no `hb_pb` on the wire (it round-trips as
        // zero), so the HB winner's explicit bucket takes the pick.
        let best = mediation_winner(&rsp).unwrap();
        assert_eq!(best.channel, FillChannel::HeaderBid);
        assert_eq!(best.pb, Cpm(1.20));

        let fill = Response::json(
            RequestId(4),
            Json::obj([("price", Json::num(3.5)), ("size", Json::str("300x250"))]),
        );
        assert_eq!(tier_fill(&fill), Some(Cpm(3.5)));
        assert_eq!(tier_fill(&Response::no_content(RequestId(5))), None);
    }
}

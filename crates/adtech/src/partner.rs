//! Demand partner profiles and their bid endpoints.
//!
//! A [`PartnerProfile`] captures everything that drives a partner's
//! observable behaviour: its network latency (client-facing and
//! server-to-server), how often it bids on a clean-profile user, the prices
//! it offers, and the cost of its internal RTB auction per slot. The
//! [`partner_endpoint`] function turns a profile into a simulated server.

use crate::rtb::InternalAuction;
use crate::types::{AdSize, AdUnit, Cpm};
use crate::protocol::{self, params, BidPayload};
use hb_http::{Endpoint, HStr, Json, Request, Response, ServerReply};
use hb_simnet::{Dist, LatencyModel, Rng, SimDuration};

/// Stable partner identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PartnerId(pub u32);

/// What role a partner plays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartnerKind {
    /// Ad server + server-side HB provider (DFP-like).
    AdServer,
    /// An ad exchange running internal auctions.
    Exchange,
    /// A demand-side platform.
    Dsp,
    /// A supply-side platform.
    Ssp,
}

/// Full behavioural profile of one demand partner.
#[derive(Clone, Debug)]
pub struct PartnerProfile {
    /// Stable id.
    pub id: PartnerId,
    /// Display name as used in the paper's figures (e.g. `AppNexus`).
    pub display_name: String,
    /// Adapter/bidder code (e.g. `appnexus`).
    pub bidder_code: HStr,
    /// Hostname in the simulated namespace.
    pub host: HStr,
    /// Role.
    pub kind: PartnerKind,
    /// Client-facing round-trip latency.
    pub latency: LatencyModel,
    /// Server-to-server latency (data-center to data-center; faster).
    pub s2s_latency: LatencyModel,
    /// Probability of bidding per slot for a clean-profile (baseline) user.
    pub bid_rate: f64,
    /// CPM distribution for baseline users.
    pub price: Dist,
    /// Internal auction processing cost per slot (ms).
    pub per_slot_processing_ms: f64,
    /// Number of internal seats competing in the partner's own auction.
    pub seats: u32,
    /// Can act as a server-side HB provider.
    pub can_serve_s2s: bool,
}

impl PartnerProfile {
    /// A reasonable mid-tier exchange profile (used by unit tests).
    pub fn test_profile(id: u32, code: &str) -> PartnerProfile {
        PartnerProfile {
            id: PartnerId(id),
            display_name: code.to_string(),
            bidder_code: HStr::new(code),
            host: HStr::from(format!("{code}.adnet.example")),
            kind: PartnerKind::Exchange,
            latency: LatencyModel::log_normal(250.0, 0.45),
            s2s_latency: LatencyModel::log_normal(40.0, 0.3),
            bid_rate: 0.5,
            price: Dist::log_normal_median(0.2, 0.8),
            per_slot_processing_ms: 8.0,
            seats: 4,
            can_serve_s2s: false,
        }
    }

    /// Price multiplier by creative size. Calibrated so the per-size price
    /// ordering of Figure 23 holds (120x600 dearest, 300x50 cheapest,
    /// 300x250 in between).
    pub fn size_price_factor(size: AdSize) -> f64 {
        match (size.w, size.h) {
            (120, 600) => 3.00,
            (970, 250) => 2.20,
            (300, 600) => 1.90,
            (160, 600) => 1.60,
            (336, 280) => 1.35,
            (970, 90) => 1.20,
            (300, 250) => 1.00,
            (728, 90) => 0.80,
            (300, 100) => 0.40,
            (320, 100) => 0.35,
            (468, 60) => 0.30,
            (320, 320) => 0.60,
            (100, 200) => 0.45,
            (120, 240) => 0.40,
            (320, 50) => 0.15,
            (300, 50) => 0.03,
            _ => 0.75,
        }
    }

    /// Draw a bid decision for one slot. `source_factor` discounts
    /// server-side auctions (cookie-match loss depresses s2s CPMs, which is
    /// what makes Client-Side HB draw the highest prices in Figure 22).
    pub fn draw_bid(
        &self,
        size: AdSize,
        source_factor: f64,
        rng: &mut Rng,
    ) -> Option<Cpm> {
        if !rng.chance(self.bid_rate) {
            return None;
        }
        // The partner's internal auction among its seats decides the
        // outgoing price: best seat offer, second-priced. If no seat shows
        // up, the partner's own house demand prices the bid directly, so
        // `bid_rate` remains the true bid probability.
        let auction = InternalAuction::new(self.seats, &self.price);
        let base = auction
            .run(rng)
            .unwrap_or_else(|| Cpm(self.price.sample(rng).max(0.001)));
        let cpm = base.0 * Self::size_price_factor(size) * source_factor;
        if cpm <= 0.0 {
            return None;
        }
        Some(Cpm(cpm))
    }

    /// Server-side internal processing time for `n_slots` slots.
    pub fn processing_time(&self, n_slots: usize) -> SimDuration {
        SimDuration::from_millis_f64(self.per_slot_processing_ms * n_slots.max(1) as f64)
    }
}

/// Build the partner's client-facing bid endpoint (`POST /hb/bid`).
///
/// The endpoint parses the slots from the request body, runs the internal
/// auction per slot, and answers with a bid-response JSON (or 204 when it
/// has nothing to offer). Win notifications (`/hb/win`) are acknowledged.
pub fn partner_endpoint(profile: PartnerProfile) -> impl Endpoint {
    move |req: &Request, rng: &mut Rng| -> ServerReply {
        match req.url.path.as_str() {
            p if p == protocol::paths::BID => handle_bid(&profile, req, rng),
            p if p == protocol::paths::WIN => {
                // Winner notification: bookkeeping only.
                ServerReply::instant(Response::no_content(req.id))
            }
            _ => ServerReply::instant(Response::error(req.id, hb_http::Status::NOT_FOUND)),
        }
    }
}

fn handle_bid(profile: &PartnerProfile, req: &Request, rng: &mut Rng) -> ServerReply {
    let body = match req.body.json() {
        Some(b) => b,
        None => {
            return ServerReply::instant(Response::error(req.id, hb_http::Status::BAD_REQUEST))
        }
    };
    let auction_id = HStr::new(req.url.query.get(params::HB_AUCTION).unwrap_or(""));
    let source_factor = match req.url.query.get(params::HB_SOURCE) {
        Some("s2s") => 0.6,
        _ => 1.0,
    };
    let empty = Vec::new();
    let slots = body
        .get("slots")
        .and_then(|s| s.as_arr())
        .unwrap_or(&empty);
    let mut bids = Vec::new();
    for slot in slots {
        let code = HStr::new(slot.get("code").and_then(|c| c.as_str()).unwrap_or(""));
        let size = slot
            .get("size")
            .and_then(|s| s.as_str())
            .and_then(AdSize::parse)
            .unwrap_or(AdSize::MEDIUM_RECT);
        if let Some(cpm) = profile.draw_bid(size, source_factor, rng) {
            bids.push(BidPayload {
                bidder: profile.bidder_code.clone(),
                slot: code,
                cpm,
                size,
                ad_id: HStr::from_display(format_args!(
                    "cr-{}-{}",
                    profile.bidder_code,
                    rng.below(1_000_000)
                )),
                currency: HStr::from_static("USD"),
            });
        }
    }
    let processing = profile.processing_time(slots.len());
    if bids.is_empty() {
        ServerReply::after(Response::no_content(req.id), processing)
    } else {
        let rsp = Response::json(req.id, protocol::bid_response_body(&auction_id, &bids));
        ServerReply::after(rsp, processing)
    }
}

/// Build the JSON body of a bid request for the given ad units: each
/// slot's code and primary size (pooled spines throughout; the tree is
/// recycled when the request dies).
pub fn bid_request_body(units: &[AdUnit]) -> Json {
    Json::obj([(
        "slots",
        Json::arr(units.iter().map(|u| {
            Json::obj([
                ("code", Json::str(u.code.clone())),
                ("size", Json::str(u.primary_size().label())),
            ])
        })),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_http::{Body, RequestId, Url};

    fn bid_request(profile: &PartnerProfile, n_slots: usize) -> Request {
        let units: Vec<AdUnit> = (0..n_slots)
            .map(|i| AdUnit::new(format!("ad-slot-{i}"), AdSize::MEDIUM_RECT, Cpm::ZERO))
            .collect();
        let url = Url::https(&profile.host, protocol::paths::BID)
            .with_param(params::HB_AUCTION, "auc-1")
            .with_param(params::HB_BIDDER, profile.bidder_code.clone())
            .with_param(params::HB_SOURCE, "client");
        Request::post(RequestId(1), url, Body::Json(bid_request_body(&units)))
    }

    #[test]
    fn always_bidding_profile_returns_bids() {
        let mut p = PartnerProfile::test_profile(1, "rubicon");
        p.bid_rate = 1.0;
        let ep = partner_endpoint(p.clone());
        let mut rng = Rng::new(5);
        let reply = ep.handle(&bid_request(&p, 3), &mut rng);
        assert!(reply.response.status.is_success());
        let body = reply.response.body.json().unwrap();
        let (auction, bids) = protocol::parse_bid_response(body).unwrap();
        assert_eq!(auction, "auc-1");
        assert_eq!(bids.len(), 3);
        assert!(bids.iter().all(|b| b.cpm.is_positive()));
        assert!(bids.iter().all(|b| b.bidder == "rubicon"));
    }

    #[test]
    fn never_bidding_profile_returns_no_content() {
        let mut p = PartnerProfile::test_profile(2, "shy");
        p.bid_rate = 0.0;
        let ep = partner_endpoint(p.clone());
        let mut rng = Rng::new(6);
        let reply = ep.handle(&bid_request(&p, 2), &mut rng);
        assert_eq!(reply.response.status, hb_http::Status::NO_CONTENT);
    }

    #[test]
    fn processing_grows_with_slots() {
        let p = PartnerProfile::test_profile(3, "x");
        assert!(p.processing_time(10) > p.processing_time(1));
        assert_eq!(
            p.processing_time(0),
            p.processing_time(1),
            "at least one slot's worth of work"
        );
    }

    #[test]
    fn s2s_source_discounts_prices() {
        let mut p = PartnerProfile::test_profile(4, "ix");
        p.bid_rate = 1.0;
        p.price = Dist::Const(1.0);
        p.seats = 1;
        let mut rng = Rng::new(7);
        let client = p.draw_bid(AdSize::MEDIUM_RECT, 1.0, &mut rng).unwrap();
        let s2s = p.draw_bid(AdSize::MEDIUM_RECT, 0.6, &mut rng).unwrap();
        assert!(s2s.0 < client.0);
    }

    #[test]
    fn size_factors_reproduce_fig23_ordering() {
        let dear = PartnerProfile::size_price_factor(AdSize::new(120, 600));
        let mid = PartnerProfile::size_price_factor(AdSize::MEDIUM_RECT);
        let cheap = PartnerProfile::size_price_factor(AdSize::new(300, 50));
        assert!(dear > mid && mid > cheap);
    }

    #[test]
    fn win_notifications_acknowledged() {
        let p = PartnerProfile::test_profile(5, "w");
        let ep = partner_endpoint(p.clone());
        let url = Url::https(&p.host, protocol::paths::WIN)
            .with_param(params::HB_PRICE, "0.40")
            .with_param(params::HB_ADID, "cr-1");
        let req = Request::get(RequestId(9), url);
        let mut rng = Rng::new(8);
        let reply = ep.handle(&req, &mut rng);
        assert_eq!(reply.response.status, hb_http::Status::NO_CONTENT);
    }

    #[test]
    fn unknown_path_404s() {
        let p = PartnerProfile::test_profile(6, "u");
        let ep = partner_endpoint(p.clone());
        let req = Request::get(RequestId(1), Url::https(&p.host, "/nope"));
        let mut rng = Rng::new(9);
        assert_eq!(
            ep.handle(&req, &mut rng).response.status,
            hb_http::Status::NOT_FOUND
        );
    }

    #[test]
    fn malformed_body_rejected() {
        let p = PartnerProfile::test_profile(7, "m");
        let ep = partner_endpoint(p.clone());
        let req = Request::post(
            RequestId(1),
            Url::https(&p.host, protocol::paths::BID),
            Body::Empty,
        );
        let mut rng = Rng::new(10);
        assert_eq!(
            ep.handle(&req, &mut rng).response.status,
            hb_http::Status::BAD_REQUEST
        );
    }
}

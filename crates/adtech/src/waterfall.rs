//! The waterfall (daisy-chain) baseline.
//!
//! In the traditional standard the publisher's ad server tries sale
//! channels in priority order: direct orders first, then ad networks tier
//! by tier (each running its own RTB auction), finally remnant fallback.
//! Each tier is a sequential request/passback round trip — which is exactly
//! why HB's parallel fan-out trades extra traffic for (supposedly) better
//! prices, and why waterfall's *latency* is usually lower: the chain
//! typically stops at the first or second hop.
//!
//! Waterfall traffic deliberately carries **no `hb_*` parameters** and
//! fires **no HB DOM events**; notification URLs use DSP-specific parameter
//! names (paper §2.2). The detector must not flag it — tests assert that.

use crate::protocol::{self, FillChannel, WinnerPayload};
use crate::provider::{rtb_edge_host, tier_fill, tier_request};
use crate::rtb::InternalAuction;
use crate::session::{send_request, NetOutcome, PageWorld};
use crate::types::{AdSize, Cpm};
use crate::wrapper::PartnerRef;
use hb_http::{Endpoint, HStr, Json, Request, Response, ServerReply, Url};
use hb_simnet::{Dist, Rng, Scheduler, SimDuration, SimTime};

/// One tier of the waterfall chain.
#[derive(Clone, Debug)]
pub struct WaterfallTier {
    /// The ad network handling this tier.
    pub partner: PartnerRef,
    /// Price floor this tier must beat to fill.
    pub floor: Cpm,
}

/// Per-DSP notification parameter names — the paper's point that RTB
/// notification URLs are DSP-dependent, unlike the library-fixed `hb_*`
/// keys. Index by a stable hash of the bidder code.
pub fn rtb_price_param(bidder_code: &str) -> &'static str {
    const NAMES: [&str; 6] = ["p", "price", "wp", "cost", "cpm_enc", "winbid"];
    let h = hb_simnet::fnv1a(bidder_code.as_bytes());
    NAMES[(h % NAMES.len() as u64) as usize]
}

/// The waterfall ad endpoint a tier partner serves (`GET /rtb/ad`).
///
/// Runs the partner's internal auction; fills when the clearing price
/// beats the `floor` query parameter, otherwise passes back with 204.
pub fn waterfall_endpoint(bid_rate: f64, price: Dist, processing_ms: f64) -> impl Endpoint {
    move |req: &Request, rng: &mut Rng| -> ServerReply {
        match req.url.path.as_str() {
            p if p == protocol::paths::RTB_AD => {
                let floor = req
                    .url
                    .query
                    .get("floor")
                    .and_then(Cpm::parse)
                    .unwrap_or(Cpm::ZERO);
                let size = req
                    .url
                    .query
                    .get("size")
                    .and_then(AdSize::parse)
                    .unwrap_or(AdSize::MEDIUM_RECT);
                let processing = SimDuration::from_millis_f64(processing_ms);
                if !rng.chance(bid_rate) {
                    return ServerReply::after(Response::no_content(req.id), processing);
                }
                let auction = InternalAuction::new(4, &price);
                match auction.run(rng) {
                    Some(clearing) if clearing.0 >= floor.0 => {
                        let body = Json::obj([
                            ("price", Json::num(clearing.0)),
                            ("size", Json::str(size.label())),
                            ("adm", Json::str(HStr::from_static("<creative/>"))),
                        ]);
                        ServerReply::after(Response::json(req.id, body), processing)
                    }
                    _ => ServerReply::after(Response::no_content(req.id), processing),
                }
            }
            p if p == protocol::paths::RTB_NOTIFY => {
                ServerReply::instant(Response::no_content(req.id))
            }
            _ => ServerReply::instant(Response::error(req.id, hb_http::Status::NOT_FOUND)),
        }
    }
}

/// Begin the waterfall flow for the current site.
pub fn start_waterfall(w: &mut PageWorld, s: &mut Scheduler<PageWorld>) {
    let site = w.flow.site_handle();
    w.flow.truth.facet = None;
    w.flow.truth.slots_auctioned = site.ad_units.len();
    let start = s.now();
    w.flow.truth.first_bid_request_at = Some(start);
    try_tier(w, s, start, 0);
}

/// Attempt tier `idx`; on passback move to the next tier; when exhausted,
/// fall back to house ads. `start` is the chain's first request time.
fn try_tier(w: &mut PageWorld, s: &mut Scheduler<PageWorld>, start: SimTime, idx: usize) {
    let site = w.flow.site_handle();
    if idx >= site.waterfall_tiers.len() {
        // Chain exhausted: fallback/house ad, no further network cost.
        let now = s.now();
        w.flow.truth.waterfall_latency = Some(now.saturating_since(start));
        w.flow.truth.waterfall_fill_tier = None;
        finish_waterfall(w, s, FillChannel::Fallback, Cpm(0.05));
        return;
    }
    send_tier_request(w, s, start, idx, 0);
}

/// Send the tier's RTB call (attempt 0 or the one `rt=1`-marked retry).
///
/// Every send bumps the waterfall attempt generation; the response
/// continuation and the optional tier deadline both capture it, so
/// whichever fires second sees a stale generation and no-ops. A dropped
/// tier therefore advances on the deadline instead of hanging until the
/// 30 s browser network timeout — and never advances twice.
///
/// Waterfall traffic must never carry `hb_*` keys (the detector asserts
/// it), so the retry marker is the DSP-style `rt` parameter.
fn send_tier_request(
    w: &mut PageWorld,
    s: &mut Scheduler<PageWorld>,
    start: SimTime,
    idx: usize,
    attempt: u8,
) {
    let site = w.flow.site_handle();
    let tier = site.waterfall_tiers[idx].clone();
    let edge = rtb_edge_host(&tier.partner.host);
    let q = w.scratch.take_params();
    let cb = w.rng.below(1_000_000_000);
    let id = w.browser.next_request_id();
    let req = tier_request(id, q, &edge, tier.floor, &site.ad_units, cb, attempt > 0)
        .from_initiator("adserver-tag");
    w.flow.wf_attempt = w.flow.wf_attempt.wrapping_add(1);
    let gen = w.flow.wf_attempt;
    send_request(w, s, req, move |w, s, out| {
        if matches!(&out, NetOutcome::Failed(_)) {
            w.flow.truth.bids_dropped += 1;
        }
        if w.flow.done || w.flow.wf_attempt != gen {
            return; // the deadline already moved the chain on
        }
        let filled_price = match out {
            NetOutcome::Response(rsp) => {
                let price = tier_fill(&rsp);
                if let Some(body) = rsp.body.into_json() {
                    w.scratch.recycle_json(body);
                }
                price
            }
            NetOutcome::Failed(_) => None,
        };
        match filled_price {
            Some(price) => {
                let now = s.now();
                w.flow.truth.waterfall_latency = Some(now.saturating_since(start));
                w.flow.truth.waterfall_fill_tier = Some(idx);
                // DSP-specific win notification (no hb_* keys).
                let pparam = rtb_price_param(&tier.partner.code);
                let mut q = w.scratch.take_params();
                q.append(
                    HStr::from_static(pparam),
                    HStr::from_display(format_args!("{:.4}", price.0)),
                );
                q.append("cb", crate::types::decimal(w.rng.below(1_000_000_000)));
                let url =
                    Url::https_pooled(edge, HStr::from_static(protocol::paths::RTB_NOTIFY), q);
                let id = w.browser.next_request_id();
                let req = Request::get(id, url).from_initiator("adserver-tag");
                send_request(w, s, req, |_, _, _| {});
                finish_waterfall(w, s, FillChannel::HeaderBid, price);
            }
            None => try_tier(w, s, start, idx + 1),
        }
    });
    if let Some(deadline) = site.robustness.tier_deadline {
        let retry = attempt == 0 && site.robustness.retry;
        let backoff = site.robustness.retry_backoff;
        s.after(deadline, move |w: &mut PageWorld, s| {
            if w.flow.done || w.flow.wf_attempt != gen {
                return; // tier answered in time
            }
            if retry {
                s.after(backoff, move |w: &mut PageWorld, s| {
                    if w.flow.done || w.flow.wf_attempt != gen {
                        return; // the late answer landed during backoff
                    }
                    w.flow.truth.retries += 1;
                    send_tier_request(w, s, start, idx, 1);
                });
            } else {
                // Retry spent (or disabled): the tier is dead — advance.
                w.flow.truth.timed_out_partners += 1;
                try_tier(w, s, start, idx + 1);
            }
        });
    }
}

fn finish_waterfall(
    w: &mut PageWorld,
    s: &mut Scheduler<PageWorld>,
    channel: FillChannel,
    price: Cpm,
) {
    // Record a synthetic winner per slot for revenue accounting. Waterfall
    // fills are recorded as DirectOrder/Fallback-style winners without
    // bidder attribution (the client cannot see who won inside the network).
    let site = w.flow.site_handle();
    let now = s.now();
    for unit in site.ad_units.iter() {
        w.flow.truth.winners.push(WinnerPayload {
            slot: unit.code.clone(),
            bidder: HStr::EMPTY,
            pb: price,
            size: unit.primary_size(),
            ad_id: HStr::EMPTY,
            channel,
        });
        w.browser.page.mark_ad_rendered(now);
    }
    w.browser.page.mark_loaded(now);
    w.flow.done = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{EventCounts, HostDirectory, Net};
    use crate::types::AdUnit;
    use crate::wrapper::{begin_visit, RobustnessPolicy, SiteRuntime, WrapperConfig};
    use hb_http::Router;
    use hb_simnet::{FaultInjector, LatencyModel, Rng, SimTime, Simulation};
    use std::sync::Arc as Rc;

    fn tier(code: &str, host: &str, floor: f64) -> WaterfallTier {
        WaterfallTier {
            partner: PartnerRef {
                code: code.into(),
                name: code.to_uppercase().into(),
                host: host.into(),
            },
            floor: Cpm(floor),
        }
    }

    /// World with a 2-tier waterfall: tier0 never fills, tier1 always does.
    fn build(fill0: f64, fill1: f64) -> Simulation<PageWorld> {
        build_with(fill0, fill1, FaultInjector::none(), RobustnessPolicy::off())
    }

    /// [`build`] plus a fault injector and a robustness policy.
    fn build_with(
        fill0: f64,
        fill1: f64,
        faults: FaultInjector,
        robustness: RobustnessPolicy,
    ) -> Simulation<PageWorld> {
        let mut router = Router::new();
        router.register("pub1.example", |r: &Request, _: &mut Rng| {
            ServerReply::instant(Response::text(r.id, "<html><head></head></html>"))
        });
        router.register("cdn.example", |r: &Request, _: &mut Rng| {
            ServerReply::instant(Response::text(r.id, "// js"))
        });
        router.register(
            "rtb.adx0.example",
            waterfall_endpoint(fill0, Dist::Const(0.5), 5.0),
        );
        router.register(
            "rtb.adx1.example",
            waterfall_endpoint(fill1, Dist::Const(0.5), 5.0),
        );
        let mut latency = HostDirectory::new();
        latency.insert("pub1.example", LatencyModel::constant(30.0));
        latency.insert("cdn.example", LatencyModel::constant(10.0));
        latency.insert("rtb.adx0.example", LatencyModel::constant(80.0));
        latency.insert("rtb.adx1.example", LatencyModel::constant(80.0));
        let net = Net::new(Rc::new(router), Rc::new(latency), Rc::new(faults));
        let url = Url::parse("https://pub1.example/").unwrap();
        let mut world = PageWorld::new(url.clone(), net, Rng::new(7));
        world.handler_service_ms = Dist::Const(2.0);
        let site = SiteRuntime {
            page_url: url,
            rank: 10,
            facet: None,
            ad_units: vec![AdUnit::new("ad-slot-1", AdSize::MEDIUM_RECT, Cpm(0.01))].into(),
            client_partners: vec![],
            ad_server_host: "ads.pub1.example".into(),
            account_id: "pub-10".into(),
            wrapper: WrapperConfig::default(),
            waterfall_tiers: vec![
                tier("adx0", "adx0.example", 0.0),
                tier("adx1", "adx1.example", 0.0),
            ],
            cdn_host: "cdn.example".into(),
            render_fail_rate: 0.0,
            net_quality: 1.0,
            robustness,
        };
        let mut sim = Simulation::new(world);
        sim.scheduler()
            .after(SimDuration::ZERO, move |w: &mut PageWorld, s| {
                begin_visit(w, s, site);
            });
        sim
    }

    #[test]
    fn first_tier_fill_is_fast() {
        let mut sim = build(1.0, 1.0);
        sim.run_to_idle(10_000);
        let truth = &sim.world().flow.truth;
        assert_eq!(truth.waterfall_fill_tier, Some(0));
        let lat = truth.waterfall_latency.unwrap();
        // One 80ms hop + handling.
        assert!(lat >= SimDuration::from_millis(80), "lat {lat}");
        assert!(lat <= SimDuration::from_millis(120), "lat {lat}");
        assert_eq!(truth.winners.len(), 1);
    }

    #[test]
    fn passback_chains_to_second_tier() {
        let mut sim = build(0.0, 1.0);
        sim.run_to_idle(10_000);
        let truth = &sim.world().flow.truth;
        assert_eq!(truth.waterfall_fill_tier, Some(1));
        let lat = truth.waterfall_latency.unwrap();
        // Two sequential 80ms hops.
        assert!(lat >= SimDuration::from_millis(160), "lat {lat}");
    }

    #[test]
    fn exhausted_chain_falls_back() {
        let mut sim = build(0.0, 0.0);
        sim.run_to_idle(10_000);
        let truth = &sim.world().flow.truth;
        assert_eq!(truth.waterfall_fill_tier, None);
        assert_eq!(truth.winners[0].channel, FillChannel::Fallback);
    }

    #[test]
    fn no_hb_events_and_no_hb_params_in_waterfall() {
        let mut sim = build(1.0, 1.0);
        // Track every outgoing request's params.
        let hb_seen = Rc::new(std::cell::RefCell::new(false));
        let h2 = hb_seen.clone();
        sim.world_mut().browser.webrequest.tap(move |ev| {
            if let hb_dom::WebRequestEvent::Before { request, .. } = ev {
                let params = request.visible_params();
                if params.iter().any(|(k, _)| k.starts_with("hb_")) {
                    *h2.borrow_mut() = true;
                }
            }
        });
        let counts = EventCounts::tap(&mut sim.world_mut().browser);
        sim.run_to_idle(10_000);
        assert!(!*hb_seen.borrow(), "waterfall traffic must not carry hb_*");
        assert_eq!(counts.get("auctionInit"), 0);
        assert_eq!(counts.get("bidResponse"), 0);
        assert_eq!(counts.get("bidWon"), 0);
    }

    #[test]
    fn dead_tier_advances_on_deadline_after_one_retry() {
        // Tier 0's endpoint is hard-down. With a tier deadline + retry the
        // chain retries once (marked rt=1, never hb_*) and then advances
        // to tier 1 instead of hanging until the browser network timeout.
        let policy = RobustnessPolicy {
            tier_deadline: Some(SimDuration::from_millis(300)),
            retry: true,
            retry_backoff: SimDuration::from_millis(50),
            ..RobustnessPolicy::off()
        };
        let faults = FaultInjector::none().with_outage("rtb.adx0.example");
        let mut sim = build_with(0.0, 1.0, faults, policy);
        sim.run_to_idle(60_000);
        let truth = &sim.world().flow.truth;
        assert_eq!(truth.waterfall_fill_tier, Some(1), "chain advanced");
        assert_eq!(truth.retries, 1, "one rt=1 retry against tier 0");
        assert_eq!(truth.timed_out_partners, 1, "tier 0 resolved as dead");
        assert_eq!(truth.bids_dropped, 2, "both tier-0 attempts dropped");
        let lat = truth.waterfall_latency.unwrap();
        // deadline (300) + backoff (50) + deadline (300) + tier1 hop.
        assert!(lat >= SimDuration::from_millis(650), "lat {lat}");
        assert!(lat <= SimDuration::from_millis(1_500), "lat {lat}");
    }

    #[test]
    fn dead_chain_with_deadlines_falls_back_without_hanging() {
        // Every tier is down and retry is disabled: the chain must walk
        // the deadlines and land on the house-ad fallback.
        let policy = RobustnessPolicy {
            tier_deadline: Some(SimDuration::from_millis(200)),
            ..RobustnessPolicy::off()
        };
        let faults = FaultInjector::none()
            .with_outage("rtb.adx0.example")
            .with_outage("rtb.adx1.example");
        let mut sim = build_with(1.0, 1.0, faults, policy);
        sim.run_to_idle(60_000);
        let w = sim.world();
        assert!(w.flow.done);
        let truth = &w.flow.truth;
        assert_eq!(truth.waterfall_fill_tier, None);
        assert_eq!(truth.winners[0].channel, FillChannel::Fallback);
        assert_eq!(truth.timed_out_partners, 2);
        let lat = truth.waterfall_latency.unwrap();
        assert!(lat <= SimDuration::from_millis(1_000), "lat {lat}");
    }

    #[test]
    fn retried_waterfall_traffic_still_carries_no_hb_params() {
        let policy = RobustnessPolicy {
            tier_deadline: Some(SimDuration::from_millis(300)),
            retry: true,
            retry_backoff: SimDuration::from_millis(50),
            ..RobustnessPolicy::off()
        };
        let faults = FaultInjector::none().with_outage("rtb.adx0.example");
        let mut sim = build_with(0.0, 1.0, faults, policy);
        let hb_seen = Rc::new(std::cell::RefCell::new(false));
        let h2 = hb_seen.clone();
        sim.world_mut().browser.webrequest.tap(move |ev| {
            if let hb_dom::WebRequestEvent::Before { request, .. } = ev {
                let params = request.visible_params();
                if params.iter().any(|(k, _)| k.starts_with("hb_")) {
                    *h2.borrow_mut() = true;
                }
            }
        });
        sim.run_to_idle(60_000);
        assert!(
            !*hb_seen.borrow(),
            "retried waterfall traffic must not carry hb_*"
        );
    }

    #[test]
    fn rtb_price_param_is_dsp_dependent_but_stable() {
        let a = rtb_price_param("adx0");
        let b = rtb_price_param("adx0");
        assert_eq!(a, b);
        // Different DSPs mostly use different names; at minimum the name
        // is never an hb_* key.
        for code in ["adx0", "adx1", "criteo", "rubicon"] {
            assert!(!rtb_price_param(code).starts_with("hb_"));
        }
    }

    #[test]
    fn waterfall_fill_time_before_page_marked_loaded() {
        let mut sim = build(1.0, 1.0);
        sim.run_to_idle(10_000);
        let w = sim.world();
        assert!(w.flow.done);
        assert!(w.browser.page.loaded.is_some());
        assert!(w.browser.page.loaded.unwrap() > SimTime::ZERO);
    }
}

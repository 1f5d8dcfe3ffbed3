//! The header bidding wrapper and visit flows.
//!
//! This module drives a full page visit through one of the four protocol
//! flows the paper studies:
//!
//! * **Client-Side HB** (Fig. 5): wrapper fans out to partners from the
//!   browser, collects bids, forwards them to the publisher's own ad server;
//! * **Server-Side HB** (Fig. 6): a single request to a provider who runs
//!   the auction remotely and returns only winning impressions;
//! * **Hybrid HB** (Fig. 7): client fan-out plus a server-side auction at
//!   the provider/ad server;
//! * **Waterfall** (baseline): the prioritized daisy chain, implemented in
//!   [`crate::waterfall`].
//!
//! The wrapper fires the DOM events the paper's detector reverse-engineered
//! (`auctionInit`, `bidRequested`, `bidResponse`, `auctionEnd`, `bidWon`,
//! `slotRenderEnded`, `adRenderFailed`).

use crate::protocol::{self, events, params, BidPayload, FillChannel, WinnerPayload};
use crate::provider::{ad_server_params, hb_bid_request};
use crate::session::{send_request, NetOutcome, PageWorld};
use crate::types::{AdUnit, HbFacet};
use hb_http::{Body, HStr, Json, Request, Url};
use hb_simnet::{Scheduler, SimDuration, SimTime};
use std::sync::Arc;

/// Reference to a partner as the publisher configures it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartnerRef {
    /// Bidder code (`appnexus`).
    pub code: HStr,
    /// Display name (`AppNexus`).
    pub name: HStr,
    /// Hostname of the partner's endpoint.
    pub host: HStr,
}

/// Publisher-tunable wrapper configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct WrapperConfig {
    /// Bidder timeout; `None` = wait for every partner (no cut-off).
    pub timeout: Option<SimDuration>,
    /// Misconfiguration: send to the ad server immediately, without
    /// waiting for any bid (the paper's §5.2 explanation for partners
    /// losing 100% of their bids).
    pub send_immediately: bool,
    /// `hb_pb` price bucket granularity.
    pub pb_granularity: f64,
}

impl Default for WrapperConfig {
    fn default() -> Self {
        WrapperConfig {
            timeout: Some(SimDuration::from_millis(
                protocol::DEFAULT_BIDDER_TIMEOUT_MS,
            )),
            send_immediately: false,
            pb_granularity: protocol::DEFAULT_PB_GRANULARITY,
        }
    }
}

/// Robustness behavior of the ad path under degraded networks. Everything
/// defaults to **off**, which reproduces the baseline flows bit for bit:
/// no extra events are scheduled, no retry requests are issued, and no
/// RNG draws are added, so a healthy-scenario campaign stays
/// byte-identical to one built without any robustness policy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RobustnessPolicy {
    /// Per-partner client bid deadline: a partner that has not answered
    /// by then is resolved (retried once when [`Self::retry`] is set,
    /// failed otherwise) so the auction never waits on a dead endpoint.
    pub partner_deadline: Option<SimDuration>,
    /// Issue one deterministic retry (marked `hb_retry=1`) when a bid
    /// request fails or exceeds its deadline.
    pub retry: bool,
    /// Backoff before the retry request leaves.
    pub retry_backoff: SimDuration,
    /// Waterfall tier deadline: a tier that has not answered by then is
    /// retried once (marked `rt=1`, no `hb_*` keys — waterfall traffic
    /// must never carry them) and then advanced past, so the daisy chain
    /// cannot hang on a dropped tier.
    pub tier_deadline: Option<SimDuration>,
    /// Serve a passback / house ad when every demand source failed, so a
    /// fully degraded visit still renders and completes.
    pub passback: bool,
    /// Per-partner deadline of the server-side mediator's fan-out
    /// (threaded into [`crate::adserver::AdServerAccount::s2s_deadline`]
    /// by the ecosystem). `None` = wait for every s2s partner.
    pub s2s_deadline: Option<SimDuration>,
}

impl RobustnessPolicy {
    /// Everything disabled (the baseline semantics).
    pub fn off() -> RobustnessPolicy {
        RobustnessPolicy::default()
    }

    /// A sane degraded-network posture: 2.5 s partner deadline, one retry
    /// after 100 ms, 2 s waterfall tier deadline, passback on.
    pub fn degraded_defaults() -> RobustnessPolicy {
        RobustnessPolicy {
            partner_deadline: Some(SimDuration::from_millis(2_500)),
            retry: true,
            retry_backoff: SimDuration::from_millis(100),
            tier_deadline: Some(SimDuration::from_millis(2_000)),
            passback: true,
            s2s_deadline: Some(SimDuration::from_millis(600)),
        }
    }

    /// True when every knob is off (the baseline fast path).
    pub fn is_off(&self) -> bool {
        *self == RobustnessPolicy::default()
    }
}

/// Everything the simulation needs to visit one site.
#[derive(Clone, Debug)]
pub struct SiteRuntime {
    /// Page URL.
    pub page_url: Url,
    /// Alexa-style rank (1-based).
    pub rank: u32,
    /// The HB facet; `None` = waterfall-only site.
    pub facet: Option<HbFacet>,
    /// Ad units up for auction (already includes any multi-device
    /// duplication the publisher misconfigured). Shared with the site
    /// profile and ad-server account — runtime derivation is a handle
    /// clone, not a unit-list deep copy.
    pub ad_units: Arc<[AdUnit]>,
    /// Client-side partners (client and hybrid facets).
    pub client_partners: Vec<PartnerRef>,
    /// The ad server / server-side provider host.
    pub ad_server_host: HStr,
    /// Account id at the ad server.
    pub account_id: HStr,
    /// Wrapper tuning.
    pub wrapper: WrapperConfig,
    /// Waterfall tiers (baseline comparison).
    pub waterfall_tiers: Vec<crate::waterfall::WaterfallTier>,
    /// CDN host serving wrapper/ad-manager libraries.
    pub cdn_host: HStr,
    /// Probability an ad render fails after winning.
    pub render_fail_rate: f64,
    /// Per-site network quality multiplier applied to every RTT of the
    /// visit (premium publishers sit on better-peered infrastructure;
    /// drives the rank-latency association of Fig. 13). 1.0 = neutral.
    pub net_quality: f64,
    /// Robustness posture of the ad path (deadlines, retry, passback).
    /// The default keeps everything off, i.e. baseline semantics.
    pub robustness: RobustnessPolicy,
}

/// Ground truth collected during the visit (for validating the detector
/// and for the waterfall baseline, which the detector deliberately does
/// not capture).
#[derive(Clone, Debug, Default)]
pub struct VisitGroundTruth {
    /// Facet that actually ran.
    pub facet: Option<HbFacet>,
    /// Number of slots auctioned.
    pub slots_auctioned: usize,
    /// Client-visible bids received (in time or late).
    pub client_bids: usize,
    /// Bids that arrived after the ad-server send.
    pub late_bids: usize,
    /// When the first bid request left.
    pub first_bid_request_at: Option<SimTime>,
    /// When the ad-server request left.
    pub adserver_sent_at: Option<SimTime>,
    /// When the ad-server response arrived.
    pub adserver_response_at: Option<SimTime>,
    /// Winners per slot.
    pub winners: Vec<WinnerPayload>,
    /// Waterfall fill latency (waterfall sites only).
    pub waterfall_latency: Option<SimDuration>,
    /// Which waterfall tier filled (0-based; `None` = fallback).
    pub waterfall_fill_tier: Option<usize>,
    /// Ad-path requests (bid, tier, ad-server calls) whose response never
    /// arrived (network drop / timeout).
    pub bids_dropped: usize,
    /// Retry requests issued by the robustness policy.
    pub retries: usize,
    /// Distinct client partners resolved as timed out / failed.
    pub timed_out_partners: usize,
    /// Did a passback / house ad fill the slots because every demand
    /// source failed?
    pub passback_served: bool,
}

impl VisitGroundTruth {
    /// Total HB latency per the paper's definition: first bid request until
    /// the ad server responds.
    pub fn hb_latency(&self) -> Option<SimDuration> {
        Some(
            self.adserver_response_at?
                .saturating_since(self.first_bid_request_at?),
        )
    }

    /// Clear for the next pooled visit while keeping the winners vector's
    /// capacity (equivalent to `*self = Default::default()` observably).
    /// The exhaustive destructuring makes a newly added field a compile
    /// error here, so per-visit state can never leak across pooled visits
    /// silently.
    pub fn reset_for_visit(&mut self) {
        let VisitGroundTruth {
            facet,
            slots_auctioned,
            client_bids,
            late_bids,
            first_bid_request_at,
            adserver_sent_at,
            adserver_response_at,
            winners,
            waterfall_latency,
            waterfall_fill_tier,
            bids_dropped,
            retries,
            timed_out_partners,
            passback_served,
        } = self;
        *facet = None;
        *slots_auctioned = 0;
        *client_bids = 0;
        *late_bids = 0;
        *first_bid_request_at = None;
        *adserver_sent_at = None;
        *adserver_response_at = None;
        winners.clear();
        *waterfall_latency = None;
        *waterfall_fill_tier = None;
        *bids_dropped = 0;
        *retries = 0;
        *timed_out_partners = 0;
        *passback_served = false;
    }
}

/// Mutable per-visit flow state living inside [`PageWorld`].
#[derive(Default)]
pub struct FlowState {
    /// The site being visited (shared: flow steps take cheap `Arc`
    /// handles instead of deep-cloning ad units and partner lists on
    /// every continuation).
    pub site: Option<Arc<SiteRuntime>>,
    /// Auction correlation id.
    pub auction_id: HStr,
    /// Client-collected bids.
    pub bids: Vec<BidPayload>,
    /// Partners that have not answered yet.
    pub partners_pending: usize,
    /// Has the ad-server request been sent?
    pub sent_to_adserver: bool,
    /// Is the visit complete (ads rendered / given up)?
    pub done: bool,
    /// Per-partner: has this partner's auction participation been
    /// resolved (answered, failed, or deadline-expired)? Indexed like
    /// `site.client_partners`. A partner resolves exactly once, even
    /// when deadlines and in-flight responses race.
    pub partner_resolved: Vec<bool>,
    /// Per-partner: has the one robustness retry been spent?
    pub partner_retried: Vec<bool>,
    /// Waterfall attempt generation, bumped on every tier transition or
    /// retry so stale deadline/response continuations no-op.
    pub wf_attempt: u32,
    /// Ground truth accumulator.
    pub truth: VisitGroundTruth,
}

impl FlowState {
    /// Shared handle to the site runtime (two atomic ops, not a deep
    /// clone of ad units / partner refs / waterfall tiers). Every flow
    /// step runs inside a visit that `begin_visit` started, and that sets
    /// `site` before scheduling the first step, so the `expect` holds.
    pub(crate) fn site_handle(&self) -> Arc<SiteRuntime> {
        self.site.clone().expect("flow started without a site")
    }

    /// Re-arm for the next pooled visit, keeping the collected-bids
    /// buffer capacity. Equivalent to `*self = FlowState::default()`
    /// minus the allocation churn.
    pub fn reset_for_visit(&mut self) {
        self.site = None;
        self.auction_id = HStr::EMPTY;
        self.bids.clear();
        self.partners_pending = 0;
        self.sent_to_adserver = false;
        self.done = false;
        self.partner_resolved.clear();
        self.partner_retried.clear();
        self.wf_attempt = 0;
        self.truth.reset_for_visit();
    }
}

/// Entry point: start a visit for `site`. Schedules the page fetch and the
/// facet-appropriate flow. Run the simulation to completion afterwards.
/// Accepts the runtime owned or pre-shared — the pooled crawl path passes
/// an `Arc<SiteRuntime>` straight from the factory's memo, so starting a
/// visit never deep-copies ad units or partner lists.
pub fn begin_visit(
    w: &mut PageWorld,
    s: &mut Scheduler<PageWorld>,
    site: impl Into<Arc<SiteRuntime>>,
) {
    let site = site.into();
    w.scratch.begin_visit();
    let auction_id = HStr::from_display(format_args!(
        "auc-{}-{}",
        site.rank,
        w.rng.below(1_000_000_000)
    ));
    w.rtt_scale = site.net_quality;
    w.flow.site = Some(site.clone());
    w.flow.auction_id = auction_id;
    // 1. Fetch the page HTML.
    let id = w.browser.next_request_id();
    let req = Request::get(id, site.page_url.clone()).from_initiator("navigation");
    send_request(w, s, req, move |w, s, out| {
        if !matches!(out, NetOutcome::Response(_)) {
            w.flow.done = true; // site unreachable
            return;
        }
        w.browser.page.mark_header_parsed(s.now());
        fetch_libraries(w, s);
    });
}

/// 2. Fetch wrapper + ad-manager libraries from the CDN, then start the flow.
fn fetch_libraries(w: &mut PageWorld, s: &mut Scheduler<PageWorld>) {
    let site = w.flow.site_handle();
    let cdn = site.cdn_host.clone();
    // The ad-manager tag is fetched in parallel; we only gate on the
    // wrapper library (it is what issues the bid requests).
    let gpt_id = w.browser.next_request_id();
    let gpt_req = Request::get(
        gpt_id,
        Url::https_pooled(
            cdn.clone(),
            HStr::from_static(protocol::paths::GPT_JS),
            w.scratch.take_params(),
        ),
    )
    .from_initiator("document");
    send_request(w, s, gpt_req, |_, _, _| {});

    let lib_id = w.browser.next_request_id();
    let lib_req = Request::get(
        lib_id,
        Url::https_pooled(
            cdn,
            HStr::from_static(protocol::paths::WRAPPER_JS),
            w.scratch.take_params(),
        ),
    )
    .from_initiator("document");
    send_request(w, s, lib_req, move |w, s, _| {
        w.browser.page.mark_dom_ready(s.now());
        match site.facet {
            Some(HbFacet::ClientSide) | Some(HbFacet::Hybrid) => start_client_auction(w, s),
            Some(HbFacet::ServerSide) => start_server_side(w, s),
            None => crate::waterfall::start_waterfall(w, s),
        }
    });
}

/// 3a. Client-side / hybrid: fan out to the configured partners.
fn start_client_auction(w: &mut PageWorld, s: &mut Scheduler<PageWorld>) {
    let site = w.flow.site_handle();
    let auction_id = w.flow.auction_id.clone();
    let now = s.now();
    w.flow.truth.facet = site.facet;
    w.flow.truth.slots_auctioned = site.ad_units.len();

    // Event payloads are built from pooled spines and recycled as soon
    // as the listeners have seen them (listeners copy what they keep).
    let payload = Json::obj([
        (params::HB_AUCTION, Json::str(auction_id.clone())),
        (
            "adUnitCodes",
            Json::arr(site.ad_units.iter().map(|u| Json::str(u.code.clone()))),
        ),
        ("timestamp", Json::num(now.as_millis_f64())),
    ]);
    w.browser.fire_event(now, events::AUCTION_INIT, &payload);
    w.scratch.recycle_json(payload);
    let payload = Json::obj([(params::HB_AUCTION, Json::str(auction_id.clone()))]);
    w.browser.fire_event(now, events::REQUEST_BIDS, &payload);
    w.scratch.recycle_json(payload);

    w.flow.partners_pending = site.client_partners.len();
    w.flow.partner_resolved.clear();
    w.flow
        .partner_resolved
        .resize(site.client_partners.len(), false);
    w.flow.partner_retried.clear();
    w.flow
        .partner_retried
        .resize(site.client_partners.len(), false);

    for (idx, partner) in site.client_partners.iter().enumerate() {
        let q = w.scratch.take_params();
        let id = w.browser.next_request_id();
        let req = hb_bid_request(id, q, partner, &auction_id, &site.ad_units, false)
            .from_initiator("prebid.js");
        let payload = Json::obj([
            (params::HB_BIDDER, Json::str(partner.code.clone())),
            (params::HB_AUCTION, Json::str(auction_id.clone())),
        ]);
        w.browser
            .fire_event(s.now(), events::BID_REQUESTED, &payload);
        w.scratch.recycle_json(payload);
        if w.flow.truth.first_bid_request_at.is_none() {
            w.flow.truth.first_bid_request_at = Some(s.now());
        }
        send_request(w, s, req, move |w, s, out| {
            handle_bid_outcome(w, s, idx, 0, out)
        });
        if let Some(deadline) = site.robustness.partner_deadline {
            s.after(deadline, move |w: &mut PageWorld, s| {
                partner_deadline_expired(w, s, idx, 0);
            });
        }
    }

    if site.client_partners.is_empty() {
        // Degenerate config: nothing to wait for.
        send_to_adserver(w, s);
        return;
    }

    if site.wrapper.send_immediately {
        // Misconfigured wrapper: ship an empty bid set right away.
        send_to_adserver(w, s);
    } else if let Some(timeout) = site.wrapper.timeout {
        s.after(timeout, |w: &mut PageWorld, s| {
            if !w.flow.sent_to_adserver && !w.flow.done {
                send_to_adserver(w, s);
            }
        });
    }
}

/// Handle a partner's bid response (or failure) for one attempt.
///
/// With the robustness policy off every partner produces exactly one
/// outcome, so the resolution bookkeeping degenerates to the baseline
/// "decrement pending once per partner" semantics. With deadlines/retry
/// on, a partner can produce several outcomes (deadline expiry, the
/// original slow response, the retry response) — only the first
/// *resolving* one decrements `partners_pending`.
fn handle_bid_outcome(
    w: &mut PageWorld,
    s: &mut Scheduler<PageWorld>,
    partner_idx: usize,
    attempt: u8,
    out: NetOutcome,
) {
    let succeeded = matches!(&out, NetOutcome::Response(rsp) if rsp.status.is_success());
    if matches!(&out, NetOutcome::Failed(_)) {
        w.flow.truth.bids_dropped += 1;
    }
    let arrived_late = w.flow.sent_to_adserver;
    if let NetOutcome::Response(rsp) = out {
        if rsp.status.is_success() {
            if let Some(body) = rsp.body.into_json() {
                if let Some((_, bids)) = protocol::parse_bid_response(&body) {
                    for bid in bids {
                        w.flow.truth.client_bids += 1;
                        if arrived_late {
                            w.flow.truth.late_bids += 1;
                        }
                        let payload = Json::obj([
                            (params::BIDDER, Json::str(bid.bidder.clone())),
                            (params::HB_AUCTION, Json::str(w.flow.auction_id.clone())),
                            (params::HB_SLOT, Json::str(bid.slot.clone())),
                            (params::CPM, Json::num(bid.cpm.0)),
                            (params::HB_SIZE, Json::str(bid.size.label())),
                            (params::HB_CURRENCY, Json::str(bid.currency.clone())),
                        ]);
                        w.browser
                            .fire_event(s.now(), events::BID_RESPONSE, &payload);
                        w.scratch.recycle_json(payload);
                        if !arrived_late {
                            w.flow.bids.push(bid);
                        }
                    }
                }
                // The response tree is dead; pool its spines for the
                // next payload this worker builds.
                w.scratch.recycle_json(body);
            }
        }
    }

    // Resolution bookkeeping. Outcomes arriving after the partner
    // resolved (late responses past a deadline, the straggling network
    // failure of an already-expired attempt) count bids/drops above but
    // must not decrement `partners_pending` again.
    if w.flow
        .partner_resolved
        .get(partner_idx)
        .copied()
        .unwrap_or(true)
    {
        return;
    }
    if !succeeded {
        let site = w.flow.site_handle();
        if attempt == 0 && site.robustness.retry && !w.flow.partner_retried[partner_idx] {
            // First attempt failed fast: spend the retry; resolution is
            // deferred to the retry's outcome or deadline.
            launch_partner_retry(w, s, partner_idx);
            return;
        }
        w.flow.truth.timed_out_partners += 1;
    } else if attempt == 0 && w.flow.partner_retried[partner_idx] {
        // The original attempt answered after its deadline launched a
        // retry: the bids were counted above; the retry resolves.
        return;
    }
    w.flow.partner_resolved[partner_idx] = true;
    w.flow.partners_pending = w.flow.partners_pending.saturating_sub(1);
    if w.flow.partners_pending == 0 && !w.flow.sent_to_adserver && !w.flow.done {
        send_to_adserver(w, s);
    }
}

/// A partner's per-attempt deadline fired. No-op when the partner already
/// resolved or (for attempt 0) a retry superseded the attempt; otherwise
/// spend the retry, or resolve the partner as timed out.
fn partner_deadline_expired(
    w: &mut PageWorld,
    s: &mut Scheduler<PageWorld>,
    partner_idx: usize,
    attempt: u8,
) {
    if w.flow.done
        || w.flow
            .partner_resolved
            .get(partner_idx)
            .copied()
            .unwrap_or(true)
    {
        return;
    }
    if attempt == 0 && w.flow.partner_retried[partner_idx] {
        return; // the retry's own deadline is armed
    }
    let site = w.flow.site_handle();
    if attempt == 0 && site.robustness.retry {
        launch_partner_retry(w, s, partner_idx);
        return;
    }
    w.flow.truth.timed_out_partners += 1;
    w.flow.partner_resolved[partner_idx] = true;
    w.flow.partners_pending = w.flow.partners_pending.saturating_sub(1);
    if w.flow.partners_pending == 0 && !w.flow.sent_to_adserver && !w.flow.done {
        send_to_adserver(w, s);
    }
}

/// Issue the one deterministic retry for a partner: after the configured
/// backoff, re-send the bid request marked `hb_retry=1` and re-arm the
/// per-attempt deadline.
fn launch_partner_retry(w: &mut PageWorld, s: &mut Scheduler<PageWorld>, partner_idx: usize) {
    let site = w.flow.site_handle();
    w.flow.partner_retried[partner_idx] = true;
    w.flow.truth.retries += 1;
    let backoff = site.robustness.retry_backoff;
    let deadline = site.robustness.partner_deadline;
    s.after(backoff, move |w: &mut PageWorld, s| {
        if w.flow.done
            || w.flow
                .partner_resolved
                .get(partner_idx)
                .copied()
                .unwrap_or(true)
        {
            return;
        }
        let site = w.flow.site_handle();
        let partner = &site.client_partners[partner_idx];
        let q = w.scratch.take_params();
        let id = w.browser.next_request_id();
        let req = hb_bid_request(id, q, partner, &w.flow.auction_id, &site.ad_units, true)
            .from_initiator("prebid.js");
        let payload = Json::obj([
            (params::HB_BIDDER, Json::str(partner.code.clone())),
            (params::HB_AUCTION, Json::str(w.flow.auction_id.clone())),
        ]);
        w.browser
            .fire_event(s.now(), events::BID_REQUESTED, &payload);
        w.scratch.recycle_json(payload);
        send_request(w, s, req, move |w, s, out| {
            handle_bid_outcome(w, s, partner_idx, 1, out)
        });
        if let Some(d) = deadline {
            s.after(d, move |w: &mut PageWorld, s| {
                partner_deadline_expired(w, s, partner_idx, 1);
            });
        }
    });
}

/// 4. Ship collected bids to the ad server; fires `auctionEnd`.
fn send_to_adserver(w: &mut PageWorld, s: &mut Scheduler<PageWorld>) {
    if w.flow.sent_to_adserver {
        return;
    }
    w.flow.sent_to_adserver = true;
    let now = s.now();
    w.flow.truth.adserver_sent_at = Some(now);
    let site = w.flow.site_handle();
    let auction_id = w.flow.auction_id.clone();

    let payload = Json::obj([
        (params::HB_AUCTION, Json::str(auction_id.clone())),
        ("bidsReceived", Json::num(w.flow.bids.len() as f64)),
        ("timestamp", Json::num(now.as_millis_f64())),
    ]);
    w.browser.fire_event(now, events::AUCTION_END, &payload);
    w.scratch.recycle_json(payload);

    // Bucket prices for targeting.
    let bucketed: Vec<BidPayload> = w
        .flow
        .bids
        .iter()
        .map(|b| BidPayload {
            cpm: b.cpm.bucket(site.wrapper.pb_granularity),
            ..b.clone()
        })
        .collect();

    let mut q = w.scratch.take_params();
    ad_server_params(&mut q, &site.account_id, &auction_id, "client");
    for unit in site.ad_units.iter() {
        q.append(params::HB_SLOT, unit.code.clone());
    }
    // Echo the best bid per slot as hb_* targeting key-values (what DFP
    // line items key on, and what the detector sees in the URL).
    for unit in site.ad_units.iter() {
        if let Some(best) = bucketed
            .iter()
            .filter(|b| b.slot == unit.code)
            .max_by(|a, b| a.cpm.partial_cmp(&b.cpm).unwrap())
        {
            q.append(params::HB_BIDDER, best.bidder.clone());
            q.append(params::HB_PB, best.cpm.to_param());
            q.append(params::HB_SIZE, best.size.label());
            q.append(params::HB_ADID, best.ad_id.clone());
        }
    }
    let url = Url::https_pooled(
        site.ad_server_host.clone(),
        HStr::from_static(protocol::paths::AD_SERVER),
        q,
    );
    let id = w.browser.next_request_id();
    let body = protocol::bid_response_body(&w.flow.auction_id, &bucketed);
    let req = Request::post(id, url, Body::Json(body)).from_initiator("prebid.js");
    if w.flow.truth.first_bid_request_at.is_none() {
        // Server-side-like degenerate case: the ad-server call is the first
        // HB-related request.
        w.flow.truth.first_bid_request_at = Some(now);
    }
    send_request(w, s, req, |w, s, out| handle_adserver_response(w, s, out));
}

/// 3b. Server-Side HB: one request to the provider; it runs the auction.
fn start_server_side(w: &mut PageWorld, s: &mut Scheduler<PageWorld>) {
    let site = w.flow.site_handle();
    let now = s.now();
    w.flow.truth.facet = site.facet;
    w.flow.truth.slots_auctioned = site.ad_units.len();
    w.flow.truth.first_bid_request_at = Some(now);
    w.flow.truth.adserver_sent_at = Some(now);
    w.flow.sent_to_adserver = true;

    let mut q = w.scratch.take_params();
    ad_server_params(&mut q, &site.account_id, &w.flow.auction_id, "s2s");
    for unit in site.ad_units.iter() {
        q.append(params::HB_SLOT, unit.code.clone());
    }
    let url = Url::https_pooled(
        site.ad_server_host.clone(),
        HStr::from_static(protocol::paths::AD_SERVER),
        q,
    );
    let id = w.browser.next_request_id();
    let req = Request::get(id, url).from_initiator("hb-provider-tag");
    send_request(w, s, req, |w, s, out| handle_adserver_response(w, s, out));
}

/// 5. Ad-server response: fire win events, render slots, notify winners.
fn handle_adserver_response(w: &mut PageWorld, s: &mut Scheduler<PageWorld>, out: NetOutcome) {
    let now = s.now();
    w.flow.truth.adserver_response_at = Some(now);
    let site = w.flow.site_handle();
    if matches!(&out, NetOutcome::Failed(_)) {
        w.flow.truth.bids_dropped += 1;
    }
    let mut winners = match out {
        NetOutcome::Response(rsp) if rsp.status.is_success() => match rsp.body.into_json() {
            Some(body) => {
                let ws = protocol::parse_ad_server_response(&body)
                    .map(|(_, ws)| ws)
                    .unwrap_or_default();
                w.scratch.recycle_json(body);
                ws
            }
            None => Vec::new(),
        },
        _ => Vec::new(),
    };
    if winners.is_empty() && site.robustness.passback && !site.ad_units.is_empty() {
        // Graceful degradation: every demand source (including the ad
        // server itself) failed — fill the slots with a house ad so the
        // page still completes instead of timing out empty.
        w.flow.truth.passback_served = true;
        winners = site
            .ad_units
            .iter()
            .map(|u| WinnerPayload {
                slot: u.code.clone(),
                bidder: HStr::from_static("house"),
                pb: crate::types::Cpm(0.0),
                size: u.primary_size(),
                ad_id: HStr::from_static("passback"),
                channel: FillChannel::Fallback,
            })
            .collect();
        let payload = Json::obj([
            (params::HB_AUCTION, Json::str(w.flow.auction_id.clone())),
            ("slots", Json::num(winners.len() as f64)),
        ]);
        w.browser.fire_event(now, events::PASSBACK, &payload);
        w.scratch.recycle_json(payload);
    }
    w.flow.truth.winners = winners.clone();

    let fires_prebid_events = matches!(
        site.facet,
        Some(HbFacet::ClientSide) | Some(HbFacet::Hybrid)
    );
    for winner in &winners {
        if winner.channel == FillChannel::HeaderBid && fires_prebid_events {
            let payload = Json::obj([
                (params::HB_BIDDER, Json::str(winner.bidder.clone())),
                (params::HB_AUCTION, Json::str(w.flow.auction_id.clone())),
                (params::HB_SLOT, Json::str(winner.slot.clone())),
                (params::HB_PB, Json::str(winner.pb.to_param())),
                (params::HB_SIZE, Json::str(winner.size.label())),
            ]);
            w.browser.fire_event(now, events::BID_WON, &payload);
            w.scratch.recycle_json(payload);
        }
        // Win notification back to client-side partners we know the host of.
        if winner.channel == FillChannel::HeaderBid {
            if let Some(partner) = site
                .client_partners
                .iter()
                .find(|p| p.code == winner.bidder)
            {
                let mut q = w.scratch.take_params();
                q.append(params::HB_PRICE, winner.pb.to_param());
                q.append(params::HB_ADID, winner.ad_id.clone());
                q.append(params::HB_AUCTION, w.flow.auction_id.clone());
                let url = Url::https_pooled(
                    partner.host.clone(),
                    HStr::from_static(protocol::paths::WIN),
                    q,
                );
                let id = w.browser.next_request_id();
                let req = Request::get(id, url).from_initiator("prebid.js");
                send_request(w, s, req, |_, _, _| {});
            }
        }
    }

    // Render each slot after a short creative-injection delay.
    let n = winners.len();
    for (i, winner) in winners.into_iter().enumerate() {
        let delay = SimDuration::from_millis(20 + 15 * i as u64);
        let fail = w.rng.chance(site.render_fail_rate) && winner.channel != FillChannel::Unfilled;
        let last = i + 1 == n;
        s.after(delay, move |w: &mut PageWorld, s| {
            let now = s.now();
            if fail {
                let payload = Json::obj([(params::HB_SLOT, Json::str(winner.slot.clone()))]);
                w.browser
                    .fire_event(now, events::AD_RENDER_FAILED, &payload);
                w.scratch.recycle_json(payload);
                w.browser.page.mark_ad_failed();
            } else {
                let payload = Json::obj([
                    (params::HB_SLOT, Json::str(winner.slot.clone())),
                    (params::HB_SIZE, Json::str(winner.size.label())),
                    (
                        "isEmpty",
                        Json::Bool(winner.channel == FillChannel::Unfilled),
                    ),
                    (
                        "channel",
                        Json::str(HStr::from_static(winner.channel.label())),
                    ),
                ]);
                w.browser
                    .fire_event(now, events::SLOT_RENDER_ENDED, &payload);
                w.scratch.recycle_json(payload);
                w.browser.page.mark_ad_rendered(now);
            }
            if last {
                w.browser.page.mark_loaded(now);
                w.flow.done = true;
            }
        });
    }
    if n == 0 {
        w.browser.page.mark_loaded(now);
        w.flow.done = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adserver::{AdServerAccount, AdServerEndpoint};
    use crate::partner::{partner_endpoint, PartnerProfile};
    use crate::session::{EventCounts, HostDirectory, Net};
    use crate::types::{AdSize, Cpm};
    use hb_http::{Response, Router, ServerReply};
    use hb_simnet::{FaultInjector, LatencyModel, Rng, Simulation};
    use std::sync::Arc as Rc;

    /// Build a tiny world: one publisher page, a CDN, two partners, and an
    /// ad server with one account.
    fn page_sim(facet: Option<HbFacet>, wrapper: WrapperConfig) -> Simulation<PageWorld> {
        page_sim_with(
            facet,
            wrapper,
            FaultInjector::none(),
            RobustnessPolicy::off(),
        )
    }

    /// [`page_sim`] plus a fault injector and a robustness policy.
    fn page_sim_with(
        facet: Option<HbFacet>,
        wrapper: WrapperConfig,
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
        let mut fast = PartnerProfile::test_profile(1, "alpha");
        fast.bid_rate = 1.0;
        fast.host = "alpha.adnet.example".into();
        let mut slow = PartnerProfile::test_profile(2, "beta");
        slow.bid_rate = 1.0;
        slow.host = "beta.adnet.example".into();
        router.register("alpha.adnet.example", partner_endpoint(fast));
        router.register("beta.adnet.example", partner_endpoint(slow));

        let units = vec![
            AdUnit::new("ad-slot-1", AdSize::MEDIUM_RECT, Cpm(0.01)),
            AdUnit::new("ad-slot-2", AdSize::LEADERBOARD, Cpm(0.01)),
        ];
        let mut account = AdServerAccount::test_account("pub-1", units.clone());
        if facet == Some(HbFacet::ServerSide) || facet == Some(HbFacet::Hybrid) {
            let mut s2s = PartnerProfile::test_profile(3, "gamma");
            s2s.bid_rate = 1.0;
            account.s2s_partners = vec![std::sync::Arc::new(s2s)];
        }
        router.register("ads.pub1.example", AdServerEndpoint::new([account.clone()]));
        router.register("dfp-adnet.example", AdServerEndpoint::new([account]));

        let mut latency = HostDirectory::new();
        latency.insert("pub1.example", LatencyModel::constant(30.0));
        latency.insert("cdn.example", LatencyModel::constant(10.0));
        latency.insert("alpha.adnet.example", LatencyModel::constant(100.0));
        latency.insert("beta.adnet.example", LatencyModel::constant(400.0));
        latency.insert("ads.pub1.example", LatencyModel::constant(50.0));
        latency.insert("dfp-adnet.example", LatencyModel::constant(50.0));

        let net = Net::new(Rc::new(router), Rc::new(latency), Rc::new(faults));
        let url = Url::parse("https://pub1.example/").unwrap();
        let mut world = PageWorld::new(url.clone(), net, Rng::new(42));
        world.handler_service_ms = hb_simnet::Dist::Const(2.0);

        let ad_server_host = match facet {
            Some(HbFacet::ClientSide) | None => "ads.pub1.example",
            _ => "dfp-adnet.example",
        };
        let site = SiteRuntime {
            page_url: url,
            rank: 1,
            facet,
            ad_units: vec![
                AdUnit::new("ad-slot-1", AdSize::MEDIUM_RECT, Cpm(0.01)),
                AdUnit::new("ad-slot-2", AdSize::LEADERBOARD, Cpm(0.01)),
            ]
            .into(),
            client_partners: if facet == Some(HbFacet::ServerSide) {
                vec![]
            } else {
                vec![
                    PartnerRef {
                        code: "alpha".into(),
                        name: "Alpha".into(),
                        host: "alpha.adnet.example".into(),
                    },
                    PartnerRef {
                        code: "beta".into(),
                        name: "Beta".into(),
                        host: "beta.adnet.example".into(),
                    },
                ]
            },
            ad_server_host: ad_server_host.into(),
            account_id: "pub-1".into(),
            wrapper,
            waterfall_tiers: vec![],
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
    fn client_side_full_flow() {
        let mut sim = page_sim(Some(HbFacet::ClientSide), WrapperConfig::default());
        let counts = EventCounts::tap(&mut sim.world_mut().browser);
        sim.run_to_idle(10_000);
        let w = sim.world();
        assert!(w.flow.done, "visit completed");
        let truth = &w.flow.truth;
        assert_eq!(truth.slots_auctioned, 2);
        // Both partners bid on both slots.
        assert_eq!(truth.client_bids, 4);
        assert_eq!(truth.late_bids, 0, "no late bids under the 3s timeout");
        assert_eq!(truth.winners.len(), 2);
        assert!(truth
            .winners
            .iter()
            .all(|win| win.channel == FillChannel::HeaderBid));
        // Events fired.
        assert_eq!(counts.get(events::AUCTION_INIT), 1);
        assert_eq!(counts.get(events::BID_REQUESTED), 2);
        assert_eq!(counts.get(events::BID_RESPONSE), 4);
        assert_eq!(counts.get(events::AUCTION_END), 1);
        assert_eq!(counts.get(events::BID_WON), 2);
        assert_eq!(counts.get(events::SLOT_RENDER_ENDED), 2);
        // Latency: slowest partner 400ms dominates; + adserver 50ms + sundry.
        let lat = truth.hb_latency().unwrap();
        assert!(lat >= SimDuration::from_millis(450), "lat {lat}");
        assert!(lat <= SimDuration::from_millis(600), "lat {lat}");
    }

    #[test]
    fn server_side_flow_single_request_no_prebid_events() {
        let mut sim = page_sim(Some(HbFacet::ServerSide), WrapperConfig::default());
        let counts = EventCounts::tap(&mut sim.world_mut().browser);
        sim.run_to_idle(10_000);
        let w = sim.world();
        assert!(w.flow.done);
        let truth = &w.flow.truth;
        assert_eq!(truth.client_bids, 0);
        assert_eq!(truth.winners.len(), 2);
        // The s2s partner always bids, so HB wins.
        assert!(truth
            .winners
            .iter()
            .all(|win| win.channel == FillChannel::HeaderBid && win.bidder == "gamma"));
        assert_eq!(counts.get(events::AUCTION_INIT), 0);
        assert_eq!(counts.get(events::BID_RESPONSE), 0);
        assert_eq!(counts.get(events::BID_WON), 0);
        // gpt-style render events still fire.
        assert_eq!(counts.get(events::SLOT_RENDER_ENDED), 2);
        // Latency: single 50ms call + s2s fan-out processing.
        let lat = truth.hb_latency().unwrap();
        assert!(lat < SimDuration::from_millis(400), "lat {lat}");
    }

    #[test]
    fn hybrid_flow_merges_client_and_s2s_bids() {
        let mut sim = page_sim(Some(HbFacet::Hybrid), WrapperConfig::default());
        let counts = EventCounts::tap(&mut sim.world_mut().browser);
        sim.run_to_idle(10_000);
        let w = sim.world();
        assert!(w.flow.done);
        let truth = &w.flow.truth;
        assert_eq!(truth.client_bids, 4, "client partners answered");
        assert_eq!(truth.winners.len(), 2);
        assert!(counts.get(events::BID_RESPONSE) > 0);
        // Winner can be a client partner or the s2s partner "gamma" —
        // either way it is an HB fill.
        assert!(truth
            .winners
            .iter()
            .all(|win| win.channel == FillChannel::HeaderBid));
    }

    #[test]
    fn misconfigured_wrapper_loses_all_bids_as_late() {
        let cfg = WrapperConfig {
            send_immediately: true,
            ..WrapperConfig::default()
        };
        let mut sim = page_sim(Some(HbFacet::ClientSide), cfg);
        sim.run_to_idle(10_000);
        let w = sim.world();
        let truth = &w.flow.truth;
        assert_eq!(truth.client_bids, 4);
        assert_eq!(truth.late_bids, 4, "every bid arrives after the send");
        // With no usable bids, slots fall back.
        assert!(truth
            .winners
            .iter()
            .all(|win| win.channel == FillChannel::Fallback));
        // HB latency is tiny: just the ad-server round trip.
        let lat = truth.hb_latency().unwrap();
        assert!(lat < SimDuration::from_millis(120), "lat {lat}");
    }

    #[test]
    fn short_timeout_cuts_off_slow_partner() {
        let cfg = WrapperConfig {
            timeout: Some(SimDuration::from_millis(200)),
            ..WrapperConfig::default()
        };
        let mut sim = page_sim(Some(HbFacet::ClientSide), cfg);
        sim.run_to_idle(10_000);
        let w = sim.world();
        let truth = &w.flow.truth;
        // alpha (100ms) made it; beta (400ms) is late.
        assert_eq!(truth.client_bids, 4);
        assert_eq!(truth.late_bids, 2);
        let alpha_won = truth
            .winners
            .iter()
            .filter(|win| win.bidder == "alpha")
            .count();
        assert_eq!(alpha_won, 2, "only alpha's bids were usable");
    }

    #[test]
    fn no_timeout_waits_for_everyone() {
        let cfg = WrapperConfig {
            timeout: None,
            ..WrapperConfig::default()
        };
        let mut sim = page_sim(Some(HbFacet::ClientSide), cfg);
        sim.run_to_idle(10_000);
        let truth = &sim.world().flow.truth;
        assert_eq!(truth.late_bids, 0);
        assert_eq!(truth.client_bids, 4);
    }

    #[test]
    fn partner_deadline_and_retry_resolve_dead_partner() {
        // alpha is hard-down; without a deadline the no-timeout wrapper
        // would wait the full 30 s browser network timeout. The policy
        // resolves it after one retry and the auction proceeds on beta.
        let cfg = WrapperConfig {
            timeout: None,
            ..WrapperConfig::default()
        };
        let policy = RobustnessPolicy {
            partner_deadline: Some(SimDuration::from_millis(500)),
            retry: true,
            retry_backoff: SimDuration::from_millis(50),
            ..RobustnessPolicy::off()
        };
        let faults = FaultInjector::none().with_outage("alpha.adnet.example");
        let mut sim = page_sim_with(Some(HbFacet::ClientSide), cfg, faults, policy);
        let counts = EventCounts::tap(&mut sim.world_mut().browser);
        sim.run_to_idle(60_000);
        let w = sim.world();
        assert!(w.flow.done, "visit completed despite the dead partner");
        let truth = &w.flow.truth;
        assert_eq!(truth.client_bids, 2, "only beta answered");
        assert_eq!(truth.retries, 1, "one retry against alpha");
        assert_eq!(truth.timed_out_partners, 1);
        assert_eq!(truth.bids_dropped, 2, "both alpha attempts dropped");
        // The auction resolved on the deadline chain (~1.1 s), not the
        // 30 s network timeout.
        let lat = truth.hb_latency().unwrap();
        assert!(lat <= SimDuration::from_millis(2_000), "lat {lat}");
        assert!(truth
            .winners
            .iter()
            .all(|win| win.channel == FillChannel::HeaderBid && win.bidder == "beta"));
        // The retry request is a marked bid request: 2 initial + 1 retry.
        assert_eq!(counts.get(events::BID_REQUESTED), 3);
    }

    #[test]
    fn passback_fills_when_every_demand_source_is_down() {
        // Partners AND the ad server are down. Without passback the page
        // gives up with zero winners; with it the slots render house ads
        // and the visit still completes.
        let policy = RobustnessPolicy {
            partner_deadline: Some(SimDuration::from_millis(500)),
            retry: false,
            retry_backoff: SimDuration::ZERO,
            tier_deadline: None,
            passback: true,
            s2s_deadline: None,
        };
        let faults = FaultInjector::none()
            .with_outage("alpha.adnet.example")
            .with_outage("beta.adnet.example")
            .with_outage("ads.pub1.example");
        let mut sim = page_sim_with(
            Some(HbFacet::ClientSide),
            WrapperConfig::default(),
            faults,
            policy,
        );
        let counts = EventCounts::tap(&mut sim.world_mut().browser);
        sim.run_to_idle(60_000);
        let w = sim.world();
        assert!(w.flow.done, "visit completed via passback");
        let truth = &w.flow.truth;
        assert!(truth.passback_served);
        assert_eq!(truth.winners.len(), 2);
        assert!(truth
            .winners
            .iter()
            .all(|win| win.channel == FillChannel::Fallback && win.bidder == "house"));
        assert_eq!(truth.timed_out_partners, 2);
        assert_eq!(truth.retries, 0);
        // Two partner requests + the ad-server call never answered.
        assert_eq!(truth.bids_dropped, 3);
        assert_eq!(counts.get(events::PASSBACK), 1);
        assert_eq!(counts.get(events::SLOT_RENDER_ENDED), 2);
    }

    #[test]
    fn robustness_policy_defaults_are_off() {
        assert!(RobustnessPolicy::off().is_off());
        assert!(RobustnessPolicy::default().is_off());
        assert!(!RobustnessPolicy::degraded_defaults().is_off());
    }

    #[test]
    fn ground_truth_latency_accounts() {
        let mut sim = page_sim(Some(HbFacet::ClientSide), WrapperConfig::default());
        sim.run_to_idle(10_000);
        let truth = &sim.world().flow.truth;
        assert!(truth.first_bid_request_at.unwrap() < truth.adserver_sent_at.unwrap());
        assert!(truth.adserver_sent_at.unwrap() < truth.adserver_response_at.unwrap());
    }
}

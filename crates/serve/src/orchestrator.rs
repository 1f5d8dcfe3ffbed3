//! The auction orchestrator: serving-side mediation with a robustness
//! envelope.
//!
//! One [`ServeWorld`] per serving shard runs admitted [`AdRequest`]s
//! through the site's demand legs, read straight off its
//! [`SiteRuntime`]: parallel header bidding to its client partners,
//! ad-server/S2S mediation, then the sequential waterfall over its
//! tiers — all under one per-request **deadline budget**
//! that every leg inherits (a leg's timeout is clamped to the remaining
//! budget) and that a backstop event enforces: by `arrival + budget`
//! the auction has resolved to a winner, a passback, or a shed, and
//! every event it ever scheduled is cancelled, so no orchestrator
//! future outlives its request.
//!
//! Degradations are first-class and deterministic in `(seed, request)`:
//!
//! * **circuit breakers** ([`CircuitBreaker`]) per provider *host*
//!   (the failure domain) skip legs whose breaker is open;
//! * **hedged requests**: an HB leg that outruns the provider's
//!   observed latency quantile fires one backup request; first answer
//!   wins, the loser's arrival is cancelled;
//! * **admission control**: at most [`ServeConfig::max_in_flight`]
//!   auctions run concurrently; overload resolves immediately to an
//!   explicit [`Decision::Shed`].
//!
//! Every auction draws from its own derived rng stream
//! (`seed → "serve" → request id`), so concurrency never reorders
//! randomness; shard worlds are single-threaded simulations, and the
//! shard partition is fixed by config — worker threads only decide
//! *who* runs a shard, never *what* it computes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use hb_adtech::{
    hb_bid_request, hb_bids_from, mediation_request, mediation_winner, rtb_edge_host, tier_fill,
    tier_request, BidPayload, FillChannel, Net, SiteRuntime, WinnerPayload,
};
use hb_ecosystem::{SiteFactory, SiteGen};
use hb_http::{QueryParams, Request, RequestId, Response};
use hb_simnet::{EventId, HStr, Rng, Scheduler, SimDuration, SimTime, Simulation, StopReason};
use hb_stats::LogHistogram;

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::loadgen::LoadGenConfig;
use crate::request::{AdRequest, AuctionOutcome, Channel, Decision};

/// Orchestrator tuning. Defaults give a 1s budget over 300/400/250ms
/// leg timeouts, p90 hedging, and 64 concurrent auctions per shard.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Root seed of the serving plane (rng streams derive from it).
    pub seed: u64,
    /// Per-request deadline budget; the orchestrator always answers by
    /// `arrival + budget`.
    pub budget: SimDuration,
    /// Concurrent auctions admitted per shard; beyond this, requests
    /// shed explicitly.
    pub max_in_flight: u32,
    /// Parallel HB leg timeout (clamped to remaining budget).
    pub hb_timeout: SimDuration,
    /// Ad-server mediation leg timeout (clamped to remaining budget).
    pub mediation_timeout: SimDuration,
    /// Per-tier waterfall timeout (clamped to remaining budget).
    pub tier_timeout: SimDuration,
    /// Hedge trigger before a provider has latency history.
    pub hedge_after: SimDuration,
    /// Latency quantile that triggers a hedge once history exists.
    pub hedge_quantile: f64,
    /// Provider responses required before the quantile estimator is
    /// trusted over [`ServeConfig::hedge_after`].
    pub hedge_min_samples: u64,
    /// Waterfall early-abort: when the remaining budget drops below
    /// this, stop descending tiers and pass back (the Ting & Grislain
    /// abort decision — a tier that can't finish isn't worth starting).
    pub abort_margin: SimDuration,
    /// Circuit breaker tuning (shared by all providers).
    pub breaker: BreakerConfig,
    /// Fixed serving shard count. Part of the workload definition, NOT
    /// the worker count: results are byte-identical for any number of
    /// worker threads executing these shards.
    pub shards: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 0xAD_5EED,
            budget: SimDuration::from_millis(1_000),
            max_in_flight: 64,
            hb_timeout: SimDuration::from_millis(300),
            mediation_timeout: SimDuration::from_millis(400),
            tier_timeout: SimDuration::from_millis(250),
            hedge_after: SimDuration::from_millis(150),
            hedge_quantile: 0.9,
            hedge_min_samples: 32,
            abort_margin: SimDuration::from_millis(100),
            breaker: BreakerConfig::default(),
            shards: 8,
        }
    }
}

/// Counters of everything the serving plane did. All integers, so
/// cross-shard merges and cross-run comparisons are exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests that reached the orchestrator.
    pub auctions: u64,
    /// Requests admitted past the in-flight gate.
    pub admitted: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
    /// Fills won by parallel-HB bids.
    pub wins_hb: u64,
    /// Fills won by server-side seats via mediation.
    pub wins_s2s: u64,
    /// Fills won by waterfall tiers.
    pub wins_waterfall: u64,
    /// Fills won by direct orders.
    pub wins_direct: u64,
    /// Fills by the ad server's house line.
    pub wins_house: u64,
    /// Auctions that resolved with no fill at all.
    pub passbacks: u64,
    /// Fills resolved from held client bids after the mediation leg
    /// failed or was breaker-skipped (the degraded answer).
    pub degraded_fills: u64,
    /// Provider legs that hit their timeout.
    pub provider_timeouts: u64,
    /// Hedge requests fired.
    pub hedges_fired: u64,
    /// Hedges that beat their primary.
    pub hedge_wins: u64,
    /// Legs skipped because a breaker was open.
    pub breaker_skips: u64,
    /// Circuit breaker trips across all providers.
    pub breaker_trips: u64,
    /// Waterfall descents cut short by the abort margin.
    pub wf_aborts: u64,
    /// Auctions resolved by the budget backstop event.
    pub budget_exhausted: u64,
}

impl ServeStats {
    /// Fold another shard's counters in (plain addition).
    pub fn merge(&mut self, o: &ServeStats) {
        self.auctions += o.auctions;
        self.admitted += o.admitted;
        self.sheds += o.sheds;
        self.wins_hb += o.wins_hb;
        self.wins_s2s += o.wins_s2s;
        self.wins_waterfall += o.wins_waterfall;
        self.wins_direct += o.wins_direct;
        self.wins_house += o.wins_house;
        self.passbacks += o.passbacks;
        self.degraded_fills += o.degraded_fills;
        self.provider_timeouts += o.provider_timeouts;
        self.hedges_fired += o.hedges_fired;
        self.hedge_wins += o.hedge_wins;
        self.breaker_skips += o.breaker_skips;
        self.breaker_trips += o.breaker_trips;
        self.wf_aborts += o.wf_aborts;
        self.budget_exhausted += o.budget_exhausted;
    }

    /// Total fills (any channel).
    pub fn fills(&self) -> u64 {
        self.wins_hb + self.wins_s2s + self.wins_waterfall + self.wins_direct + self.wins_house
    }
}

/// Per-provider health: the breaker plus the latency history feeding
/// the hedge trigger.
struct ProviderHealth {
    breaker: CircuitBreaker,
    latency: LogHistogram,
}

/// One in-flight parallel-HB leg.
struct Leg {
    /// Index into the site's `client_partners`.
    partner: usize,
    done: bool,
    sent_at: SimTime,
    hedge_sent_at: SimTime,
    timeout_at: SimTime,
    arrival: Option<EventId>,
    timeout: EventId,
    hedge_fire: Option<EventId>,
    hedge_arrival: Option<EventId>,
}

/// One admitted auction's live state.
struct Auction {
    req: AdRequest,
    started: SimTime,
    deadline: SimTime,
    rng: Rng,
    site: Arc<SiteRuntime>,
    label: HStr,
    budget_ev: EventId,
    hb_open: u32,
    legs: Vec<Leg>,
    bids: Vec<BidPayload>,
    best_hb: Option<(u64, HStr)>,
    med_arrival: Option<EventId>,
    med_timeout: Option<EventId>,
    /// Index into the site's `waterfall_tiers` of the next tier to try.
    wf_idx: usize,
    wf_arrival: Option<EventId>,
    wf_timeout: Option<EventId>,
    hedges_fired: u32,
    hedge_wins: u32,
    breaker_skips: u32,
}

impl Auction {
    /// A leg timeout started at `now`, clamped to the auction's deadline.
    fn leg_deadline(&self, now: SimTime, timeout: SimDuration) -> SimTime {
        now.saturating_add(timeout).min(self.deadline)
    }

    /// Send a leg request on this auction's rng stream. The answer
    /// counts only if it lands by `timeout_at`: a dropped, unroutable or
    /// late request returns `None`, and the leg's timeout is the only
    /// event that covers it. The serving plane never schedules the
    /// browser's 30 s network timeout, which is what keeps "every
    /// provider down" runs idle by the budget.
    fn send(
        &mut self,
        net: &Net,
        req: &Request,
        now: SimTime,
        timeout_at: SimTime,
    ) -> Option<(SimTime, Response)> {
        let delivery = net.exchange(req, &mut self.rng).ok()?;
        let at = now.saturating_add(delivery.rtt.saturating_add(delivery.service));
        (at <= timeout_at).then_some((at, delivery.response))
    }
}

/// Slot with a generation stamp: every event closure captures
/// `(slot, gen)` and no-ops when the generation moved on, so late
/// events from a resolved auction can never touch its successor.
struct Slot {
    gen: u32,
    auction: Option<Auction>,
}

/// Where a shard's requests come from.
enum Source {
    /// Explicit request list (tests).
    List(Vec<AdRequest>),
    /// Generated on demand from the load model; the shard runs request
    /// numbers `shard, shard + shards, shard + 2*shards, …`.
    Gen(LoadGenConfig),
}

/// The per-shard serving world driven by a [`Simulation`].
pub struct ServeWorld {
    cfg: ServeConfig,
    net: Net,
    gen: Arc<SiteGen>,
    source: Source,
    root_rng: Rng,
    next_req_id: u64,
    auctions: Vec<Slot>,
    free: Vec<usize>,
    in_flight: u32,
    health: HashMap<HStr, ProviderHealth>,
    hist: LogHistogram,
    stats: ServeStats,
    digest: u64,
    outcomes: Option<Vec<AuctionOutcome>>,
    last_resolve: SimTime,
}

impl ServeWorld {
    fn new(
        cfg: ServeConfig,
        net: Net,
        gen: Arc<SiteGen>,
        source: Source,
        shard: u32,
        collect: bool,
    ) -> ServeWorld {
        ServeWorld {
            root_rng: Rng::new(cfg.seed).derive_str("serve").derive(shard as u64),
            cfg,
            net,
            gen,
            source,
            next_req_id: 0,
            auctions: Vec::new(),
            free: Vec::new(),
            in_flight: 0,
            health: HashMap::new(),
            hist: LogHistogram::new(),
            stats: ServeStats::default(),
            digest: 0,
            outcomes: collect.then(Vec::new),
            last_resolve: SimTime::ZERO,
        }
    }

    fn health_mut(&mut self, host: &HStr) -> &mut ProviderHealth {
        let breaker = self.cfg.breaker;
        self.health
            .entry(host.clone())
            .or_insert_with(|| ProviderHealth {
                breaker: CircuitBreaker::new(breaker),
                latency: LogHistogram::new(),
            })
    }

    /// Hedge trigger for a provider: its observed latency quantile once
    /// enough history exists, the static `hedge_after` before that.
    fn hedge_delay(&self, host: &HStr) -> SimDuration {
        match self.health.get(host) {
            Some(h) if h.latency.count() >= self.cfg.hedge_min_samples => {
                SimDuration(h.latency.value_at_quantile(self.cfg.hedge_quantile))
            }
            _ => self.cfg.hedge_after,
        }
    }

    fn next_request_id(&mut self) -> RequestId {
        self.next_req_id += 1;
        RequestId(self.next_req_id)
    }
}

/// Look up the live auction in `slot` iff its generation still matches.
macro_rules! live_auction {
    ($w:expr, $slot:expr, $gen:expr) => {{
        let s = &mut $w.auctions[$slot];
        if s.gen != $gen {
            return;
        }
        match s.auction.as_mut() {
            Some(a) => a,
            None => return,
        }
    }};
}

/// The auction in `slot`, re-borrowed after a call that needed all of
/// the world. Holds because the calling event's `live_auction!` has
/// already checked the slot, and nothing since then resolves an auction:
/// breaker, stats and request-id updates never free a slot.
fn checked(auctions: &mut [Slot], slot: usize) -> &mut Auction {
    auctions[slot]
        .auction
        .as_mut()
        .expect("live_auction! checked this slot and nothing has resolved it since")
}

/// Admit (or shed) one request and start its auction.
pub fn start_auction(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, req: AdRequest) {
    w.stats.auctions += 1;
    if w.in_flight >= w.cfg.max_in_flight {
        w.stats.sheds += 1;
        finish_outcome(
            w,
            s.now(),
            AuctionOutcome {
                request: req.id,
                rank: req.rank,
                decision: Decision::Shed,
                latency: SimDuration::ZERO,
                hedges_fired: 0,
                hedge_wins: 0,
                breaker_skips: 0,
            },
        );
        return;
    }
    w.in_flight += 1;
    w.stats.admitted += 1;

    let site = w.gen.runtime_shared(req.rank);
    let rng = w.root_rng.derive(req.id);
    let label = HStr::from_display(format_args!("srv-{}", req.id));
    let now = s.now();

    let slot = match w.free.pop() {
        Some(i) => i,
        None => {
            w.auctions.push(Slot {
                gen: 0,
                auction: None,
            });
            w.auctions.len() - 1
        }
    };
    let gen = w.auctions[slot].gen;
    // The budget backstop: scheduled before any leg event at the same
    // instant, so at the deadline it resolves first and cancels them.
    let budget_ev = s.after(w.cfg.budget, move |w, s| on_budget(w, s, slot, gen));
    w.auctions[slot].auction = Some(Auction {
        started: now,
        deadline: now.saturating_add(w.cfg.budget),
        rng,
        site,
        label,
        budget_ev,
        hb_open: 0,
        legs: Vec::new(),
        bids: Vec::new(),
        best_hb: None,
        med_arrival: None,
        med_timeout: None,
        wf_idx: 0,
        wf_arrival: None,
        wf_timeout: None,
        hedges_fired: 0,
        hedge_wins: 0,
        breaker_skips: 0,
        req,
    });
    begin_hb(w, s, slot, gen);
}

/// Fan out to the site's client-side partners (breaker permitting);
/// advance straight on when the site has none to send.
fn begin_hb(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, gen: u32) {
    let now = s.now();
    let site = live_auction!(w, slot, gen).site.clone();
    for (partner, p) in site.client_partners.iter().enumerate() {
        if !w.health_mut(&p.host).breaker.allow(now) {
            checked(&mut w.auctions, slot).breaker_skips += 1;
            w.stats.breaker_skips += 1;
            continue;
        }
        dispatch_hb_leg(w, s, slot, gen, partner);
    }
    if checked(&mut w.auctions, slot).hb_open == 0 {
        after_hb(w, s, slot, gen);
    }
}

/// Send one HB leg's primary request and arm its timeout + hedge.
fn dispatch_hb_leg(
    w: &mut ServeWorld,
    s: &mut Scheduler<ServeWorld>,
    slot: usize,
    gen: u32,
    partner: usize,
) {
    let now = s.now();
    let id = w.next_request_id();
    let a = checked(&mut w.auctions, slot);
    let host = a.site.client_partners[partner].host.clone();
    let timeout_at = a.leg_deadline(now, w.cfg.hb_timeout);
    let request = hb_bid_request(
        id,
        QueryParams::new(),
        &a.site.client_partners[partner],
        &a.label,
        &a.site.ad_units,
        false,
    )
    .from_initiator("hb-serve");
    let answer = a.send(&w.net, &request, now, timeout_at);
    let leg_idx = a.legs.len();
    a.hb_open += 1;
    let timeout = s.at(timeout_at, move |w, s| {
        on_leg_timeout(w, s, slot, gen, leg_idx)
    });
    let mut leg = Leg {
        partner,
        done: false,
        sent_at: now,
        hedge_sent_at: SimTime::ZERO,
        timeout_at,
        arrival: None,
        timeout,
        hedge_fire: None,
        hedge_arrival: None,
    };
    if let Some((at, rsp)) = answer {
        let bids = hb_bids_from(&rsp);
        leg.arrival = Some(s.at(at, move |w, s| {
            on_leg_arrival(w, s, slot, gen, leg_idx, false, bids)
        }));
    }
    // Arm the hedge only if it would fire before the leg's timeout —
    // a hedge with no time to answer is pure cost.
    let hedge_at = now.saturating_add(w.hedge_delay(&host));
    if hedge_at < timeout_at {
        leg.hedge_fire = Some(s.at(hedge_at, move |w, s| {
            on_hedge_fire(w, s, slot, gen, leg_idx)
        }));
    }
    checked(&mut w.auctions, slot).legs.push(leg);
}

/// The primary outran the provider's latency quantile: fire the backup.
fn on_hedge_fire(
    w: &mut ServeWorld,
    s: &mut Scheduler<ServeWorld>,
    slot: usize,
    gen: u32,
    leg: usize,
) {
    let now = s.now();
    let id = w.next_request_id();
    let a = live_auction!(w, slot, gen);
    if a.legs[leg].done {
        return;
    }
    a.legs[leg].hedge_fire = None;
    a.legs[leg].hedge_sent_at = now;
    let timeout_at = a.legs[leg].timeout_at;
    let request = hb_bid_request(
        id,
        QueryParams::new(),
        &a.site.client_partners[a.legs[leg].partner],
        &a.label,
        &a.site.ad_units,
        true,
    )
    .from_initiator("hb-serve");
    let answer = a.send(&w.net, &request, now, timeout_at);
    a.hedges_fired += 1;
    w.stats.hedges_fired += 1;
    if let Some((at, rsp)) = answer {
        let bids = hb_bids_from(&rsp);
        a.legs[leg].hedge_arrival = Some(s.at(at, move |w, s| {
            on_leg_arrival(w, s, slot, gen, leg, true, bids)
        }));
    }
}

/// An HB response landed (primary or hedge — first one wins the leg).
fn on_leg_arrival(
    w: &mut ServeWorld,
    s: &mut Scheduler<ServeWorld>,
    slot: usize,
    gen: u32,
    leg: usize,
    hedge: bool,
    bids: Option<Vec<BidPayload>>,
) {
    let now = s.now();
    let a = live_auction!(w, slot, gen);
    if a.legs[leg].done {
        return;
    }
    a.legs[leg].done = true;
    let l = &mut a.legs[leg];
    s.cancel(l.timeout);
    if let Some(e) = l.hedge_fire.take() {
        s.cancel(e);
    }
    let loser = if hedge {
        l.arrival.take()
    } else {
        l.hedge_arrival.take()
    };
    if let Some(e) = loser {
        s.cancel(e);
    }
    let sent = if hedge { l.hedge_sent_at } else { l.sent_at };
    let host = a.site.client_partners[l.partner].host.clone();
    if hedge {
        a.hedge_wins += 1;
        w.stats.hedge_wins += 1;
    }
    if let Some(bids) = bids {
        for b in bids {
            let milli = (b.cpm.0 * 1000.0).round() as u64;
            let better = match &a.best_hb {
                None => true,
                Some((best, _)) => milli > *best,
            };
            if better {
                a.best_hb = Some((milli, b.bidder.clone()));
            }
            a.bids.push(b);
        }
    }
    a.hb_open -= 1;
    let advance = a.hb_open == 0;
    let h = w.health_mut(&host);
    h.breaker.record_success(now);
    h.latency.record(now.saturating_since(sent).as_micros());
    if advance {
        after_hb(w, s, slot, gen);
    }
}

/// An HB leg (primary and any hedge) went unanswered in time.
fn on_leg_timeout(
    w: &mut ServeWorld,
    s: &mut Scheduler<ServeWorld>,
    slot: usize,
    gen: u32,
    leg: usize,
) {
    let now = s.now();
    let a = live_auction!(w, slot, gen);
    if a.legs[leg].done {
        return;
    }
    a.legs[leg].done = true;
    let l = &mut a.legs[leg];
    for e in [
        l.arrival.take(),
        l.hedge_fire.take(),
        l.hedge_arrival.take(),
    ]
    .into_iter()
    .flatten()
    {
        s.cancel(e);
    }
    let host = a.site.client_partners[l.partner].host.clone();
    a.hb_open -= 1;
    let advance = a.hb_open == 0;
    w.stats.provider_timeouts += 1;
    w.health_mut(&host).breaker.record_failure(now);
    if advance {
        after_hb(w, s, slot, gen);
    }
}

/// HB fan-out complete (or empty): mediate for HB sites, descend the
/// waterfall for waterfall sites.
fn after_hb(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, gen: u32) {
    if live_auction!(w, slot, gen).site.facet.is_some() {
        begin_mediation(w, s, slot, gen);
    } else {
        wf_next(w, s, slot, gen);
    }
}

/// Send the ad-server mediation leg carrying the collected client bids.
/// Every HB flavor resolves through the ad server; for server-side and
/// hybrid accounts the same call runs the s2s fan-out inside it.
fn begin_mediation(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, gen: u32) {
    let now = s.now();
    let id = w.next_request_id();
    let host = live_auction!(w, slot, gen).site.ad_server_host.clone();
    if !w.health_mut(&host).breaker.allow(now) {
        checked(&mut w.auctions, slot).breaker_skips += 1;
        w.stats.breaker_skips += 1;
        resolve_degraded(w, s, slot, gen);
        return;
    }
    let a = checked(&mut w.auctions, slot);
    let timeout_at = a.leg_deadline(now, w.cfg.mediation_timeout);
    let request = mediation_request(
        id,
        QueryParams::new(),
        &host,
        &a.site.account_id,
        &a.label,
        &a.bids,
    )
    .from_initiator("hb-serve");
    let answer = a.send(&w.net, &request, now, timeout_at);
    a.med_timeout = Some(s.at(timeout_at, move |w, s| {
        on_mediation_timeout(w, s, slot, gen)
    }));
    if let Some((at, rsp)) = answer {
        let winner = mediation_winner(&rsp);
        a.med_arrival = Some(s.at(at, move |w, s| {
            on_mediation_arrival(w, s, slot, gen, winner)
        }));
    }
}

/// Mediation answered: the ad server's pick resolves the auction.
fn on_mediation_arrival(
    w: &mut ServeWorld,
    s: &mut Scheduler<ServeWorld>,
    slot: usize,
    gen: u32,
    winner: Option<WinnerPayload>,
) {
    let now = s.now();
    let a = live_auction!(w, slot, gen);
    if let Some(e) = a.med_timeout.take() {
        s.cancel(e);
    }
    a.med_arrival = None;
    let decision = match winner {
        Some(win) => {
            let channel = match win.channel {
                FillChannel::HeaderBid => {
                    if a.bids.iter().any(|b| b.bidder == win.bidder) {
                        Channel::Hb
                    } else {
                        Channel::S2s
                    }
                }
                FillChannel::DirectOrder => Channel::Direct,
                FillChannel::Fallback => Channel::House,
                FillChannel::Unfilled => unreachable!("mediation_winner filters unfilled"),
            };
            let bidder = if win.bidder.as_str().is_empty() {
                HStr::from_static(match channel {
                    Channel::Direct => "direct-order",
                    _ => "house",
                })
            } else {
                win.bidder.clone()
            };
            Decision::Won {
                bidder,
                price_milli: (win.pb.0 * 1000.0).round() as u64,
                channel,
            }
        }
        None => Decision::Passback,
    };
    let host = a.site.ad_server_host.clone();
    w.health_mut(&host).breaker.record_success(now);
    resolve(w, s, slot, decision);
}

/// Mediation timed out: degrade to the best held client bid.
fn on_mediation_timeout(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, gen: u32) {
    let now = s.now();
    let a = live_auction!(w, slot, gen);
    if let Some(e) = a.med_arrival.take() {
        s.cancel(e);
    }
    a.med_timeout = None;
    let host = a.site.ad_server_host.clone();
    w.stats.provider_timeouts += 1;
    w.health_mut(&host).breaker.record_failure(now);
    resolve_degraded(w, s, slot, gen);
}

/// The mediation leg is unavailable (timed out or breaker-open): answer
/// with the best client bid if any bid is held, otherwise pass back.
/// This is the robustness envelope's degraded fill — a worse answer
/// beats no answer.
fn resolve_degraded(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, gen: u32) {
    let a = live_auction!(w, slot, gen);
    match a.best_hb.clone() {
        Some((milli, bidder)) => {
            w.stats.degraded_fills += 1;
            resolve(
                w,
                s,
                slot,
                Decision::Won {
                    bidder,
                    price_milli: milli,
                    channel: Channel::Hb,
                },
            );
        }
        None => resolve(w, s, slot, Decision::Passback),
    }
}

/// Descend to the next waterfall tier, abort when the remaining budget
/// can't cover another attempt, pass back when the chain is exhausted.
/// Tier legs run on the partner's `rtb.` edge, which is also the
/// breaker's failure domain.
fn wf_next(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, gen: u32) {
    let now = s.now();
    loop {
        let a = live_auction!(w, slot, gen);
        let idx = a.wf_idx;
        let Some(tier) = a.site.waterfall_tiers.get(idx) else {
            resolve(w, s, slot, Decision::Passback);
            return;
        };
        if a.deadline.saturating_since(now) < w.cfg.abort_margin {
            // Ting & Grislain abort: a tier with no time to answer is
            // not worth starting; take the passback now.
            w.stats.wf_aborts += 1;
            resolve(w, s, slot, Decision::Passback);
            return;
        }
        let floor = tier.floor;
        let edge = rtb_edge_host(&tier.partner.host);
        a.wf_idx = idx + 1;
        if !w.health_mut(&edge).breaker.allow(now) {
            checked(&mut w.auctions, slot).breaker_skips += 1;
            w.stats.breaker_skips += 1;
            continue; // skip the dead tier without paying its timeout
        }
        let id = w.next_request_id();
        let a = checked(&mut w.auctions, slot);
        let cb = a.rng.below(1_000_000_000);
        let request = tier_request(
            id,
            QueryParams::new(),
            &edge,
            floor,
            &a.site.ad_units,
            cb,
            false,
        )
        .from_initiator("hb-serve");
        let timeout_at = a.leg_deadline(now, w.cfg.tier_timeout);
        let answer = a.send(&w.net, &request, now, timeout_at);
        let timeout_edge = edge.clone();
        a.wf_timeout = Some(s.at(timeout_at, move |w, s| {
            on_tier_timeout(w, s, slot, gen, timeout_edge)
        }));
        if let Some((at, rsp)) = answer {
            let fill = tier_fill(&rsp);
            a.wf_arrival = Some(s.at(at, move |w, s| {
                on_tier_arrival(w, s, slot, gen, idx, edge, fill)
            }));
        }
        return;
    }
}

/// A tier answered: fill resolves, passback descends.
fn on_tier_arrival(
    w: &mut ServeWorld,
    s: &mut Scheduler<ServeWorld>,
    slot: usize,
    gen: u32,
    idx: usize,
    edge: HStr,
    fill: Option<hb_adtech::Cpm>,
) {
    let now = s.now();
    let a = live_auction!(w, slot, gen);
    if let Some(e) = a.wf_timeout.take() {
        s.cancel(e);
    }
    a.wf_arrival = None;
    let code = a.site.waterfall_tiers[idx].partner.code.clone();
    w.health_mut(&edge).breaker.record_success(now);
    match fill {
        Some(price) => resolve(
            w,
            s,
            slot,
            Decision::Won {
                bidder: code,
                price_milli: (price.0 * 1000.0).round() as u64,
                channel: Channel::Waterfall,
            },
        ),
        None => wf_next(w, s, slot, gen),
    }
}

/// A tier went unanswered: record the failure and descend.
fn on_tier_timeout(
    w: &mut ServeWorld,
    s: &mut Scheduler<ServeWorld>,
    slot: usize,
    gen: u32,
    edge: HStr,
) {
    let now = s.now();
    let a = live_auction!(w, slot, gen);
    if let Some(e) = a.wf_arrival.take() {
        s.cancel(e);
    }
    a.wf_timeout = None;
    w.stats.provider_timeouts += 1;
    w.health_mut(&edge).breaker.record_failure(now);
    wf_next(w, s, slot, gen);
}

/// The budget backstop fired: answer with whatever is held, now.
fn on_budget(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, gen: u32) {
    live_auction!(w, slot, gen);
    w.stats.budget_exhausted += 1;
    resolve_degraded(w, s, slot, gen);
}

/// Resolve an admitted auction: cancel every outstanding event it owns,
/// record latency, account the decision, free the slot.
fn resolve(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, decision: Decision) {
    let now = s.now();
    let Some(a) = w.auctions[slot].auction.take() else {
        return;
    };
    w.auctions[slot].gen = w.auctions[slot].gen.wrapping_add(1);
    s.cancel(a.budget_ev);
    for l in &a.legs {
        s.cancel(l.timeout);
        for e in [l.arrival, l.hedge_fire, l.hedge_arrival]
            .into_iter()
            .flatten()
        {
            s.cancel(e);
        }
    }
    for e in [a.med_arrival, a.med_timeout, a.wf_arrival, a.wf_timeout]
        .into_iter()
        .flatten()
    {
        s.cancel(e);
    }
    let latency = now.saturating_since(a.started);
    w.hist.record(latency.as_micros());
    w.in_flight -= 1;
    w.free.push(slot);
    finish_outcome(
        w,
        now,
        AuctionOutcome {
            request: a.req.id,
            rank: a.req.rank,
            decision,
            latency,
            hedges_fired: a.hedges_fired,
            hedge_wins: a.hedge_wins,
            breaker_skips: a.breaker_skips,
        },
    );
}

/// Account one finished outcome (fill channel counters, digest,
/// optional collection).
fn finish_outcome(w: &mut ServeWorld, now: SimTime, outcome: AuctionOutcome) {
    match &outcome.decision {
        Decision::Won { channel, .. } => match channel {
            Channel::Hb => w.stats.wins_hb += 1,
            Channel::S2s => w.stats.wins_s2s += 1,
            Channel::Waterfall => w.stats.wins_waterfall += 1,
            Channel::Direct => w.stats.wins_direct += 1,
            Channel::House => w.stats.wins_house += 1,
        },
        Decision::Passback => w.stats.passbacks += 1,
        Decision::Shed => {}
    }
    w.digest = outcome.fold_digest(w.digest);
    w.last_resolve = w.last_resolve.max(now);
    if let Some(out) = &mut w.outcomes {
        out.push(outcome);
    }
}

/// One shard's finished run.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Which shard this is.
    pub shard: u32,
    /// Order-sensitive digest over every outcome (see
    /// [`AuctionOutcome::fold_digest`]).
    pub digest: u64,
    /// The shard's counters (breaker trips folded in).
    pub stats: ServeStats,
    /// Admitted-auction latency histogram (microseconds).
    pub hist: LogHistogram,
    /// Collected outcomes (empty unless `collect` was requested).
    pub outcomes: Vec<AuctionOutcome>,
    /// Simulation time when the shard went idle — with the deadline
    /// invariant holding, at most `last arrival + budget`.
    pub end: SimTime,
    /// Requests the shard processed.
    pub requests: u64,
}

/// A full serving run: per-shard reports in shard order plus the
/// deterministic merge.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-shard reports, indexed by shard.
    pub shards: Vec<ShardReport>,
    /// Counters merged across shards.
    pub stats: ServeStats,
    /// Latency histogram merged across shards (commutative merge, so
    /// identical for any worker count).
    pub hist: LogHistogram,
}

impl ServeReport {
    /// Digest of the whole run: shard digests folded in shard order.
    pub fn digest(&self) -> u64 {
        let mut h = 0u64;
        for sh in &self.shards {
            h = h ^ sh.digest.rotate_left((sh.shard % 63) + 1);
        }
        h
    }

    /// p50/p99/p999 admitted-auction latency in milliseconds.
    pub fn latency_ms(&self) -> (f64, f64, f64) {
        let (p50, p99, p999) = self.hist.p50_p99_p999();
        (
            p50 as f64 / 1_000.0,
            p99 as f64 / 1_000.0,
            p999 as f64 / 1_000.0,
        )
    }
}

/// Run one serving shard to completion on the current thread.
fn run_shard(
    gen: &Arc<SiteGen>,
    net: &Net,
    cfg: &ServeConfig,
    source: Source,
    shard: u32,
    collect: bool,
) -> ShardReport {
    let world = ServeWorld::new(*cfg, net.clone(), gen.clone(), source, shard, collect);
    let mut sim = Simulation::new(world);
    let shards = cfg.shards.max(1) as u64;
    match &sim.world().source {
        Source::List(reqs) => {
            let reqs = reqs.clone();
            let s = sim.scheduler();
            for req in reqs {
                s.at(req.arrival, move |w, s| start_auction(w, s, req.clone()));
            }
        }
        Source::Gen(load) => {
            let load = *load;
            let first = shard as u64;
            if first < load.n_requests {
                let req = load.request(first);
                sim.scheduler().at(req.arrival, move |w, s| {
                    on_generated_arrival(w, s, first, shards)
                });
            }
        }
    }
    let stop = sim.run_to_idle(u64::MAX);
    debug_assert!(matches!(stop, StopReason::Idle));
    let end = sim.now();
    let mut world = sim.into_world();
    let trips: u64 = world.health.values().map(|h| h.breaker.trips()).sum();
    world.stats.breaker_trips = trips;
    ShardReport {
        shard,
        digest: world.digest,
        stats: world.stats,
        hist: world.hist,
        outcomes: world.outcomes.take().unwrap_or_default(),
        end,
        requests: world.stats.auctions,
    }
}

/// A generated request arrives: start its auction and lazily schedule
/// the shard's next arrival, so the event queue stays O(in-flight).
fn on_generated_arrival(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, n: u64, shards: u64) {
    let Source::Gen(load) = &w.source else {
        return;
    };
    let load = *load;
    let req = load.request(n);
    let next = n + shards;
    if next < load.n_requests {
        let at = load.request(next).arrival;
        s.at(at, move |w, s| on_generated_arrival(w, s, next, shards));
    }
    start_auction(w, s, req);
}

/// Serve a generated load across `workers` threads. The shard set and
/// every shard's computation are fixed by `(cfg, load)`; workers only
/// claim shards, so any worker count produces byte-identical reports.
pub fn serve_load(
    factory: &SiteFactory,
    cfg: &ServeConfig,
    load: &LoadGenConfig,
    workers: usize,
    collect: bool,
) -> ServeReport {
    serve_load_with(factory.gen(), &factory.net(), cfg, load, workers, collect)
}

/// [`serve_load`] with an explicit network handle (scenario-degraded
/// fault injectors, custom latency directories).
pub fn serve_load_with(
    gen: &Arc<SiteGen>,
    net: &Net,
    cfg: &ServeConfig,
    load: &LoadGenConfig,
    workers: usize,
    collect: bool,
) -> ServeReport {
    let shards = cfg.shards.max(1);
    let next = AtomicU32::new(0);
    let mut slots: Vec<Option<ShardReport>> = (0..shards).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let sh = next.fetch_add(1, Ordering::Relaxed);
                        if sh >= shards {
                            break;
                        }
                        done.push(run_shard(gen, net, cfg, Source::Gen(*load), sh, collect));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for r in h.join().expect("serving worker") {
                let idx = r.shard as usize;
                slots[idx] = Some(r);
            }
        }
    });
    merge_reports(slots.into_iter().map(|r| r.expect("every shard ran")))
}

/// Run an explicit request list through a single shard (test entry:
/// precise arrival control, collected outcomes).
pub fn serve_requests(
    gen: &Arc<SiteGen>,
    net: &Net,
    cfg: &ServeConfig,
    requests: Vec<AdRequest>,
) -> ShardReport {
    run_shard(gen, net, cfg, Source::List(requests), 0, true)
}

fn merge_reports(reports: impl Iterator<Item = ShardReport>) -> ServeReport {
    let mut shards = Vec::new();
    let mut stats = ServeStats::default();
    let mut hist = LogHistogram::new();
    for r in reports {
        stats.merge(&r.stats);
        hist.merge(&r.hist);
        shards.push(r);
    }
    ServeReport {
        shards,
        stats,
        hist,
    }
}

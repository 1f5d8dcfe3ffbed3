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
//! # One leg lifecycle
//!
//! Every request the orchestrator sends is a *leg* with one lifecycle,
//! whatever its kind: an HB leg per client partner, the ad-server
//! mediation leg, or one waterfall tier at a time. A leg starts in
//! `send_leg`, which is also the one breaker gate (an open breaker skips
//! the leg). Sending draws the exchange on the auction's rng stream and
//! schedules the leg's clamped timeout, then its arrival if the answer
//! lands by that timeout, then (HB only) its hedge. A leg ends in exactly
//! one of `on_leg_arrival` (breaker success, HB latency sample) or
//! `on_leg_timeout` (breaker failure), each of which cancels the leg's
//! other events before taking the kind's next step. An answer landing
//! exactly at the timeout loses the tie: the timeout was scheduled first,
//! so it fires first and cancels the arrival.
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

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use hb_adtech::{
    hb_bid_request, hb_bids_from, mediation_request, mediation_winner, rtb_edge_host, tier_fill,
    tier_request, BidPayload, Cpm, FillChannel, Net, SiteRuntime,
};
use hb_ecosystem::SiteGen;
use hb_http::{QueryParams, Request, RequestId, Response};
use hb_simnet::{
    EventId, FxHashMap, HStr, Rng, Scheduler, SimDuration, SimTime, Simulation, StopReason,
};
use hb_stats::LogHistogram;

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::loadgen::LoadGenConfig;
use crate::request::{AdRequest, AuctionOutcome, Channel, Decision};

/// Parallel HB leg timeout (clamped to the remaining budget).
const HB_TIMEOUT: SimDuration = SimDuration::from_millis(300);
/// Ad-server mediation leg timeout (clamped to the remaining budget).
const MEDIATION_TIMEOUT: SimDuration = SimDuration::from_millis(400);
/// Per-tier waterfall timeout (clamped to the remaining budget).
const TIER_TIMEOUT: SimDuration = SimDuration::from_millis(250);
/// Hedge trigger before a provider has latency history.
const HEDGE_AFTER: SimDuration = SimDuration::from_millis(150);
/// Latency quantile that triggers a hedge once history exists.
const HEDGE_QUANTILE: f64 = 0.9;
/// Provider responses required before the quantile estimator is
/// trusted over [`HEDGE_AFTER`].
const HEDGE_MIN_SAMPLES: u64 = 32;
/// Waterfall early-abort: when the remaining budget drops below this,
/// stop descending tiers and pass back (the Ting & Grislain abort
/// decision — a tier that can't finish isn't worth starting).
const ABORT_MARGIN: SimDuration = SimDuration::from_millis(100);

/// The serving workload's settable part. Defaults give a 1s budget and
/// 64 concurrent auctions per shard over 8 shards; the leg policy
/// (300/400/250ms leg timeouts, p90 hedging, a 100ms waterfall abort
/// margin, [`BreakerConfig::default`] breakers) is fixed.
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

/// Which demand path a leg serves.
#[derive(Clone, Copy)]
enum LegKind {
    /// Parallel HB to the site's `client_partners[i]`.
    Hb(usize),
    /// The ad-server mediation leg.
    Mediation,
    /// Waterfall tier `waterfall_tiers[i]`, sent to its `rtb.` edge.
    Tier(usize),
}

/// One leg of an auction, of any kind. `host` is the breaker's failure
/// domain; only HB legs arm a hedge.
struct Leg {
    kind: LegKind,
    host: HStr,
    done: bool,
    sent_at: SimTime,
    hedge_sent_at: SimTime,
    timeout_at: SimTime,
    arrival: Option<EventId>,
    timeout: EventId,
    hedge_fire: Option<EventId>,
    hedge_arrival: Option<EventId>,
}

impl Leg {
    /// Cancel every event the leg scheduled. The id of an event that
    /// already fired or was cancelled is stale and cancels nothing.
    fn cancel(&self, s: &mut Scheduler<ServeWorld>) {
        for e in [
            Some(self.timeout),
            self.arrival,
            self.hedge_fire,
            self.hedge_arrival,
        ]
        .into_iter()
        .flatten()
        {
            s.cancel(e);
        }
    }
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
    /// Every leg sent, in send order: the HB fan-out, then the mediation
    /// leg or the tiers one at a time.
    legs: Vec<Leg>,
    bids: Vec<BidPayload>,
    best_hb: Option<(u64, HStr)>,
    hedges_fired: u32,
    hedge_wins: u32,
    breaker_skips: u32,
}

impl Auction {
    /// The request of a `kind` leg to `host`; `hedge` marks an HB leg's
    /// backup. A tier draws its cache-buster here, right before the
    /// exchange.
    fn leg_request(&mut self, kind: LegKind, host: &HStr, id: RequestId, hedge: bool) -> Request {
        match kind {
            LegKind::Hb(p) => hb_bid_request(
                id,
                QueryParams::new(),
                &self.site.client_partners[p],
                &self.label,
                &self.site.ad_units,
                hedge,
            ),
            LegKind::Mediation => mediation_request(
                id,
                QueryParams::new(),
                host,
                &self.site.account_id,
                &self.label,
                &self.bids,
            ),
            LegKind::Tier(i) => {
                let cb = self.rng.below(1_000_000_000);
                tier_request(
                    id,
                    QueryParams::new(),
                    host,
                    self.site.waterfall_tiers[i].floor,
                    &self.site.ad_units,
                    cb,
                    false,
                )
            }
        }
        .from_initiator("hb-serve")
    }

    /// Send a leg request on this auction's rng stream. The answer
    /// counts only if it lands by `timeout_at`: a dropped, unroutable or
    /// late request returns `None`, and the leg's timeout is the only
    /// event that covers it. An answer landing exactly at `timeout_at`
    /// is scheduled but loses: the timeout was scheduled first, fires
    /// first and cancels it. The serving plane never schedules the
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

/// A price in CPM as the integer milli-units outcomes carry.
fn milli(cpm: Cpm) -> u64 {
    (cpm.0 * 1000.0).round() as u64
}

/// Slot with a generation stamp: every event closure captures
/// `(slot, gen)` and no-ops when the generation moved on, so late
/// events from a resolved auction can never touch its successor.
struct Slot {
    gen: u32,
    auction: Option<Auction>,
    /// The last auction's emptied leg list, kept for the next one.
    legs: Vec<Leg>,
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
    health: FxHashMap<HStr, ProviderHealth>,
    hist: LogHistogram,
    stats: ServeStats,
    digest: u64,
    outcomes: Option<Vec<AuctionOutcome>>,
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
            health: FxHashMap::default(),
            hist: LogHistogram::new(),
            stats: ServeStats::default(),
            digest: 0,
            outcomes: collect.then(Vec::new),
        }
    }

    fn health_mut(&mut self, host: &HStr) -> &mut ProviderHealth {
        self.health
            .entry(host.clone())
            .or_insert_with(|| ProviderHealth {
                breaker: CircuitBreaker::new(BreakerConfig::default()),
                latency: LogHistogram::new(),
            })
    }

    /// Hedge trigger for a provider: its observed latency quantile once
    /// enough history exists, the static [`HEDGE_AFTER`] before that.
    fn hedge_delay(&self, host: &HStr) -> SimDuration {
        match self.health.get(host) {
            Some(h) if h.latency.count() >= HEDGE_MIN_SAMPLES => {
                SimDuration(h.latency.value_at_quantile(HEDGE_QUANTILE))
            }
            _ => HEDGE_AFTER,
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
/// the world. Holds because the caller filled the slot or its event's
/// `live_auction!` has already checked it, and nothing since then
/// resolves an auction: breaker, stats and request-id updates never
/// free a slot.
fn checked(auctions: &mut [Slot], slot: usize) -> &mut Auction {
    auctions[slot]
        .auction
        .as_mut()
        .expect("live_auction! checked this slot and nothing has resolved it since")
}

/// Admit (or shed) one request, then fan out to the site's client-side
/// partners; advance straight on when it has none to send.
pub fn start_auction(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, req: AdRequest) {
    w.stats.auctions += 1;
    if w.in_flight >= w.cfg.max_in_flight {
        w.stats.sheds += 1;
        finish_outcome(
            w,
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
                legs: Vec::new(),
            });
            w.auctions.len() - 1
        }
    };
    let gen = w.auctions[slot].gen;
    // The budget backstop: scheduled before any leg event at the same
    // instant, so at the deadline it resolves first and cancels them.
    let budget_ev = s.after(w.cfg.budget, move |w, s| on_budget(w, s, slot, gen));
    let legs = std::mem::take(&mut w.auctions[slot].legs);
    w.auctions[slot].auction = Some(Auction {
        started: now,
        deadline: now.saturating_add(w.cfg.budget),
        rng,
        site: site.clone(),
        label,
        budget_ev,
        legs,
        bids: Vec::new(),
        best_hb: None,
        hedges_fired: 0,
        hedge_wins: 0,
        breaker_skips: 0,
        req,
    });
    for (partner, p) in site.client_partners.iter().enumerate() {
        send_leg(w, s, slot, gen, LegKind::Hb(partner), p.host.clone());
    }
    if checked(&mut w.auctions, slot).legs.is_empty() {
        after_hb(w, s, slot, gen);
    }
}

/// Send a leg of any kind and schedule its events, in this order: the
/// timeout (clamped to the budget), the arrival when the answer lands in
/// time, and for an HB leg the hedge. This is the one breaker gate: when
/// `host`'s breaker is open the leg is skipped, counted, and `false`
/// returned.
fn send_leg(
    w: &mut ServeWorld,
    s: &mut Scheduler<ServeWorld>,
    slot: usize,
    gen: u32,
    kind: LegKind,
    host: HStr,
) -> bool {
    let now = s.now();
    if !w.health_mut(&host).breaker.allow(now) {
        checked(&mut w.auctions, slot).breaker_skips += 1;
        w.stats.breaker_skips += 1;
        return false;
    }
    let id = w.next_request_id();
    let a = checked(&mut w.auctions, slot);
    let limit = match kind {
        LegKind::Hb(_) => HB_TIMEOUT,
        LegKind::Mediation => MEDIATION_TIMEOUT,
        LegKind::Tier(_) => TIER_TIMEOUT,
    };
    let timeout_at = now.saturating_add(limit).min(a.deadline);
    let request = a.leg_request(kind, &host, id, false);
    let answer = a.send(&w.net, &request, now, timeout_at);
    let leg = a.legs.len();
    let timeout = s.at(timeout_at, move |w, s| on_leg_timeout(w, s, slot, gen, leg));
    let arrival = answer.map(|(at, rsp)| {
        s.at(at, move |w, s| {
            on_leg_arrival(w, s, slot, gen, leg, false, rsp)
        })
    });
    let mut hedge_fire = None;
    if let LegKind::Hb(_) = kind {
        // Arm the hedge only if it would fire before the leg's timeout —
        // a hedge with no time to answer is pure cost.
        let hedge_at = now.saturating_add(w.hedge_delay(&host));
        if hedge_at < timeout_at {
            hedge_fire = Some(s.at(hedge_at, move |w, s| on_hedge_fire(w, s, slot, gen, leg)));
        }
    }
    checked(&mut w.auctions, slot).legs.push(Leg {
        kind,
        host,
        done: false,
        sent_at: now,
        hedge_sent_at: SimTime::ZERO,
        timeout_at,
        arrival,
        timeout,
        hedge_fire,
        hedge_arrival: None,
    });
    true
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
    let l = &mut a.legs[leg];
    if l.done {
        return;
    }
    l.hedge_sent_at = now;
    let (kind, host, timeout_at) = (l.kind, l.host.clone(), l.timeout_at);
    let request = a.leg_request(kind, &host, id, true);
    let answer = a.send(&w.net, &request, now, timeout_at);
    a.hedges_fired += 1;
    w.stats.hedges_fired += 1;
    if let Some((at, rsp)) = answer {
        a.legs[leg].hedge_arrival = Some(s.at(at, move |w, s| {
            on_leg_arrival(w, s, slot, gen, leg, true, rsp)
        }));
    }
}

/// A leg's answer landed (for an HB leg, the primary's or the hedge's:
/// the first one wins the leg). After the breaker and, for HB, latency
/// bookkeeping, the kind's step: HB folds the bids and advances once
/// every HB leg is done, mediation decides the auction, a tier fills it
/// or descends.
fn on_leg_arrival(
    w: &mut ServeWorld,
    s: &mut Scheduler<ServeWorld>,
    slot: usize,
    gen: u32,
    leg: usize,
    hedge: bool,
    rsp: Response,
) {
    let now = s.now();
    let a = live_auction!(w, slot, gen);
    let l = &mut a.legs[leg];
    if l.done {
        return;
    }
    l.done = true;
    l.cancel(s);
    let (kind, host) = (l.kind, l.host.clone());
    let sent = if hedge { l.hedge_sent_at } else { l.sent_at };
    if hedge {
        a.hedge_wins += 1;
        w.stats.hedge_wins += 1;
    }
    let h = w.health_mut(&host);
    h.breaker.record_success(now);
    if let LegKind::Hb(_) = kind {
        h.latency.record(now.saturating_since(sent).as_micros());
    }
    let a = checked(&mut w.auctions, slot);
    match kind {
        LegKind::Hb(_) => {
            for b in hb_bids_from(&rsp).into_iter().flatten() {
                let price = milli(b.cpm);
                let better = match &a.best_hb {
                    None => true,
                    Some((best, _)) => price > *best,
                };
                if better {
                    a.best_hb = Some((price, b.bidder.clone()));
                }
                a.bids.push(b);
            }
            if a.legs.iter().all(|l| l.done) {
                after_hb(w, s, slot, gen);
            }
        }
        LegKind::Mediation => {
            let decision = match mediation_winner(&rsp) {
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
                        win.bidder
                    };
                    Decision::Won {
                        bidder,
                        price_milli: milli(win.pb),
                        channel,
                    }
                }
                None => Decision::Passback,
            };
            resolve(w, s, slot, decision);
        }
        LegKind::Tier(i) => match tier_fill(&rsp) {
            Some(price) => {
                let bidder = a.site.waterfall_tiers[i].partner.code.clone();
                resolve(
                    w,
                    s,
                    slot,
                    Decision::Won {
                        bidder,
                        price_milli: milli(price),
                        channel: Channel::Waterfall,
                    },
                );
            }
            None => wf_next(w, s, slot, gen),
        },
    }
}

/// A leg (and any hedge) went unanswered in time. After the failure
/// bookkeeping, the kind's step: HB advances once every HB leg is done,
/// mediation degrades to the held bids, a tier descends.
fn on_leg_timeout(
    w: &mut ServeWorld,
    s: &mut Scheduler<ServeWorld>,
    slot: usize,
    gen: u32,
    leg: usize,
) {
    let now = s.now();
    let a = live_auction!(w, slot, gen);
    let l = &mut a.legs[leg];
    if l.done {
        return;
    }
    l.done = true;
    l.cancel(s);
    let (kind, host) = (l.kind, l.host.clone());
    let all_done = a.legs.iter().all(|l| l.done);
    w.stats.provider_timeouts += 1;
    w.health_mut(&host).breaker.record_failure(now);
    match kind {
        LegKind::Hb(_) => {
            if all_done {
                after_hb(w, s, slot, gen);
            }
        }
        LegKind::Mediation => resolve_degraded(w, s, slot, gen),
        LegKind::Tier(_) => wf_next(w, s, slot, gen),
    }
}

/// HB fan-out complete (or empty): waterfall sites descend their tiers;
/// HB sites send the ad-server mediation leg with the collected client
/// bids, or degrade to them when its breaker is open. Every HB flavor
/// resolves through the ad server; for server-side and hybrid accounts
/// the same call runs the s2s fan-out inside it.
fn after_hb(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, gen: u32) {
    let a = live_auction!(w, slot, gen);
    if a.site.facet.is_none() {
        wf_next(w, s, slot, gen);
        return;
    }
    let host = a.site.ad_server_host.clone();
    if !send_leg(w, s, slot, gen, LegKind::Mediation, host) {
        resolve_degraded(w, s, slot, gen);
    }
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

/// Send the next waterfall tier, abort when the remaining budget can't
/// cover another attempt, pass back when the chain is exhausted. Tier
/// legs run on the partner's `rtb.` edge, which is also the breaker's
/// failure domain.
fn wf_next(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, gen: u32) {
    let now = s.now();
    // The tier after the last one sent (breaker-skipped tiers send no
    // leg, and a tier leg is always the auction's latest).
    let mut idx = match live_auction!(w, slot, gen).legs.last() {
        Some(Leg {
            kind: LegKind::Tier(i),
            ..
        }) => i + 1,
        _ => 0,
    };
    loop {
        let a = checked(&mut w.auctions, slot);
        let Some(tier) = a.site.waterfall_tiers.get(idx) else {
            resolve(w, s, slot, Decision::Passback);
            return;
        };
        if a.deadline.saturating_since(now) < ABORT_MARGIN {
            // Ting & Grislain abort: a tier with no time to answer is
            // not worth starting; take the passback now.
            w.stats.wf_aborts += 1;
            resolve(w, s, slot, Decision::Passback);
            return;
        }
        let edge = rtb_edge_host(&tier.partner.host);
        if send_leg(w, s, slot, gen, LegKind::Tier(idx), edge) {
            return;
        }
        idx += 1; // skip the dead tier without paying its timeout
    }
}

/// The budget backstop fired: answer with whatever is held, now.
fn on_budget(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, gen: u32) {
    live_auction!(w, slot, gen);
    w.stats.budget_exhausted += 1;
    resolve_degraded(w, s, slot, gen);
}

/// Resolve an admitted auction: cancel every outstanding event it owns,
/// record latency, account the decision, free the slot (keeping its
/// emptied leg list).
fn resolve(w: &mut ServeWorld, s: &mut Scheduler<ServeWorld>, slot: usize, decision: Decision) {
    let now = s.now();
    let Some(mut a) = w.auctions[slot].auction.take() else {
        return;
    };
    w.auctions[slot].gen = w.auctions[slot].gen.wrapping_add(1);
    s.cancel(a.budget_ev);
    for l in a.legs.drain(..) {
        l.cancel(s);
    }
    w.auctions[slot].legs = a.legs;
    let latency = now.saturating_since(a.started);
    w.hist.record(latency.as_micros());
    w.in_flight -= 1;
    w.free.push(slot);
    finish_outcome(
        w,
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
fn finish_outcome(w: &mut ServeWorld, outcome: AuctionOutcome) {
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
            h ^= sh.digest.rotate_left((sh.shard % 63) + 1);
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
    // The one walk of the Fx-hashed health map: a sum, so its order is moot.
    let trips: u64 = world.health.values().map(|h| h.breaker.trips()).sum();
    world.stats.breaker_trips = trips;
    ShardReport {
        shard,
        digest: world.digest,
        stats: world.stats,
        hist: world.hist,
        outcomes: world.outcomes.take().unwrap_or_default(),
        end,
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

/// Serve a generated load across `workers` threads on `net` (the
/// universe's own [`SiteFactory::net`](hb_ecosystem::SiteFactory::net),
/// or a scenario-degraded one). The shard set and every shard's
/// computation are fixed by `(cfg, load)`; workers only claim shards, so
/// any worker count produces byte-identical reports.
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

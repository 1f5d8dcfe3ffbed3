//! DFP-like ad server: line items, floor prices, decisioning, and the
//! server-side auction it can run on behalf of publishers.
//!
//! The ad server is the winner-selection phase of Figure 2: it receives the
//! wrapper's collected header bids as `hb_*` targeting, compares them with
//! direct orders and the floor, optionally augments them with its own
//! server-to-server auction (Server-Side and Hybrid HB), and returns the
//! winning impression per slot.

use crate::partner::PartnerProfile;
use crate::protocol::{self, params, FillChannel, WinnerPayload};
use crate::rtb::first_price_winner;
use crate::types::{AdSize, AdUnit, Cpm};
use crate::wrapper::{RETRY_BACKOFF, S2S_DEADLINE};
use hb_http::{Endpoint, HStr, Request, Response, ServerReply};
use hb_simnet::FxHashMap;
use hb_simnet::{Rng, SimDuration};
use std::sync::Arc;

/// A direct-order (sponsorship) line item.
#[derive(Clone, Debug)]
pub struct DirectOrder {
    /// Effective CPM the advertiser pays.
    pub cpm: Cpm,
    /// Probability the order still has impressions to serve when a request
    /// arrives (quota modelling).
    pub fill_rate: f64,
    /// Sizes it can fill (empty = any).
    pub sizes: Vec<AdSize>,
}

/// Per-publisher account configuration at the ad server.
#[derive(Clone, Debug)]
pub struct AdServerAccount {
    /// Account id (`pub-<rank>`, compact/inline).
    pub account_id: HStr,
    /// Direct orders available to this publisher.
    pub direct_orders: Vec<DirectOrder>,
    /// Fallback/house eCPM (AdSense-like remnant); `None` = unfilled slots
    /// stay unfilled.
    pub fallback_cpm: Option<Cpm>,
    /// Floor price applied to HB bids.
    pub floor: Cpm,
    /// Partners this account's server-side auctions fan out to
    /// (Server-Side and Hybrid HB only). `Arc`-shared with the catalog's
    /// profile table — deriving an account never deep-clones a profile.
    pub s2s_partners: Vec<Arc<PartnerProfile>>,
    /// The ad units this account serves (authoritative slot list;
    /// `Arc`-shared with the site profile and runtime).
    pub ad_units: Arc<[AdUnit]>,
    /// Run the mediator under the degraded posture: a partner whose
    /// fan-out call exceeds the s2s deadline is retried once after the
    /// retry backoff and then dropped from the auction. Off waits for
    /// every partner — the baseline semantics, with an unchanged RNG draw
    /// sequence.
    pub degraded_posture: bool,
}

impl AdServerAccount {
    /// Minimal account for tests.
    pub fn test_account(id: &str, units: Vec<AdUnit>) -> AdServerAccount {
        AdServerAccount {
            account_id: HStr::new(id),
            direct_orders: Vec::new(),
            fallback_cpm: Some(Cpm(0.05)),
            floor: Cpm(0.01),
            s2s_partners: Vec::new(),
            ad_units: units.into(),
            degraded_posture: false,
        }
    }
}

/// A candidate in slot decisioning.
#[derive(Clone, Debug)]
enum Candidate {
    Hb {
        bidder: HStr,
        ad_id: HStr,
        size: AdSize,
    },
    Direct,
}

/// Decision outcome for one slot (exposed for unit testing the logic).
#[derive(Clone, Debug, PartialEq)]
pub struct SlotDecision {
    /// Slot code.
    pub slot: HStr,
    /// Filled channel.
    pub channel: FillChannel,
    /// Winning bidder (HB only).
    pub bidder: HStr,
    /// Clearing price bucket.
    pub price: Cpm,
    /// Size served.
    pub size: AdSize,
    /// Creative id.
    pub ad_id: HStr,
}

/// One header bid presented to the decisioner.
#[derive(Clone, Debug, PartialEq)]
pub struct PresentedBid {
    /// Slot code the bid targets.
    pub slot: HStr,
    /// Bidder code.
    pub bidder: HStr,
    /// Price (already bucketed by the wrapper).
    pub cpm: Cpm,
    /// Creative size.
    pub size: AdSize,
    /// Creative id.
    pub ad_id: HStr,
}

/// Core decisioning: pick the best channel per slot.
///
/// Order of comparison follows the paper's Step 3: header bids are accepted
/// when they beat the floor; direct orders compete at their eCPM; fallback
/// fills what remains.
pub fn decide_slot(
    account: &AdServerAccount,
    unit: &AdUnit,
    hb_bids: &[PresentedBid],
    rng: &mut Rng,
) -> SlotDecision {
    let mut candidates: Vec<(Candidate, Cpm)> = Vec::new();
    for bid in hb_bids.iter().filter(|b| b.slot == unit.code) {
        if bid.cpm.0 >= account.floor.0.max(unit.floor.0) {
            candidates.push((
                Candidate::Hb {
                    bidder: bid.bidder.clone(),
                    ad_id: bid.ad_id.clone(),
                    size: bid.size,
                },
                bid.cpm,
            ));
        }
    }
    for order in &account.direct_orders {
        let size_ok = order.sizes.is_empty() || order.sizes.contains(&unit.primary_size());
        if size_ok && rng.chance(order.fill_rate) {
            candidates.push((Candidate::Direct, order.cpm));
        }
    }
    match first_price_winner(&candidates) {
        Some((
            Candidate::Hb {
                bidder,
                ad_id,
                size,
            },
            price,
        )) => SlotDecision {
            slot: unit.code.clone(),
            channel: FillChannel::HeaderBid,
            bidder,
            price,
            size,
            ad_id,
        },
        Some((Candidate::Direct, price)) => SlotDecision {
            slot: unit.code.clone(),
            channel: FillChannel::DirectOrder,
            bidder: HStr::EMPTY,
            price,
            size: unit.primary_size(),
            ad_id: HStr::EMPTY,
        },
        None => match account.fallback_cpm {
            Some(cpm) => SlotDecision {
                slot: unit.code.clone(),
                channel: FillChannel::Fallback,
                bidder: HStr::EMPTY,
                price: cpm,
                size: unit.primary_size(),
                ad_id: HStr::EMPTY,
            },
            None => SlotDecision {
                slot: unit.code.clone(),
                channel: FillChannel::Unfilled,
                bidder: HStr::EMPTY,
                price: Cpm::ZERO,
                size: unit.primary_size(),
                ad_id: HStr::EMPTY,
            },
        },
    }
}

/// Run the ad server's own server-to-server auction for the account's
/// slots. Returns the s2s bids and the simulated wall-clock the fan-out
/// took (max over parallel partner calls, as a real gateway would see).
///
/// Takes the units as a re-iterable borrow (slice, `&Vec`, or a filtered
/// iterator) so the endpoint can fan out over a slot-restricted view
/// without materializing a cloned `Vec<AdUnit>` per request.
pub fn run_s2s_auction<'a, I>(
    account: &AdServerAccount,
    units: I,
    rng: &mut Rng,
) -> (Vec<PresentedBid>, SimDuration)
where
    I: IntoIterator<Item = &'a AdUnit>,
    I::IntoIter: Clone,
{
    let units = units.into_iter();
    let n_units = units.clone().count();
    let mut bids = Vec::new();
    let mut slowest = SimDuration::ZERO;
    for partner in &account.s2s_partners {
        // Parallel fan-out: total time is the max over partners.
        let mut rtt = partner.s2s_latency.sample(rng) + partner.processing_time(n_units);
        if account.degraded_posture && rtt > S2S_DEADLINE {
            // Over-deadline: the mediator abandons the call at the
            // deadline and retries once after the backoff. A second miss
            // drops the partner from this auction entirely.
            let retry_rtt = partner.s2s_latency.sample(rng) + partner.processing_time(n_units);
            if retry_rtt > S2S_DEADLINE {
                slowest = slowest.max(S2S_DEADLINE + RETRY_BACKOFF + S2S_DEADLINE);
                continue;
            }
            rtt = S2S_DEADLINE + RETRY_BACKOFF + retry_rtt;
        }
        slowest = slowest.max(rtt);
        for unit in units.clone() {
            if let Some(cpm) = partner.draw_bid(unit.primary_size(), 0.6, rng) {
                bids.push(PresentedBid {
                    slot: unit.code.clone(),
                    bidder: partner.bidder_code.clone(),
                    cpm,
                    size: unit.primary_size(),
                    ad_id: HStr::from_display(format_args!(
                        "s2s-{}-{}",
                        partner.bidder_code,
                        rng.below(1_000_000)
                    )),
                });
            }
        }
    }
    (bids, slowest)
}

/// The ad server endpoint: serves `/gampad/ads` for registered accounts.
///
/// Request conventions:
/// * `account` query param selects the [`AdServerAccount`];
/// * `hb_source=client` bodies carry client-collected bids (`bids` array);
/// * accounts with `s2s_partners` additionally run a server-side auction
///   (this is what makes the same endpoint serve pure Server-Side HB — no
///   client bids — and Hybrid HB — both).
pub struct AdServerEndpoint {
    accounts: FxHashMap<HStr, Arc<AdServerAccount>>,
    /// On-demand account derivation for lazily generated universes: when
    /// the static `accounts` map misses, the resolver gets a chance to
    /// produce the account from the id alone (`None` = genuinely unknown).
    resolver: Option<AccountResolver>,
    /// Base decision-engine latency (ms) added to every request.
    pub decision_overhead_ms: f64,
}

/// Callback deriving an [`AdServerAccount`] from its id on demand.
pub type AccountResolver = Box<dyn Fn(&str) -> Option<Arc<AdServerAccount>> + Send + Sync>;

impl AdServerEndpoint {
    /// Build with a set of accounts.
    pub fn new(accounts: impl IntoIterator<Item = AdServerAccount>) -> AdServerEndpoint {
        AdServerEndpoint {
            accounts: accounts
                .into_iter()
                .map(|a| (a.account_id.clone(), Arc::new(a)))
                .collect(),
            resolver: None,
            decision_overhead_ms: 15.0,
        }
    }

    /// Build with an on-demand account resolver instead of a materialized
    /// account map. Decisioning is a pure function of `(account, request,
    /// rng)`, so a resolver that derives the same account the eager map
    /// would have held yields byte-identical replies.
    pub fn with_resolver(
        resolver: impl Fn(&str) -> Option<Arc<AdServerAccount>> + Send + Sync + 'static,
    ) -> AdServerEndpoint {
        AdServerEndpoint {
            accounts: FxHashMap::default(),
            resolver: Some(Box::new(resolver)),
            decision_overhead_ms: 15.0,
        }
    }

    /// Look up an account, falling back to the resolver.
    fn account(&self, id: &str) -> Option<Arc<AdServerAccount>> {
        if let Some(a) = self.accounts.get(id) {
            return Some(a.clone());
        }
        self.resolver.as_ref().and_then(|r| r(id))
    }

    fn handle_ads(&self, req: &Request, rng: &mut Rng) -> ServerReply {
        let account_id = req.url.query.get("account").unwrap_or("");
        let account = match self.account(account_id) {
            Some(a) => a,
            None => {
                return ServerReply::instant(Response::error(req.id, hb_http::Status::NOT_FOUND))
            }
        };
        let auction_id = HStr::new(req.url.query.get(params::HB_AUCTION).unwrap_or(""));
        // Client-presented bids, if any.
        let mut bids: Vec<PresentedBid> = Vec::new();
        if let Some(body) = req.body.json() {
            if let Some((_, parsed)) = protocol::parse_bid_response(body) {
                for b in parsed {
                    bids.push(PresentedBid {
                        slot: b.slot,
                        bidder: b.bidder,
                        cpm: b.cpm,
                        size: b.size,
                        ad_id: b.ad_id,
                    });
                }
            }
        }
        // Which units to decision: the request may restrict slots. The
        // query is scanned once per unit to fill a selection bitmask; the
        // restricted view stays a borrowed filter over the account's
        // units (no cloned Vec<AdUnit> per request). Iteration order is
        // the account order either way, so the RNG draw sequence — and
        // with it every figure byte — is unchanged. (u128 covers any
        // realistic slot count; a >128-unit account would simply treat
        // the overflow units as selected, matching the unrestricted
        // common case.)
        let restricted = req.url.query.get_all(params::HB_SLOT).next().is_some();
        let mut mask: u128 = !0;
        if restricted {
            debug_assert!(account.ad_units.len() <= 128, "selection mask overflow");
            mask = 0;
            for (i, u) in account.ad_units.iter().enumerate().take(128) {
                if req.url.query.get_all(params::HB_SLOT).any(|r| u.code == r) {
                    mask |= 1 << i;
                }
            }
        }
        let all_units = &account.ad_units;
        let selected = move || {
            all_units
                .iter()
                .enumerate()
                .filter(move |(i, _)| *i >= 128 || mask >> *i & 1 == 1)
                .map(|(_, u)| u)
        };
        // Server-side augmentation. Decisioning cost grows with the number
        // of slots to fill (drives Fig. 20's latency-vs-slots slope).
        let mut processing = SimDuration::from_millis_f64(
            self.decision_overhead_ms + 9.0 * selected().count() as f64,
        );
        if !account.s2s_partners.is_empty() {
            let (s2s_bids, fanout_time) = run_s2s_auction(&account, selected(), rng);
            bids.extend(s2s_bids);
            processing += fanout_time;
        }
        let winners: Vec<WinnerPayload> = selected()
            .map(|unit| {
                let d = decide_slot(&account, unit, &bids, rng);
                WinnerPayload {
                    slot: d.slot,
                    bidder: d.bidder,
                    pb: d.price.bucket(protocol::DEFAULT_PB_GRANULARITY),
                    size: d.size,
                    ad_id: d.ad_id,
                    channel: d.channel,
                }
            })
            .collect();
        let body = protocol::ad_server_response_body(&auction_id, &winners);
        ServerReply::after(Response::json(req.id, body), processing)
    }
}

impl Endpoint for AdServerEndpoint {
    fn handle(&self, req: &Request, rng: &mut Rng) -> ServerReply {
        match req.url.path.as_str() {
            p if p == protocol::paths::AD_SERVER => self.handle_ads(req, rng),
            _ => ServerReply::instant(Response::error(req.id, hb_http::Status::NOT_FOUND)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_http::{Body, RequestId, Url};

    fn unit(code: &str) -> AdUnit {
        AdUnit::new(code, AdSize::MEDIUM_RECT, Cpm(0.01))
    }

    fn hb_bid(slot: &str, bidder: &str, cpm: f64) -> PresentedBid {
        PresentedBid {
            slot: slot.into(),
            bidder: bidder.into(),
            cpm: Cpm(cpm),
            size: AdSize::MEDIUM_RECT,
            ad_id: HStr::from(format!("cr-{bidder}")),
        }
    }

    #[test]
    fn highest_hb_bid_wins_over_floor() {
        let account = AdServerAccount::test_account("pub-1", vec![unit("s1")]);
        let mut rng = Rng::new(1);
        let d = decide_slot(
            &account,
            &account.ad_units[0],
            &[hb_bid("s1", "a", 0.2), hb_bid("s1", "b", 0.5)],
            &mut rng,
        );
        assert_eq!(d.channel, FillChannel::HeaderBid);
        assert_eq!(d.bidder, "b");
        assert_eq!(d.price, Cpm(0.5));
    }

    #[test]
    fn floor_rejects_low_bids_falls_back() {
        let mut account = AdServerAccount::test_account("pub-1", vec![unit("s1")]);
        account.floor = Cpm(1.0);
        let mut rng = Rng::new(2);
        let d = decide_slot(
            &account,
            &account.ad_units[0],
            &[hb_bid("s1", "a", 0.2)],
            &mut rng,
        );
        assert_eq!(d.channel, FillChannel::Fallback);
        assert_eq!(d.price, Cpm(0.05));
    }

    #[test]
    fn direct_order_beats_lower_hb_bid() {
        let mut account = AdServerAccount::test_account("pub-1", vec![unit("s1")]);
        account.direct_orders.push(DirectOrder {
            cpm: Cpm(1.5),
            fill_rate: 1.0,
            sizes: vec![],
        });
        let mut rng = Rng::new(3);
        let d = decide_slot(
            &account,
            &account.ad_units[0],
            &[hb_bid("s1", "a", 0.9)],
            &mut rng,
        );
        assert_eq!(d.channel, FillChannel::DirectOrder);
        assert_eq!(d.price, Cpm(1.5));
    }

    #[test]
    fn hb_beats_direct_when_higher() {
        let mut account = AdServerAccount::test_account("pub-1", vec![unit("s1")]);
        account.direct_orders.push(DirectOrder {
            cpm: Cpm(0.4),
            fill_rate: 1.0,
            sizes: vec![],
        });
        let mut rng = Rng::new(4);
        let d = decide_slot(
            &account,
            &account.ad_units[0],
            &[hb_bid("s1", "big", 1.9)],
            &mut rng,
        );
        assert_eq!(d.channel, FillChannel::HeaderBid);
        assert_eq!(d.bidder, "big");
    }

    #[test]
    fn unfilled_without_fallback() {
        let mut account = AdServerAccount::test_account("pub-1", vec![unit("s1")]);
        account.fallback_cpm = None;
        let mut rng = Rng::new(5);
        let d = decide_slot(&account, &account.ad_units[0], &[], &mut rng);
        assert_eq!(d.channel, FillChannel::Unfilled);
        assert_eq!(d.price, Cpm::ZERO);
    }

    #[test]
    fn bids_for_other_slots_ignored() {
        let account = AdServerAccount::test_account("pub-1", vec![unit("s1")]);
        let mut rng = Rng::new(6);
        let d = decide_slot(
            &account,
            &account.ad_units[0],
            &[hb_bid("other", "a", 5.0)],
            &mut rng,
        );
        assert_ne!(d.channel, FillChannel::HeaderBid);
    }

    #[test]
    fn endpoint_decisions_all_units() {
        let account = AdServerAccount::test_account("pub-9", vec![unit("s1"), unit("s2")]);
        let ep = AdServerEndpoint::new([account]);
        let bids_body = protocol::bid_response_body(
            "auc-7",
            &[crate::protocol::BidPayload {
                bidder: "appnexus".into(),
                slot: "s1".into(),
                cpm: Cpm(0.7),
                size: AdSize::MEDIUM_RECT,
                ad_id: "cr-1".into(),
                currency: "USD".into(),
            }],
        );
        let url = Url::https("adserver.example", protocol::paths::AD_SERVER)
            .with_param("account", "pub-9")
            .with_param(params::HB_AUCTION, "auc-7")
            .with_param(params::HB_SOURCE, "client");
        let req = Request::post(RequestId(2), url, Body::Json(bids_body));
        let mut rng = Rng::new(7);
        let reply = ep.handle(&req, &mut rng);
        let (auction, winners) =
            protocol::parse_ad_server_response(reply.response.body.json().unwrap()).unwrap();
        assert_eq!(auction, "auc-7");
        assert_eq!(winners.len(), 2);
        let w1 = winners.iter().find(|w| w.slot == "s1").unwrap();
        assert_eq!(w1.channel, FillChannel::HeaderBid);
        assert_eq!(w1.bidder, "appnexus");
        let w2 = winners.iter().find(|w| w.slot == "s2").unwrap();
        assert_eq!(w2.channel, FillChannel::Fallback);
    }

    #[test]
    fn s2s_accounts_produce_bids_and_latency() {
        let mut p = PartnerProfile::test_profile(1, "ix");
        p.bid_rate = 1.0;
        let mut account = AdServerAccount::test_account("pub-2", vec![unit("s1")]);
        account.s2s_partners = vec![Arc::new(p)];
        let mut rng = Rng::new(8);
        let units = account.ad_units.clone();
        let (bids, dur) = run_s2s_auction(&account, &units[..], &mut rng);
        assert_eq!(bids.len(), 1);
        assert_eq!(bids[0].bidder, "ix");
        assert!(dur > SimDuration::ZERO);
    }

    #[test]
    fn s2s_deadline_drops_slow_partner_after_one_retry() {
        use hb_simnet::LatencyModel;
        let mut fast = PartnerProfile::test_profile(1, "fast");
        fast.bid_rate = 1.0;
        fast.s2s_latency = LatencyModel::constant(20.0);
        fast.per_slot_processing_ms = 10.0;
        let mut slow = PartnerProfile::test_profile(2, "slow");
        slow.bid_rate = 1.0;
        slow.s2s_latency = LatencyModel::constant(900.0);
        slow.per_slot_processing_ms = 10.0;

        let mut account = AdServerAccount::test_account("pub-4", vec![unit("s1")]);
        account.s2s_partners = vec![Arc::new(fast.clone()), Arc::new(slow.clone())];
        let units = account.ad_units.clone();

        // Baseline (posture off): both partners bid, latency = slowest.
        let mut rng = Rng::new(11);
        let (bids, dur) = run_s2s_auction(&account, &units[..], &mut rng);
        assert_eq!(bids.len(), 2);
        assert!(dur >= SimDuration::from_millis(910), "dur {dur}");

        // Degraded posture: the slow partner misses the s2s deadline
        // twice and is dropped; the mediator gives up at deadline +
        // backoff + deadline.
        account.degraded_posture = true;
        let mut rng = Rng::new(11);
        let (bids, dur) = run_s2s_auction(&account, &units[..], &mut rng);
        assert_eq!(bids.len(), 1, "slow partner dropped");
        assert_eq!(bids[0].bidder, "fast");
        assert_eq!(dur, S2S_DEADLINE + RETRY_BACKOFF + S2S_DEADLINE);
    }

    #[test]
    fn unknown_account_404() {
        let ep = AdServerEndpoint::new([]);
        let url = Url::https("adserver.example", protocol::paths::AD_SERVER)
            .with_param("account", "ghost");
        let req = Request::get(RequestId(1), url);
        let mut rng = Rng::new(9);
        assert_eq!(
            ep.handle(&req, &mut rng).response.status,
            hb_http::Status::NOT_FOUND
        );
    }

    #[test]
    fn slot_restriction_respected() {
        let account =
            AdServerAccount::test_account("pub-3", vec![unit("s1"), unit("s2"), unit("s3")]);
        let ep = AdServerEndpoint::new([account]);
        let url = Url::https("adserver.example", protocol::paths::AD_SERVER)
            .with_param("account", "pub-3")
            .with_param(params::HB_SLOT, "s2");
        let req = Request::get(RequestId(3), url);
        let mut rng = Rng::new(10);
        let reply = ep.handle(&req, &mut rng);
        let (_, winners) =
            protocol::parse_ad_server_response(reply.response.body.json().unwrap()).unwrap();
        assert_eq!(winners.len(), 1);
        assert_eq!(winners[0].slot, "s2");
    }
}

//! Allocation accounting for the visit and auction hot paths.
//!
//! Four layers of budget are enforced with a counting allocator:
//!
//! * the detector's per-request classify path performs **zero** heap
//!   allocations for form/empty bodies (PR 1 invariant);
//! * a full steady-state visit through the pooled per-worker
//!   [`VisitScratch`] on the direct-to-column `crawl_site_into` path
//!   stays under a fixed per-flow allocation budget, and below the cost
//!   of that worker's first (cold) visit;
//! * a **cold** (memo-miss) visit — the adoption-sweep hot path, where
//!   every rank is seen for the first time — stays under a per-flow
//!   budget too (PR 5 invariant: scratch-based site derivation makes a
//!   cold visit approach pooled-visit cost);
//! * an admitted serving auction on a warm shard stays under a fixed
//!   per-auction budget.

use hb_repro::adtech::{HbFacet, RobustnessPolicy};
use hb_repro::core::{classify_request, Interner, PartnerList, RequestKind, VisitColumns};
use hb_repro::crawler::{crawl_site_into, SessionConfig, TruthRecord, VisitScratch};
use hb_repro::ecosystem::{EcosystemConfig, ScenarioConfig, SiteFactory};
use hb_repro::http::{Request, RequestId, Url};
use hb_repro::serve::{serve_requests, AdRequest, LoadGenConfig, ServeConfig};
use hb_repro::simnet::{Dist, HostFaultProfile, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting this thread's allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on this thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|c| c.get());
    let result = f();
    let after = ALLOCS.with(|c| c.get());
    (after - before, result)
}

#[test]
fn classify_request_no_match_fast_path_is_allocation_free() {
    let list = PartnerList::demo();
    let unrelated = Request::get(
        RequestId(1),
        Url::parse("https://images.news.example/logo.png?v=12&cache=1").unwrap(),
    );
    // Warm up once (lazy statics, anything incidental).
    let _ = classify_request(&list, &unrelated);
    let (allocs, c) = allocations_during(|| classify_request(&list, &unrelated));
    assert_eq!(c.kind, RequestKind::Unrelated);
    assert_eq!(allocs, 0, "no-match classify must not allocate");
}

#[test]
fn classify_bid_request_is_allocation_free() {
    let list = PartnerList::demo();
    let bid = Request::get(
        RequestId(2),
        Url::parse(
            "https://appnexus-adnet.example/hb/bid?hb_auction=a1&hb_bidder=appnexus&hb_source=client&slots=4",
        )
        .unwrap(),
    );
    let _ = classify_request(&list, &bid);
    let (allocs, c) = allocations_during(|| classify_request(&list, &bid));
    assert_eq!(c.kind, RequestKind::BidRequest);
    assert_eq!(c.partner_name(), Some("AppNexus"));
    assert_eq!(allocs, 0, "bid-request classify must not allocate");
}

/// Per-flow steady-state budgets for the campaign's actual hot path —
/// [`crawl_site_into`], which appends straight into the worker's columns
/// and flattens the truth in place. Measured steady states on the
/// reference container after PR 7 (shared concurrent memo; raw-bid
/// fields cloned from the body's own `HStr` handles instead of rebuilt,
/// so strings past the inline cap no longer spill into fresh `Arc<str>`s)
/// are ~21 (client), ~17 (server), ~27 (hybrid) and ~19 (waterfall) —
/// mostly column-tail growth and interner traffic. Budgets carry ~2x
/// headroom for allocator drift.
const COLUMNAR_BUDGETS: [(&str, Option<HbFacet>, u64); 4] = [
    ("client_side", Some(HbFacet::ClientSide), 45),
    ("server_side", Some(HbFacet::ServerSide), 35),
    ("hybrid", Some(HbFacet::Hybrid), 55),
    ("waterfall", None, 40),
];

/// Per-flow **cold-visit** budgets: a warm worker scratch visiting a rank
/// whose derivation memos all miss. Two shapes are enforced:
///
/// * `fresh`: never-before-seen ranks (the adoption-sweep shape — also
///   pays first-time interner entries for the new domain/partners), as
///   the *mean* over several sites of the flow, since per-site partner
///   fan-out varies;
/// * `cleared`: the same already-interned rank after
///   [`SiteFactory::clear_memos`] (pure re-derivation cost).
///
/// Measured after PR 7 (shared sharded memo): fresh means ~63 / 54 / 72
/// / 26 and cleared ~41 / 42 / 47 / 33 — the cleared numbers carry a few
/// extra shard-map insert allocations versus the PR 5 thread-local LRUs
/// (~26 / 26 / 34 / 20), the price of one derivation serving every
/// worker. Budgets carry ~2x headroom.
const COLD_BUDGETS: [(&str, Option<HbFacet>, u64, u64); 4] = [
    // (label, facet, fresh-mean budget, memo-cleared budget)
    ("client_side", Some(HbFacet::ClientSide), 125, 80),
    ("server_side", Some(HbFacet::ServerSide), 110, 80),
    ("hybrid", Some(HbFacet::Hybrid), 145, 95),
    ("waterfall", None, 60, 65),
];

/// One columnar visit through the per-worker scratch.
#[allow(clippy::too_many_arguments)]
fn columnar_visit(
    eco: &SiteFactory,
    rank: u32,
    cfg: &SessionConfig,
    strings: &mut Interner,
    scratch: &mut VisitScratch,
    cols: &mut VisitColumns,
    truths: &mut Vec<TruthRecord>,
) -> bool {
    crawl_site_into(
        eco.net(),
        eco.runtime_shared(rank),
        eco.visit_rng(rank, 0),
        0,
        cfg,
        strings,
        scratch,
        cols,
        truths,
    )
    .page_completed
}

#[test]
fn steady_state_columnar_visit_stays_within_allocation_budget() {
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let cfg = SessionConfig::default();
    for (label, facet, budget) in COLUMNAR_BUDGETS {
        let site = eco
            .sites()
            .find(|s| s.facet == facet)
            .unwrap_or_else(|| panic!("{label} site in tiny universe"));
        let mut scratch = VisitScratch::new(eco.partner_list());
        let mut strings = Interner::new();
        let mut cols = VisitColumns::new();
        let mut truths = Vec::new();
        // Warm-up: first visits pay one-time costs (browser, detector maps,
        // buffer pools, interner entries, factory memos).
        let (cold, _) = allocations_during(|| {
            columnar_visit(
                &eco,
                site.rank,
                &cfg,
                &mut strings,
                &mut scratch,
                &mut cols,
                &mut truths,
            )
        });
        for _ in 0..2 {
            let _ = columnar_visit(
                &eco,
                site.rank,
                &cfg,
                &mut strings,
                &mut scratch,
                &mut cols,
                &mut truths,
            );
        }
        let (steady, completed) = allocations_during(|| {
            columnar_visit(
                &eco,
                site.rank,
                &cfg,
                &mut strings,
                &mut scratch,
                &mut cols,
                &mut truths,
            )
        });
        eprintln!("alloc_into[{label}]: cold {cold}, steady {steady} (budget {budget})");
        assert!(completed, "{label}: visit must complete");
        assert!(
            steady <= budget,
            "{label}: steady-state columnar visit allocated {steady} (> budget {budget})"
        );
        assert!(
            steady < cold,
            "{label}: pooling must beat the cold visit ({steady} vs {cold})"
        );
    }
}

#[test]
fn cold_visit_stays_within_allocation_budget() {
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let cfg = SessionConfig::default();
    for (label, facet, fresh_budget, cleared_budget) in COLD_BUDGETS {
        let ranks: Vec<u32> = eco
            .sites()
            .filter(|s| s.facet == facet)
            .map(|s| s.rank)
            .collect();
        assert!(ranks.len() >= 5, "{label}: tiny universe has enough sites");
        let mut scratch = VisitScratch::new(eco.partner_list());
        let mut strings = Interner::new();
        let mut cols = VisitColumns::new();
        let mut truths = Vec::new();
        // Warm the worker scratch (browser, detector buffers, pools) on
        // the first site — from here on, every allocation difference is
        // the cold derivation itself.
        for _ in 0..3 {
            let _ = columnar_visit(
                &eco,
                ranks[0],
                &cfg,
                &mut strings,
                &mut scratch,
                &mut cols,
                &mut truths,
            );
        }
        // Fresh ranks: every memo (site, account, runtime, page HTML)
        // misses, and the domain/partner strings are new to the interner.
        let fresh: Vec<u64> = ranks[1..ranks.len().min(6)]
            .iter()
            .map(|&rank| {
                allocations_during(|| {
                    columnar_visit(
                        &eco,
                        rank,
                        &cfg,
                        &mut strings,
                        &mut scratch,
                        &mut cols,
                        &mut truths,
                    )
                })
                .0
            })
            .collect();
        let mean = fresh.iter().sum::<u64>() / fresh.len() as u64;
        // Memo-cleared revisit of the warm rank: pure re-derivation.
        eco.clear_memos();
        let (cleared, _) = allocations_during(|| {
            columnar_visit(
                &eco,
                ranks[0],
                &cfg,
                &mut strings,
                &mut scratch,
                &mut cols,
                &mut truths,
            )
        });
        eprintln!(
            "alloc_cold[{label}]: fresh {fresh:?} mean {mean} (budget {fresh_budget}), \
             memo-cleared {cleared} (budget {cleared_budget})"
        );
        assert!(
            mean <= fresh_budget,
            "{label}: cold fresh-rank visits averaged {mean} allocations (> budget {fresh_budget})"
        );
        assert!(
            cleared <= cleared_budget,
            "{label}: memo-cleared visit allocated {cleared} (> budget {cleared_budget})"
        );
    }
}

/// Steady-state budget for a columnar visit that actually exercises the
/// fault path: ambient loss on every partner plus the degraded
/// robustness posture (per-partner deadlines, one retry with backoff,
/// passback). The retry machinery reuses the visit's pooled messages, so
/// the budget is the client-side columnar budget plus a small surcharge
/// for the extra truth counters and retried-request bookkeeping
/// (measured steady ~37 after PR 7; ~2x headroom).
const FAULTY_COLUMNAR_BUDGET: u64 = 75;

#[test]
fn fault_path_columnar_visit_stays_within_allocation_budget() {
    // Lossy ambient profile on every partner: whichever site we land on,
    // its demand sources are degraded and the drop -> retry -> give-up
    // machinery runs inside the visit.
    let mut scenario =
        ScenarioConfig::healthy().with_robustness(RobustnessPolicy::degraded_defaults());
    for spec in hb_repro::ecosystem::catalog::catalog() {
        scenario = scenario.with_host_profile(
            spec.host(),
            HostFaultProfile {
                drop_chance: 0.35,
                slow_chance: 0.25,
                slow_penalty_ms: Dist::Const(700.0),
            },
        );
    }
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale().with_scenario(scenario));
    let cfg = SessionConfig::default();
    // Find a client-side site whose (deterministic) visit actually records
    // fault activity — with 35% drops on every partner the first candidate
    // almost always qualifies, but the budget must only ever be measured
    // on a visit where the fault path ran.
    let site = eco
        .hb_sites()
        .filter(|s| s.facet == Some(HbFacet::ClientSide))
        .find(|s| {
            let mut scratch = VisitScratch::new(eco.partner_list());
            let mut strings = Interner::new();
            let mut cols = VisitColumns::new();
            let mut truths = Vec::new();
            let _ = columnar_visit(
                &eco,
                s.rank,
                &cfg,
                &mut strings,
                &mut scratch,
                &mut cols,
                &mut truths,
            );
            let t = truths.last().expect("visit recorded a truth");
            t.bids_dropped + t.retries + t.timed_out_partners > 0
        })
        .expect("a client-side visit touched by ambient faults");

    let mut scratch = VisitScratch::new(eco.partner_list());
    let mut strings = Interner::new();
    let mut cols = VisitColumns::new();
    let mut truths = Vec::new();
    for _ in 0..3 {
        let _ = columnar_visit(
            &eco,
            site.rank,
            &cfg,
            &mut strings,
            &mut scratch,
            &mut cols,
            &mut truths,
        );
    }
    let (steady, completed) = allocations_during(|| {
        columnar_visit(
            &eco,
            site.rank,
            &cfg,
            &mut strings,
            &mut scratch,
            &mut cols,
            &mut truths,
        )
    });
    let t = truths.last().expect("visit recorded a truth");
    eprintln!(
        "alloc_fault[client_side]: steady {steady} (budget {FAULTY_COLUMNAR_BUDGET}), \
         drops {} retries {} timeouts {}",
        t.bids_dropped, t.retries, t.timed_out_partners
    );
    assert!(completed, "faulty visit must still complete");
    assert!(
        t.bids_dropped + t.retries + t.timed_out_partners > 0,
        "fault path must actually run during the measured visit"
    );
    assert!(
        steady <= FAULTY_COLUMNAR_BUDGET,
        "steady-state faulty visit allocated {steady} (> budget {FAULTY_COLUMNAR_BUDGET})"
    );
}

/// Allocation budget per admitted auction of the serving plane: one warm
/// shard (every site runtime the stream touches is already derived)
/// serving a zipf stream over the degraded 4-provider slice of the
/// `serve_zipf` benchmark, so hedges, breaker skips and waterfall descents
/// all run inside the measured window. Measured 12.05 when each auction
/// still collected its provider legs into a `Vec` and formatted an
/// `rtb.` host for every waterfall tier up front, 9.99 after the
/// orchestrator read them off the site runtime; the budget carries ~2x
/// headroom.
const SERVE_AUCTION_BUDGET: u64 = 20;

#[test]
fn serving_auction_stays_within_allocation_budget() {
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let slice: Vec<String> = eco
        .specs()
        .iter()
        .filter(|s| !s.is_ad_server)
        .take(4)
        .map(|s| s.host())
        .collect();
    let lossy = HostFaultProfile {
        drop_chance: 0.45,
        slow_chance: 0.35,
        slow_penalty_ms: Dist::Const(220.0),
    };
    let injector = ScenarioConfig::healthy()
        .with_provider_slice(slice, lossy)
        .injector_for_day(&eco.faults(), 0);
    let net = hb_repro::adtech::Net::new(eco.router(), eco.latency(), injector.into());
    let load = LoadGenConfig {
        n_requests: 2_000,
        n_sites: u64::from(eco.config().n_sites),
        mean_gap: SimDuration::from_millis(10),
        ..LoadGenConfig::default()
    };
    let requests: Vec<AdRequest> = (0..load.n_requests).map(|n| load.request(n)).collect();
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    // Warm-up run: derives every site runtime the stream touches.
    let _ = serve_requests(eco.gen(), &net, &cfg, requests.clone());
    let (allocs, report) = allocations_during(|| serve_requests(eco.gen(), &net, &cfg, requests));
    let s = &report.stats;
    let per_auction = allocs as f64 / s.admitted as f64;
    eprintln!(
        "alloc_serve: {allocs} allocations over {} admitted auctions = {per_auction:.2} \
         per auction (budget {SERVE_AUCTION_BUDGET}); hedges {} skips {} timeouts {}",
        s.admitted, s.hedges_fired, s.breaker_skips, s.provider_timeouts
    );
    assert!(
        s.admitted * 10 >= s.auctions * 9,
        "the stream fits capacity"
    );
    assert!(
        s.hedges_fired > 0 && s.breaker_skips > 0 && s.wins_waterfall > 0,
        "the measured window runs hedges, breaker skips and waterfall fills"
    );
    assert!(
        per_auction <= SERVE_AUCTION_BUDGET as f64,
        "serving allocated {per_auction:.2} per admitted auction (> budget {SERVE_AUCTION_BUDGET})"
    );
}

#[test]
fn match_host_is_allocation_free_for_lowercase_hosts() {
    let list = PartnerList::demo();
    let _ = list.match_host("fast.cdn.appnexus-adnet.example");
    let (allocs, hit) =
        allocations_during(|| list.match_host("fast.cdn.appnexus-adnet.example").is_some());
    assert!(hit);
    assert_eq!(allocs, 0, "suffix walk must reuse host slices");
    let (allocs, miss) = allocations_during(|| list.match_host("unknown.example").is_some());
    assert!(!miss);
    assert_eq!(allocs, 0);
}

//! Acceptance tests for the serving plane's robustness envelope:
//! the deadline invariant, byte-identical determinism across worker
//! counts, and explicit load shedding under overload.

use std::sync::Arc;

use hb_ecosystem::{EcosystemConfig, ScenarioConfig, SiteFactory};
use hb_serve::{
    serve_load_with, serve_requests, AdRequest, Decision, LoadGenConfig, ServeConfig, ServeStats,
};
use hb_simnet::{Dist, FaultInjector, HostFaultProfile, SimDuration, SimTime};

fn universe() -> SiteFactory {
    SiteFactory::new(EcosystemConfig::tiny_scale().with_seed(0x5EE_D10))
}

/// A Net whose fault injector is replaced by the scenario's day-0 view.
fn degraded_net(factory: &SiteFactory, scenario: &ScenarioConfig) -> hb_adtech::Net {
    let inj = scenario.injector_for_day(&factory.faults(), 0);
    hb_adtech::Net::new(factory.router(), factory.latency(), Arc::new(inj))
}

/// The first `n` partner hosts of the ecosystem catalog — a
/// deterministic provider slice to degrade.
fn partner_slice(factory: &SiteFactory, n: usize) -> Vec<String> {
    factory
        .gen()
        .specs
        .iter()
        .filter(|s| !s.is_ad_server)
        .take(n)
        .map(|s| s.host())
        .collect()
}

/// Deadline invariant: with EVERY provider unreachable (100% drop on
/// all hosts), every auction still resolves by `arrival + budget`, and
/// the shard simulation goes idle immediately after — no orchestrator
/// future outlives its request.
#[test]
fn deadline_invariant_under_total_outage() {
    let f = universe();
    let dead = FaultInjector::none().with_drop_chance(1.0);
    let net = hb_adtech::Net::new(f.router(), f.latency(), Arc::new(dead));
    let cfg = ServeConfig::default();

    let gap = SimDuration::from_millis(5);
    let n = 40u64;
    let requests: Vec<AdRequest> = (0..n)
        .map(|i| AdRequest {
            id: i,
            rank: (i % 30 + 1) as u32,
            user: i * 17,
            arrival: SimTime::ZERO.saturating_add(gap * i),
        })
        .collect();
    let last_arrival = requests.last().unwrap().arrival;

    let report = serve_requests(f.gen(), &net, &cfg, requests);

    assert_eq!(report.outcomes.len() as u64, n, "every request resolved");
    for o in &report.outcomes {
        assert!(
            o.latency <= cfg.budget,
            "request {} overran its budget: {}",
            o.request,
            o.latency
        );
        assert_eq!(
            o.decision,
            Decision::Passback,
            "no reachable demand can produce a fill"
        );
    }
    // The shard went idle by the last request's deadline: nothing the
    // orchestrator scheduled survived its auction.
    assert!(
        report.end <= last_arrival.saturating_add(cfg.budget),
        "simulation idled at {:?}, after the last deadline",
        report.end
    );
    assert!(report.stats.provider_timeouts > 0, "legs timed out");
    assert_eq!(report.stats.fills() + report.stats.passbacks, n);
}

/// Determinism: identical `(seed, request stream)` served by 1 worker
/// and by 8 workers produces byte-identical outcomes — including every
/// breaker trip, hedge, and shed — because the shard partition, not the
/// worker pool, defines the computation.
#[test]
fn determinism_across_worker_counts() {
    let f = universe();
    // Degrade a provider slice so the robustness envelope is exercised:
    // drops trip breakers, slowdowns outrun the hedge trigger.
    let lossy = HostFaultProfile {
        drop_chance: 0.45,
        slow_chance: 0.35,
        slow_penalty_ms: Dist::Const(220.0),
    };
    let scenario = ScenarioConfig::healthy().with_provider_slice(partner_slice(&f, 4), lossy);
    let net = degraded_net(&f, &scenario);

    let cfg = ServeConfig {
        shards: 8,
        ..ServeConfig::default()
    };
    let load = LoadGenConfig {
        n_requests: 1_600,
        n_sites: f.config().n_sites as u64,
        mean_gap: SimDuration::from_micros(400),
        ..LoadGenConfig::default()
    };

    let solo = serve_load_with(f.gen(), &net, &cfg, &load, 1, true);
    let pooled = serve_load_with(f.gen(), &net, &cfg, &load, 8, true);
    let replay = serve_load_with(f.gen(), &net, &cfg, &load, 3, true);

    assert_eq!(solo.digest(), pooled.digest(), "run digest");
    assert_eq!(solo.digest(), replay.digest(), "replay digest");
    assert_eq!(solo.stats, pooled.stats, "merged counters");
    for (a, b) in solo.shards.iter().zip(pooled.shards.iter()) {
        assert_eq!(a.shard, b.shard);
        assert_eq!(a.digest, b.digest, "shard {} digest", a.shard);
        assert_eq!(a.stats, b.stats, "shard {} stats", a.shard);
        assert_eq!(a.outcomes, b.outcomes, "shard {} outcomes", a.shard);
        assert_eq!(a.end, b.end, "shard {} end time", a.shard);
    }
    assert_eq!(
        solo.hist.p50_p99_p999(),
        pooled.hist.p50_p99_p999(),
        "merged latency distribution"
    );

    // The degraded slice actually pushed the envelope into action —
    // the determinism claim covers the interesting paths, not a
    // fault-free fast path.
    assert!(solo.stats.breaker_trips > 0, "breakers tripped");
    assert!(solo.stats.breaker_skips > 0, "open breakers skipped legs");
    assert!(solo.stats.hedges_fired > 0, "hedges fired");
    assert!(solo.stats.provider_timeouts > 0, "legs timed out");
    assert!(solo.stats.fills() > 0, "healthy demand still filled");
}

/// Overload: arrivals at ~2x the admission capacity shed explicitly,
/// never hang, and the p99 of *admitted* auctions stays within the
/// healthy budget.
#[test]
fn overload_sheds_instead_of_hanging() {
    let f = universe();
    let net = f.net();
    let cfg = ServeConfig {
        shards: 1,
        max_in_flight: 8,
        ..ServeConfig::default()
    };
    // Arrivals every 120us against a capacity of 8 in-flight auctions
    // that each hold their slot for hundreds of milliseconds: far past
    // 2x capacity, so admission control must act.
    let load = LoadGenConfig {
        n_requests: 1_200,
        n_sites: f.config().n_sites as u64,
        mean_gap: SimDuration::from_micros(120),
        ..LoadGenConfig::default()
    };

    let report = serve_load_with(f.gen(), &net, &cfg, &load, 1, true);
    let stats = &report.stats;

    assert_eq!(stats.auctions, load.n_requests, "every request answered");
    assert_eq!(stats.admitted + stats.sheds, stats.auctions);
    assert!(stats.sheds > 0, "overload must shed explicitly");
    assert!(stats.admitted > 0, "capacity still serves");
    let sheds_in_outcomes = report.shards[0]
        .outcomes
        .iter()
        .filter(|o| o.decision == Decision::Shed)
        .count() as u64;
    assert_eq!(
        sheds_in_outcomes, stats.sheds,
        "sheds are explicit outcomes"
    );

    // Admitted auctions kept their latency promise despite overload.
    assert_eq!(report.hist.count(), stats.admitted);
    let (_, p99, p999) = report.hist.p50_p99_p999();
    assert!(
        p99 <= cfg.budget.as_micros(),
        "admitted p99 {}us within the {:?} budget",
        p99,
        cfg.budget
    );
    assert!(p999 <= cfg.budget.as_micros());

    // No hangs: the run ends within one budget of the last arrival.
    let horizon = load.horizon(cfg.budget);
    for sh in &report.shards {
        assert!(
            sh.end <= horizon,
            "shard {} idled late: {:?}",
            sh.shard,
            sh.end
        );
    }
}

/// Healthy traffic on an undisturbed network: fills dominate, nothing
/// sheds, nothing trips, and the three demand paths all serve.
#[test]
fn healthy_serving_fills_across_channels() {
    let f = universe();
    let cfg = ServeConfig {
        shards: 4,
        ..ServeConfig::default()
    };
    let load = LoadGenConfig {
        n_requests: 800,
        n_sites: f.config().n_sites as u64,
        mean_gap: SimDuration::from_micros(2_500),
        ..LoadGenConfig::default()
    };
    let report = serve_load_with(f.gen(), &f.net(), &cfg, &load, 4, false);
    let stats = &report.stats;

    assert_eq!(stats.auctions, load.n_requests);
    assert_eq!(stats.sheds, 0, "healthy load fits capacity");
    // Late-prone catalog partners legitimately trip on tail latency
    // even without injected faults; the envelope just must not be in
    // constant-degradation mode.
    assert!(
        stats.breaker_trips < 10,
        "healthy network trips stay rare: {}",
        stats.breaker_trips
    );
    assert!(
        stats.fills() * 2 > stats.auctions,
        "fills dominate: {} of {}",
        stats.fills(),
        stats.auctions
    );
    assert!(stats.wins_hb + stats.wins_s2s > 0, "header bidding serves");
    assert!(stats.wins_waterfall > 0, "waterfall sites serve");
}

/// Byte identity of the serving plane at test scale: the run digests of
/// a healthy load and of the same load with a degraded 4-provider slice
/// (45% drops, 35% slowed by 220 ms — the `serve_zipf` shape), plus
/// each run's full counters and every shard's idle time. The digest
/// folds only outcomes, so timeouts, trips, degraded fills, aborts and
/// backstops are pinned through the counters. Any change to a serving
/// wire shape, a leg's RNG draw order or the auction state machine
/// moves them; a refactor must leave them alone.
#[test]
fn serve_digests_are_pinned() {
    let f = SiteFactory::new(EcosystemConfig::test_scale());
    let lossy = HostFaultProfile {
        drop_chance: 0.45,
        slow_chance: 0.35,
        slow_penalty_ms: Dist::Const(220.0),
    };
    let scenario = ScenarioConfig::healthy().with_provider_slice(partner_slice(&f, 4), lossy);
    let cfg = ServeConfig {
        shards: 4,
        ..ServeConfig::default()
    };
    let load = LoadGenConfig {
        n_requests: 3_000,
        n_sites: f.config().n_sites as u64,
        mean_gap: SimDuration::from_micros(1_500),
        ..LoadGenConfig::default()
    };
    let runs = [
        (
            "healthy",
            f.net(),
            0x8d9b_c5f6_3809_cc38,
            ServeStats {
                auctions: 3_000,
                admitted: 3_000,
                sheds: 0,
                wins_hb: 20,
                wins_s2s: 60,
                wins_waterfall: 1_727,
                wins_direct: 7,
                wins_house: 134,
                passbacks: 1_052,
                degraded_fills: 15,
                provider_timeouts: 612,
                hedges_fired: 536,
                hedge_wins: 6,
                breaker_skips: 259,
                breaker_trips: 25,
                wf_aborts: 0,
                budget_exhausted: 0,
            },
            [5_115_426, 5_070_965, 5_131_033, 4_885_182],
        ),
        (
            "degraded",
            degraded_net(&f, &scenario),
            0xb8c3_9b07_f131_d3b4,
            ServeStats {
                auctions: 3_000,
                admitted: 3_000,
                sheds: 0,
                wins_hb: 18,
                wins_s2s: 61,
                wins_waterfall: 1_107,
                wins_direct: 5,
                wins_house: 131,
                passbacks: 1_678,
                degraded_fills: 13,
                provider_timeouts: 850,
                hedges_fired: 518,
                hedge_wins: 3,
                breaker_skips: 2_319,
                breaker_trips: 63,
                wf_aborts: 0,
                budget_exhausted: 0,
            },
            [4_780_681, 4_800_336, 5_131_033, 4_807_350],
        ),
    ];
    for (label, net, pinned, stats, ends_us) in runs {
        let report = serve_load_with(f.gen(), &net, &cfg, &load, 2, false);
        eprintln!(
            "{label}: digest {:#018x} {:?}",
            report.digest(),
            report.stats
        );
        assert_eq!(report.digest(), pinned, "{label} serve digest moved");
        assert_eq!(report.stats, stats, "{label} serve counters moved");
        let ends: Vec<u64> = report.shards.iter().map(|s| s.end.as_micros()).collect();
        assert_eq!(ends, ends_us, "{label} shard end times moved");
    }
}

/// A budget shorter than the leg timeouts reaches the two exits the
/// default config never takes: waterfall descents cut short by the abort
/// margin, and auctions answered by the budget backstop. Both still keep
/// the latency promise, and worker count still cannot change the result.
/// The only test that reaches either exit, so it pins its digest and
/// counters too.
#[test]
fn tight_budget_aborts_waterfalls_and_fires_the_backstop() {
    let f = universe();
    let cfg = ServeConfig {
        budget: SimDuration::from_millis(300),
        shards: 4,
        ..ServeConfig::default()
    };
    let load = LoadGenConfig {
        n_requests: 1_000,
        n_sites: f.config().n_sites as u64,
        mean_gap: SimDuration::from_micros(2_500),
        ..LoadGenConfig::default()
    };
    let solo = serve_load_with(f.gen(), &f.net(), &cfg, &load, 1, true);
    let pooled = serve_load_with(f.gen(), &f.net(), &cfg, &load, 3, true);

    assert!(solo.stats.wf_aborts > 0, "abort margin cut a descent short");
    assert!(solo.stats.budget_exhausted > 0, "the backstop answered");
    for sh in &solo.shards {
        for o in &sh.outcomes {
            assert!(
                o.latency <= cfg.budget,
                "request {} overran its budget: {}",
                o.request,
                o.latency
            );
        }
    }
    assert_eq!(
        solo.digest(),
        0xc7f6_ba33_ee22_cdcc,
        "tight-budget digest moved"
    );
    assert_eq!(
        solo.stats,
        ServeStats {
            auctions: 1_000,
            admitted: 1_000,
            sheds: 0,
            wins_hb: 4,
            wins_s2s: 11,
            wins_waterfall: 510,
            wins_direct: 0,
            wins_house: 46,
            passbacks: 429,
            degraded_fills: 4,
            provider_timeouts: 22,
            hedges_fired: 83,
            hedge_wins: 0,
            breaker_skips: 0,
            breaker_trips: 0,
            wf_aborts: 114,
            budget_exhausted: 189,
        },
        "tight-budget counters moved"
    );
    assert_eq!(solo.digest(), pooled.digest(), "run digest");
    assert_eq!(solo.stats, pooled.stats, "merged counters");
    for (a, b) in solo.shards.iter().zip(&pooled.shards) {
        assert_eq!(a.outcomes, b.outcomes, "shard {} outcomes", a.shard);
    }
}

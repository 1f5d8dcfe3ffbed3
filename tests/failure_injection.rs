//! Failure-injection tests: the pipeline must stay sound when the network
//! misbehaves — partner outages, heavy packet loss, dead pages — and
//! campaign-level degraded-network scenarios must stay deterministic
//! across parallelism and sharding.

mod common;

use common::{campaign, rows, stressed_scenario, visit};
use hb_repro::adtech::{HbFacet, Net};
use hb_repro::prelude::*;
use hb_repro::simnet::FaultInjector;
use std::fmt::Write as _;
use std::sync::Arc;

/// Rebuild a net handle with a custom fault injector over the same world.
fn net_with_faults(eco: &SiteFactory, faults: FaultInjector) -> Net {
    Net::new(eco.router(), eco.latency(), Arc::new(faults))
}

#[test]
fn partner_outage_loses_bids_but_keeps_detection() {
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let site = eco
        .hb_sites()
        .find(|s| s.facet == Some(HbFacet::ClientSide) && s.client_partner_ids.len() >= 2)
        .expect("client-side site with several partners");
    // Take the first partner's host down.
    let down_host = eco.specs()[site.client_partner_ids[0]].host();
    let mut faults = FaultInjector::none();
    faults.add_outage(down_host.clone());

    let visit = visit(
        net_with_faults(&eco, faults),
        eco.runtime_for(&site),
        eco.partner_list(),
        eco.visit_rng(site.rank, 0),
        0,
    );
    assert!(visit.record.hb_detected, "outage must not break detection");
    assert_eq!(
        visit.record.facet.map(|f| f.label()),
        Some("client-side"),
        "facet still classified"
    );
    // The downed partner produced no latency observation.
    let down_name = &eco.specs()[site.client_partner_ids[0]].name;
    assert!(
        !visit
            .record
            .partner_latencies
            .iter()
            .any(|pl| visit.strings.resolve(pl.partner_name) == *down_name),
        "no latency sample from a dead partner"
    );
}

#[test]
fn dead_page_yields_clean_empty_record() {
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let site = eco.hb_sites().next().unwrap();
    let mut faults = FaultInjector::none();
    faults.add_outage(site.domain.clone());
    let visit = visit(
        net_with_faults(&eco, faults),
        eco.runtime_for(&site),
        eco.partner_list(),
        eco.visit_rng(site.rank, 0),
        0,
    );
    assert!(!visit.record.hb_detected, "nothing loads, nothing detected");
    assert!(!visit.page_completed);
    assert!(visit.record.bids.is_empty());
    assert_eq!(visit.record.hb_latency_ms, None);
}

#[test]
fn heavy_packet_loss_degrades_gracefully() {
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let faults = FaultInjector::none().with_drop_chance(0.30);
    let mut detected = 0;
    let mut visited = 0;
    for site in eco.hb_sites().take(15) {
        let visit = visit(
            net_with_faults(&eco, faults.clone()),
            eco.runtime_for(&site),
            eco.partner_list(),
            eco.visit_rng(site.rank, 0),
            0,
        );
        visited += 1;
        if visit.record.hb_detected {
            detected += 1;
            // Whatever is reported must be internally consistent.
            assert!(visit.record.late_fraction().unwrap_or(0.0) <= 1.0);
            if let Some(lat) = visit.record.hb_latency_ms {
                assert!(lat >= 0.0);
            }
        }
    }
    assert!(visited == 15);
    // 30% loss still lets most pages produce HB evidence.
    assert!(detected >= 8, "detected {detected}/15 under 30% loss");
}

#[test]
fn adserver_outage_suppresses_latency_but_not_detection() {
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let site = eco
        .hb_sites()
        .find(|s| s.facet == Some(HbFacet::ClientSide))
        .unwrap();
    let mut faults = FaultInjector::none();
    faults.add_outage(site.own_ad_server_host());
    let visit = visit(
        net_with_faults(&eco, faults),
        eco.runtime_for(&site),
        eco.partner_list(),
        eco.visit_rng(site.rank, 0),
        0,
    );
    // Bid traffic still proves HB…
    assert!(visit.record.hb_detected);
    // …but the total-latency endpoint (ad-server response) never arrives.
    assert_eq!(
        visit.record.hb_latency_ms, None,
        "latency needs the ad-server response"
    );
}

#[test]
fn ambient_fault_profile_keeps_campaign_sound() {
    // The default ecosystem already has ambient drops; crank them up and
    // ensure the campaign-level invariants still hold.
    let mut cfg = EcosystemConfig::tiny_scale();
    cfg.drop_chance = 0.05;
    cfg.slow_chance = 0.15;
    let eco = SiteFactory::new(cfg);
    let chunks = campaign(&eco, &CampaignConfig::default());
    let truth: std::collections::BTreeSet<_> = eco.hb_sites().map(|s| s.domain).collect();
    for c in &chunks {
        for v in c.visits.iter().filter(|v| v.hb_detected) {
            assert!(v.slots_auctioned <= 60);
            for b in v.bids {
                assert!(b.cpm >= 0.0);
                assert!(!c.strings.resolve(b.bidder_code).is_empty());
            }
        }
    }
    // Precision is preserved even under faults.
    for (domain, _) in rows(&chunks).filter(|(_, v)| v.hb_detected) {
        assert!(truth.contains(domain));
    }
}

// ---------------------------------------------------------------------------
// Degraded-network campaign scenarios
// ---------------------------------------------------------------------------

/// Figure bytes of a campaign: every paper report plus the fault-slice
/// family, rendered and CSV-dumped.
fn figure_bytes(eco: &SiteFactory, cfg: &CampaignConfig) -> String {
    let ix = index_campaign(eco, cfg);
    let mut out = String::new();
    for r in indexed_reports(&ix).iter().chain(fault_reports(&ix).iter()) {
        let _ = write!(out, "==== {} ====\n{}\n{}\n", r.id, r.render(), r.to_csv());
    }
    out
}

#[test]
fn degraded_link_shows_up_in_latency_columns() {
    // Wire a congested link to one partner through the scenario axis and
    // check the visit's latency columns reflect it: every observation of
    // that partner sits above the override, while the healthy build of
    // the same visit stays below it.
    let base = EcosystemConfig::tiny_scale();
    let eco_healthy = SiteFactory::new(base.clone());
    let site = eco_healthy
        .hb_sites()
        .find(|s| s.facet == Some(HbFacet::ClientSide) && s.client_partner_ids.len() >= 2)
        .expect("client-side site with several partners");
    let slow_pid = site.client_partner_ids[0];
    let slow_host = eco_healthy.specs()[slow_pid].host();
    let slow_name = eco_healthy.specs()[slow_pid].name;

    let degraded_ms = 2_000.0;
    let eco_slow = SiteFactory::new(base.with_scenario(
        ScenarioConfig::healthy().with_degraded_link(
            slow_host,
            hb_repro::simnet::LatencyModel::constant(degraded_ms),
        ),
    ));

    let samples_of = |eco: &SiteFactory| -> Vec<f64> {
        let visit = visit(
            eco.net(),
            eco.runtime_for(&site),
            eco.partner_list(),
            eco.visit_rng(site.rank, 0),
            0,
        );
        visit
            .record
            .partner_latencies
            .iter()
            .filter(|pl| visit.strings.resolve(pl.partner_name) == slow_name)
            .map(|pl| pl.latency_ms)
            .collect()
    };

    let healthy = samples_of(&eco_healthy);
    let slow = samples_of(&eco_slow);
    assert!(!slow.is_empty(), "degraded partner still answers");
    for s in &slow {
        assert!(*s >= degraded_ms, "degraded sample {s} below link override");
    }
    for s in &healthy {
        assert!(*s < degraded_ms, "healthy sample {s} at degraded level");
    }
}

#[test]
fn scenario_campaign_bytes_identical_across_parallelism_and_shards() {
    // The acceptance bar for the fault axes: with faults *enabled*, figure
    // bytes are a pure function of (seed, scenario) — parallelism 1 vs 8
    // and shards 1 vs 4 must agree byte for byte.
    let base = EcosystemConfig::tiny_scale().with_days(2);
    let cfg = base.clone().with_scenario(stressed_scenario(&base));
    let eco = SiteFactory::new(cfg);

    let p1 = figure_bytes(
        &eco,
        &CampaignConfig {
            parallelism: 1,
            ..CampaignConfig::default()
        },
    );
    let p8 = figure_bytes(
        &eco,
        &CampaignConfig {
            parallelism: 8,
            ..CampaignConfig::default()
        },
    );
    assert_eq!(p1, p8, "figure bytes differ between parallelism 1 and 8");

    let s4 = figure_bytes(
        &eco,
        &CampaignConfig {
            shards: 4,
            chunk_visits: 17, // odd block size to stress the fold order
            ..CampaignConfig::default()
        },
    );
    assert_eq!(p1, s4, "figure bytes differ between 1 and 4 shards");
}

#[test]
fn outage_window_confines_timeouts_to_scheduled_days() {
    // A partner is hard-down on day 1 only (of 2 crawl days). The fault
    // timeline must light up on the scheduled day and settle after it.
    let base = EcosystemConfig::tiny_scale().with_days(2);
    // Down the client partner most popular among this universe's HB sites,
    // so the outage actually intersects the daily revisit set.
    let probe = SiteFactory::new(base.clone());
    let mut uses = std::collections::HashMap::new();
    for s in probe.hb_sites() {
        for &pid in &s.client_partner_ids {
            *uses.entry(pid).or_insert(0usize) += 1;
        }
    }
    let (&popular, _) = uses.iter().max_by_key(|(_, n)| **n).expect("hb partners");
    let cfg = base.clone().with_scenario(
        ScenarioConfig::healthy()
            .with_outage(probe.specs()[popular].host(), 1, 1)
            .with_robustness(RobustnessPolicy::degraded_defaults()),
    );
    let eco = SiteFactory::new(cfg);
    let ix = index_campaign(&eco, &CampaignConfig::default());

    let timeouts_on = |day: u32| -> u32 {
        (0..ix.n_hb_visits())
            .filter(|&i| ix.v_day[i] == day)
            .map(|i| ix.v_timed_out[i])
            .sum()
    };
    let day1 = timeouts_on(1);
    let day2 = timeouts_on(2);
    assert!(day1 > 0, "outage day produced no timeouts");
    assert!(
        day1 > day2,
        "outage-day timeouts ({day1}) should exceed post-outage day ({day2})"
    );
    // The Z2 timeline agrees.
    let z2 = hb_repro::analysis::faults::z02_fault_timeline(&ix);
    assert_eq!(z2.metric("peak_timeout_day"), Some(1.0));
}

#[test]
fn total_demand_outage_completes_via_passback() {
    // Hard outage of *every* demand source a site has — all partners and
    // its ad server. With the degraded robustness posture the visit must
    // still complete (no hang, no panic) by serving house ads.
    let base = EcosystemConfig::tiny_scale();
    let probe = SiteFactory::new(base.clone());
    let site = probe
        .hb_sites()
        .find(|s| s.facet == Some(HbFacet::ClientSide))
        .expect("client-side site");

    let mut scenario =
        ScenarioConfig::healthy().with_robustness(RobustnessPolicy::degraded_defaults());
    for &pid in site
        .client_partner_ids
        .iter()
        .chain(site.waterfall_tier_ids.iter())
    {
        scenario = scenario.with_outage(probe.specs()[pid].host(), 0, base.crawl_days);
    }
    scenario = scenario.with_outage(site.own_ad_server_host(), 0, base.crawl_days);

    let eco = SiteFactory::new(base.with_scenario(scenario));
    let visit = visit(
        eco.net_for_day(0),
        eco.runtime_for(&site),
        eco.partner_list(),
        eco.visit_rng(site.rank, 0),
        0,
    );
    assert!(
        visit.page_completed,
        "visit must complete under total outage"
    );
    assert!(visit.truth.passback_served, "house ads fill the dead slots");
    assert!(
        !visit.truth.winners.is_empty(),
        "passback produced renderable winners"
    );
    assert_eq!(visit.truth.client_bids, 0, "no demand source could bid");
    assert!(visit.truth.timed_out_partners > 0);
}

//! Degraded-network campaign scenarios side by side: the same universe
//! crawled healthy, under ambient loss, and with a scheduled partner
//! outage, with the fault-slice figure family (Z1/Z2) rendered for each.
//!
//! Run with: `cargo run --release --example degraded_network`

use hb_repro::analysis::fault_reports;
use hb_repro::prelude::*;
use hb_repro::simnet::{Dist, HostFaultProfile, LatencyModel};

fn crawl(label: &str, cfg: EcosystemConfig) -> (String, DatasetIndex) {
    let factory = SiteFactory::new(cfg);
    (
        label.to_string(),
        index_campaign(&factory, &CampaignConfig::default()),
    )
}

fn main() {
    let base = EcosystemConfig::test_scale();
    let specs = hb_repro::ecosystem::catalog::catalog();

    // Three campaigns over the *same* (seed, toplist) universe; only the
    // scenario axes differ, so every delta below is caused by the faults.
    //
    // 1. Healthy: the paper's baseline. ScenarioConfig::healthy() is the
    //    default — figure bytes are identical to a scenario-free build.
    let healthy = base.clone();

    // 2. Ambient: two partner tiers run lossy/slow (drops and 900 ms
    //    stalls), a third sits behind a congested 1.2 s link, and the
    //    scenario's one posture switch turns on the ad path's degraded
    //    posture (partner, tier and s2s deadlines, one retry with
    //    backoff, passback when everyone fails).
    let ambient = base.clone().with_scenario(
        ScenarioConfig::healthy()
            .with_host_profile(
                specs[0].host(),
                HostFaultProfile {
                    drop_chance: 0.25,
                    slow_chance: 0.30,
                    slow_penalty_ms: Dist::Const(900.0),
                },
            )
            .with_host_profile(
                specs[3].host(),
                HostFaultProfile {
                    drop_chance: 0.10,
                    slow_chance: 0.15,
                    slow_penalty_ms: Dist::Const(400.0),
                },
            )
            .with_degraded_link(specs[2].host(), LatencyModel::constant(1_200.0))
            .with_degraded_posture(),
    );

    // 3. Outage: on top of the ambient faults, one partner goes hard
    //    down for a window of crawl days, under the same degraded
    //    posture — the Z2 timeline shows the timeout/passback step on
    //    exactly those days.
    let outage_days_to = base.crawl_days;
    let outage = base.clone().with_scenario(
        ScenarioConfig::healthy()
            .with_host_profile(
                specs[0].host(),
                HostFaultProfile {
                    drop_chance: 0.25,
                    slow_chance: 0.30,
                    slow_penalty_ms: Dist::Const(900.0),
                },
            )
            .with_outage(specs[1].host(), 1, outage_days_to)
            .with_degraded_posture(),
    );

    println!("crawling the same universe under three scenarios…\n");
    for (label, ix) in [
        crawl("healthy", healthy),
        crawl("ambient faults", ambient),
        crawl("scheduled outage", outage),
    ] {
        println!("================ scenario: {label} ================\n");
        for report in fault_reports(&ix) {
            print!("{}", report.render());
            println!();
        }
        let z1 = &fault_reports(&ix)[0];
        println!(
            "adoption {:.1}%, clean visits {:.0}, degraded {:.0}, outage-hit {:.0}\n",
            z1.metric("adoption_rate").unwrap_or(0.0) * 100.0,
            z1.metric("clean_visits").unwrap_or(0.0),
            z1.metric("degraded_visits").unwrap_or(0.0),
            z1.metric("outage_hit_visits").unwrap_or(0.0),
        );
    }
}

//! Latency study: regenerate the user-experience figures — the total HB
//! latency ECDF, latency vs rank / partner count / slot count, per-partner
//! whiskers, late-bid accounting, and the waterfall comparison.
//!
//! Run with: `cargo run --release --example latency_study`

use hb_repro::analysis::{late, latency, slots, waterfall_cmp};
use hb_repro::prelude::*;

fn main() {
    let factory = SiteFactory::new(EcosystemConfig::test_scale());
    println!(
        "crawling {} sites for latency analysis…",
        factory.config().n_sites
    );
    // Fold the campaign's chunk stream into the columnar index once;
    // every figure reads it.
    let ix = index_campaign(&factory, &CampaignConfig::default());
    for report in [
        latency::f12_latency_ecdf(&ix),
        latency::f13_latency_vs_rank(&ix),
        latency::f14_partner_latency(&ix),
        latency::f15_latency_vs_partners(&ix),
        latency::f16_latency_vs_popularity(&ix),
        late::f17_late_ecdf(&ix),
        late::f18_late_by_partner(&ix),
        slots::f20_latency_vs_slots(&ix),
        waterfall_cmp::x01_waterfall_compare(&ix),
    ] {
        print!("{}", report.render());
    }

    let f12 = latency::f12_latency_ecdf(&ix);
    let x1 = waterfall_cmp::x01_waterfall_compare(&ix);
    println!("\n=== headline numbers ===");
    println!(
        "median HB latency: {:.0} ms; {:.1}% of visits exceed 3 s",
        f12.metric("median_ms").unwrap(),
        f12.metric("frac_over_3s").unwrap() * 100.0
    );
    println!(
        "HB vs waterfall: {:.2}x at the median, {:.2}x at p90 (paper: up to 3x median)",
        x1.metric("median_ratio").unwrap(),
        x1.metric("p90_ratio").unwrap()
    );
}

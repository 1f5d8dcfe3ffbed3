//! Protocol head-to-head: run the *same* publisher through header bidding
//! and through the waterfall daisy chain, tracing both visits, then show
//! the population-level comparison.
//!
//! Run with: `cargo run --release --example waterfall_vs_hb`

use hb_repro::adtech::HbFacet;
use hb_repro::analysis::waterfall_cmp;
use hb_repro::core::Interner;
use hb_repro::prelude::*;

fn main() {
    let factory = SiteFactory::new(EcosystemConfig::test_scale());

    // Pick a client-side HB site and clone its runtime into a
    // waterfall-only variant: same page, same slots, same tiers.
    let site = factory
        .hb_sites()
        .find(|s| s.facet == Some(HbFacet::ClientSide) && s.client_partner_ids.len() >= 2)
        .expect("client-side site with fan-out");
    let hb_runtime = factory.runtime_for(&site);
    let mut wf_runtime = hb_runtime.clone();
    wf_runtime.facet = None; // force the waterfall path

    println!(
        "site {} (rank {}): {} client partners, {} slots\n",
        site.domain,
        site.rank,
        hb_runtime.client_partners.len(),
        hb_runtime.ad_units.len()
    );

    // Both visits go through the campaign's own visit path on one worker
    // scratch, appending into the same columns: row 0 is HB, row 1 is the
    // waterfall. The scratch holds the raw ground truth of its last
    // visit, so read the HB visit's before crawling the waterfall one.
    let mut scratch = VisitScratch::new(factory.partner_list());
    let mut strings = Interner::new();
    let mut cols = VisitColumns::new();
    let mut truths = Vec::new();
    let mut visit = |runtime| {
        crawl_site_into(
            factory.net(),
            std::sync::Arc::new(runtime),
            factory.visit_rng(site.rank, 0),
            0,
            &SessionConfig::default(),
            &mut strings,
            &mut scratch,
            &mut cols,
            &mut truths,
        )
    };
    visit(hb_runtime);
    visit(wf_runtime);
    let (hb, wf) = (cols.get(0).to_record(), cols.get(1).to_record());
    let wf_truth = scratch.truth().expect("visited");

    println!("header bidding visit:");
    println!(
        "  detected: {} / facet {:?}",
        hb.hb_detected,
        hb.facet.map(|f| f.label())
    );
    println!(
        "  HB latency {:.0} ms, {} bids ({} late), {} partners",
        hb.hb_latency_ms.unwrap_or(f64::NAN),
        hb.bids.len(),
        hb.late_bids(),
        hb.partner_count(),
    );
    println!("\nwaterfall visit (same page, same slots):");
    println!(
        "  detected as HB: {} (the detector must NOT flag waterfall)",
        wf.hb_detected
    );
    println!(
        "  fill latency {:.0} ms via tier {:?}",
        wf_truth
            .waterfall_latency
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN),
        wf_truth.waterfall_fill_tier
    );
    assert!(!wf.hb_detected);

    // Population-level comparison over a full campaign.
    println!("\nrunning the full campaign for the population comparison…");
    let ix = index_campaign(&factory, &CampaignConfig::default());
    print!("{}", waterfall_cmp::x01_waterfall_compare(&ix).render());
}

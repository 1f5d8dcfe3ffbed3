//! Quickstart: attach HBDetector to a single page visit and inspect what
//! it sees — events, requests, bids, facet, latency.
//!
//! Run with: `cargo run --example quickstart`

use hb_repro::core::Interner;
use hb_repro::prelude::*;

fn main() {
    // A tiny deterministic universe: 200 sites, 84 demand partners.
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    println!(
        "universe: {} sites, {} run header bidding, {} demand partners",
        factory.config().n_sites,
        factory.hb_sites().count(),
        factory.partner_list().len()
    );

    // Visit the highest-ranked HB site with the detector attached.
    let site = factory.hb_sites().next().expect("tiny universe has HB sites");
    println!(
        "\nvisiting {} (rank {}, ground-truth facet: {})",
        site.domain,
        site.rank,
        site.facet.unwrap()
    );
    // One visit through the campaign's own path: a worker scratch (pooled
    // browser + detector), a block-local interner, and columnar storage
    // the detector appends its finished row into.
    let mut scratch = VisitScratch::new(factory.partner_list());
    let mut strings = Interner::new();
    let mut cols = VisitColumns::new();
    let mut truths = Vec::new();
    crawl_site_into(
        factory.net(),
        factory.runtime_shared(site.rank),
        factory.visit_rng(site.rank, 0),
        0,
        &SessionConfig::default(),
        &mut strings,
        &mut scratch,
        &mut cols,
        &mut truths,
    );

    let r = &cols.get(0).to_record();
    let s = |sym| strings.resolve(sym);
    println!("\n=== HBDetector findings ===");
    println!("hb detected:      {}", r.hb_detected);
    println!(
        "facet:            {}",
        r.facet.map(|f| f.label()).unwrap_or("-")
    );
    println!(
        "partners:         {}",
        r.partners.iter().map(|p| s(*p)).collect::<Vec<_>>().join(", ")
    );
    println!("slots auctioned:  {}", r.slots_auctioned);
    println!(
        "total HB latency: {:.0} ms",
        r.hb_latency_ms.unwrap_or(f64::NAN)
    );
    println!(
        "bids:             {} ({} late)",
        r.bids.len(),
        r.late_bids()
    );
    for b in &r.bids {
        println!(
            "  - {} bid {:.4} CPM on {} ({}, {})",
            s(b.bidder_code),
            b.cpm,
            s(b.slot),
            s(b.size),
            if b.late { "LATE" } else { "in time" }
        );
    }
    println!("\nDOM events observed:");
    for (name, count) in &r.event_counts {
        println!("  {:>18} x{count}", s(*name));
    }
    println!("\nslot outcomes:");
    for slot in &r.slots {
        println!(
            "  {} ({}) <- {} @ {:.2} via {}",
            s(slot.slot),
            s(slot.size),
            if slot.winner.is_empty() { "-" } else { s(slot.winner) },
            slot.price,
            s(slot.channel)
        );
    }

    // The detector's verdict matches the simulation's ground truth.
    let truth = scratch.truth().expect("visited");
    assert_eq!(r.facet.map(|f| f.label()), truth.facet.map(|f| f.label()));
    println!("\ndetector facet matches ground truth: OK");
}

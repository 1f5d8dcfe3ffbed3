//! Ecosystem audit: run a reduced-scale campaign and print the market
//! structure figures — dataset summary (Table 1), adoption by rank band,
//! facet breakdown, top partners, partners per site, and combinations.
//!
//! Run with: `cargo run --release --example ecosystem_audit`

use hb_repro::analysis::{partners, summary};
use hb_repro::prelude::*;

fn main() {
    let factory = SiteFactory::new(EcosystemConfig::test_scale());
    println!(
        "generated universe: {} sites / {} partners; crawling {} days…",
        factory.config().n_sites,
        factory.partner_list().len(),
        factory.config().crawl_days
    );
    // Fold the campaign's chunk stream into the columnar index once;
    // every figure reads it.
    let ix = index_campaign(&factory, &CampaignConfig::default());
    println!(
        "campaign finished: {} HB visits, {} HB domains\n",
        ix.n_hb_visits(),
        ix.n_hb_sites()
    );
    for report in [
        summary::t1_summary(&ix),
        summary::adoption_bands(&ix),
        summary::facet_breakdown(&ix),
        partners::f08_top_partners(&ix),
        partners::f09_partners_per_site(&ix),
        partners::f10_combinations(&ix),
        partners::f11_bids_by_facet(&ix),
    ] {
        print!("{}", report.render());
    }

    // Headline checks against the paper's market-structure findings.
    let f8 = partners::f08_top_partners(&ix);
    println!(
        "\nDFP present on {:.1}% of HB sites (paper: >80%)",
        f8.metric("dfp_share").unwrap() * 100.0
    );
    let f9 = partners::f09_partners_per_site(&ix);
    println!(
        "{:.1}% of HB sites use a single Demand Partner (paper: >50%)",
        f9.metric("share_one_partner").unwrap() * 100.0
    );
}

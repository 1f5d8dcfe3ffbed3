//! Acceptance suite: the full generate → crawl → detect → analyze pipeline
//! must reproduce the paper's headline shapes at reduced scale.

mod common;

use common::{chunks, ecosystem, index, rows};
use hb_repro::analysis::{late, latency, partners, prices, slots, summary, waterfall_cmp};

#[test]
fn t1_dataset_proportions_match_paper() {
    let ix = index();
    let r = summary::t1_summary(ix);
    // Adoption ~14.28%.
    let hb = r.metric("websites_with_hb").unwrap();
    let crawled = r.metric("websites_crawled").unwrap();
    let adoption = hb / crawled;
    assert!(
        (adoption - 0.1428).abs() < 0.035,
        "adoption {adoption} vs paper 14.28%"
    );
    // Bids per auction ~0.30 for clean profiles (241,392 / 798,629).
    let ratio = r.metric("bids_per_auction").unwrap();
    assert!(
        ratio > 0.12 && ratio < 0.75,
        "bids/auction {ratio} vs paper 0.302"
    );
    // All 84 partners are *known*; a reduced crawl sees most of them.
    let partners = r.metric("partners").unwrap();
    assert!(partners > 40.0, "partners seen {partners}");
}

#[test]
fn adoption_rate_banded_by_rank() {
    let r = summary::adoption_bands(index());
    let head = r.metric("rate_head").unwrap();
    let mid = r.metric("rate_mid").unwrap();
    let tail = r.metric("rate_tail").unwrap();
    assert!(head > mid && mid > tail, "bands must decrease: {head} {mid} {tail}");
    assert!(head > 0.17 && head < 0.28, "head {head} vs paper 20-23%");
    assert!(tail > 0.07 && tail < 0.16, "tail {tail} vs paper 10-12%");
}

#[test]
fn facet_market_shares_match() {
    let r = summary::facet_breakdown(index());
    let server = r.metric("share_server").unwrap();
    let hybrid = r.metric("share_hybrid").unwrap();
    let client = r.metric("share_client").unwrap();
    // ~200 HB sites at test scale: ±8pp sampling tolerance (the paper-scale
    // run in EXPERIMENTS.md lands within ±1pp of 48/34.7/17.3).
    assert!((server - 0.48).abs() < 0.08, "server {server} vs 48%");
    assert!((hybrid - 0.347).abs() < 0.08, "hybrid {hybrid} vs 34.7%");
    assert!((client - 0.173).abs() < 0.08, "client {client} vs 17.3%");
    assert!(server > hybrid && hybrid > client, "ordering preserved");
}

#[test]
fn dfp_dominates_market() {
    let ix = index();
    let f8 = partners::f08_top_partners(ix);
    assert_eq!(f8.metric("top_is_dfp"), Some(1.0), "DFP is the #1 partner");
    let share = f8.metric("dfp_share").unwrap();
    assert!(share > 0.70 && share < 0.90, "DFP share {share} vs paper >80%");
    let f10 = partners::f10_combinations(ix);
    let alone = f10.metric("dfp_alone_share").unwrap();
    assert!((alone - 0.48).abs() < 0.08, "DFP-alone {alone} vs paper 48%");
    let groups = f10.metric("dfp_in_groups_share").unwrap();
    assert!(groups > 0.35, "DFP in {groups} of multi-partner groups vs paper 51%");
}

#[test]
fn partner_counts_follow_fig9() {
    let r = partners::f09_partners_per_site(index());
    let one = r.metric("share_one_partner").unwrap();
    assert!(one > 0.45 && one < 0.62, "single-partner share {one} vs >50%");
    let ge5 = r.metric("share_ge5").unwrap();
    assert!(ge5 > 0.10 && ge5 < 0.30, "5+ share {ge5} vs ~20%");
    let ge10 = r.metric("share_ge10").unwrap();
    assert!(ge10 > 0.01 && ge10 < 0.10, "10+ share {ge10} vs ~5%");
    assert!(r.metric("max_partners").unwrap() <= 20.0, "max 20 partners");
}

#[test]
fn latency_shapes_match_fig12_and_13() {
    let ix = index();
    let f12 = latency::f12_latency_ecdf(ix);
    let median = f12.metric("median_ms").unwrap();
    assert!(
        median > 280.0 && median < 800.0,
        "median {median} ms (paper's two anchors: 268 ms single-partner, 600 ms overall)"
    );
    let over3s = f12.metric("frac_over_3s").unwrap();
    assert!(over3s > 0.04 && over3s < 0.18, "frac>3s {over3s} vs paper ~10%");
    let f13 = latency::f13_latency_vs_rank(ix);
    assert!(
        f13.metric("head_to_rest_ratio").unwrap() < 1.0,
        "top-ranked sites are faster"
    );
}

#[test]
fn partner_latency_hierarchy_fig14_16() {
    let ix = index();
    let f14 = latency::f14_partner_latency(ix);
    let fast = f14.metric("fastest10_median_max_ms").unwrap();
    let top = f14.metric("top_market_median_avg_ms").unwrap();
    let slow = f14.metric("slowest10_median_min_ms").unwrap();
    // At test scale few niche partners clear the min-observation bar, so
    // the "fastest 10" bleed into the mid-field; the paper-scale run gets
    // 325 ms (EXPERIMENTS.md) against the paper's 41-217 ms band.
    assert!(fast < 400.0, "fastest partners {fast} ms (paper 41-217)");
    assert!(slow > 500.0, "slowest partners {slow} ms (paper 646-1290)");
    assert!(top > fast * 0.8 && top < slow, "top market in between: {top}");
    let f16 = latency::f16_latency_vs_popularity(ix);
    assert!(
        f16.metric("spread_growth").unwrap() > 1.2,
        "variability grows with unpopularity"
    );
}

#[test]
fn fan_out_increases_latency_fig15_20() {
    let ix = index();
    let f15 = latency::f15_latency_vs_partners(ix);
    let one = f15.metric("median_1_partner_ms").unwrap();
    let three = f15.metric("median_3_partners_ms").unwrap();
    assert!((one - 268.0).abs() < 120.0, "1-partner median {one} vs paper 268 ms");
    assert!(three > one * 1.3, "3 partners {three} vs 1 partner {one}");
    let share1 = f15.metric("share_1_partner").unwrap();
    assert!(share1 > 0.45, "single-partner sites are the majority: {share1}");
    let f20 = slots::f20_latency_vs_slots(ix);
    let m13 = f20.metric("median_1to3_ms").unwrap();
    let m35 = f20.metric("median_3to5_ms").unwrap();
    assert!(m35 > m13 * 0.9, "latency grows with slots: {m13} -> {m35}");
}

#[test]
fn late_bids_match_fig17_18() {
    let ix = index();
    let f17 = late::f17_late_ecdf(ix);
    let median = f17.metric("median_late_fraction").unwrap();
    assert!(
        median > 0.30,
        "median late fraction {median} (paper ~50% among auctions with late bids)"
    );
    assert!(f17.metric("share_ge80pct_late").unwrap() > 0.03);
    let f18 = late::f18_late_by_partner(ix);
    let ge50 = f18.metric("partners_ge50pct_late").unwrap();
    assert!(ge50 >= 8.0, "partners ≥50% late: {ge50} (paper: 21)");
    assert!(f18.metric("max_late_rate").unwrap() > 0.6);
}

#[test]
fn slots_and_sizes_match_fig19_21() {
    let ix = index();
    let f19 = slots::f19_slots_ecdf(ix);
    for facet in ["client-side", "server-side", "hybrid"] {
        let m = f19.metric(&format!("median_{facet}")).unwrap();
        assert!((2.0..=6.0).contains(&m), "{facet} slot median {m} (paper 2-6)");
    }
    let over20 = f19.metric("share_over_20").unwrap();
    assert!(over20 > 0.003 && over20 < 0.08, ">20 slots share {over20} vs ~3%");
    let f21 = slots::f21_sizes(ix);
    for facet in ["client-side", "server-side", "hybrid"] {
        assert_eq!(
            f21.metric(&format!("{facet}_top_is_300x250")),
            Some(1.0),
            "{facet} must be topped by 300x250"
        );
    }
}

#[test]
fn prices_match_fig22_24() {
    let ix = index();
    let f22 = prices::f22_price_ecdf(ix);
    let client = f22.metric("median_client-side").unwrap();
    let server = f22.metric("median_server-side").unwrap();
    assert!(client > server, "client prices dominate: {client} vs {server}");
    let over_half = f22.metric("share_over_half_all").unwrap();
    assert!(over_half > 0.05 && over_half < 0.45, "share>0.5CPM {over_half} vs >20%");
    let f23 = prices::f23_price_by_size(ix);
    let mid = f23.metric("median_300x250").unwrap();
    assert!(mid > 0.005 && mid < 0.15, "300x250 median {mid} vs paper 0.031");
    let f24 = prices::f24_price_by_popularity(ix);
    let top = f24.metric("top_bin_median").unwrap();
    let bottom = f24.metric("bottom_bin_median").unwrap();
    assert!(top < bottom, "popular partners bid lower: {top} vs {bottom}");
}

#[test]
fn waterfall_headline_claim() {
    let r = waterfall_cmp::x01_waterfall_compare(index());
    let median_ratio = r.metric("median_ratio").unwrap();
    assert!(
        median_ratio > 1.8 && median_ratio < 4.5,
        "HB/waterfall median ratio {median_ratio} vs paper 'up to 3x'"
    );
    let p90 = r.metric("p90_ratio").unwrap();
    assert!(p90 > median_ratio, "tail ratio exceeds median: {p90}");
}

#[test]
fn detector_precision_is_total() {
    // 100% precision (paper §4.1): every detected site truly runs HB.
    let eco = ecosystem();
    let truth: std::collections::BTreeSet<_> = eco.hb_sites().map(|s| s.domain).collect();
    for (domain, _) in rows(chunks()).filter(|(_, v)| v.hb_detected) {
        assert!(truth.contains(domain), "false positive: {domain}");
    }
}

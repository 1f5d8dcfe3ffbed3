//! Dataset summary (Table 1), adoption by rank band (§4.1), and the facet
//! breakdown (§4.6).
//!
//! All builders read the columnar [`DatasetIndex`].

use crate::index::DatasetIndex;
use crate::report::FigureReport;
use hb_stats::{fmt_pct, Align, Table};

/// Table 1: summary of collected data.
pub fn t1_summary(ix: &DatasetIndex) -> FigureReport {
    let n_hb_domains = ix.n_hb_sites();
    let auctions: u64 = ix.v_slots_auctioned.iter().map(|&s| s as u64).sum();
    let bids: u64 = ix.v_n_bids.iter().map(|&b| b as u64).sum();
    let partners = {
        // Insert one by one: collecting would size the set for every bid
        // row, not for the few distinct partners.
        let mut set = std::collections::HashSet::new();
        for p in ix
            .b_partner
            .iter()
            .chain(ix.sites.iter().flat_map(|s| &s.partners))
        {
            set.insert(*p);
        }
        set.len()
    };
    let weeks = (ix.n_days as f64 / 7.0).ceil();

    let mut table = Table::new("Table 1 — summary of collected data", &["data", "volume"])
        .with_aligns(&[Align::Left, Align::Right]);
    table.row(vec!["# of websites crawled".into(), ix.n_sites.to_string()]);
    table.row(vec!["# of websites with HB".into(), n_hb_domains.to_string()]);
    table.row(vec!["# of auctions detected".into(), auctions.to_string()]);
    table.row(vec!["# of bids detected".into(), bids.to_string()]);
    table.row(vec![
        "# of competing Demand Partners".into(),
        partners.to_string(),
    ]);
    table.row(vec!["# weeks of crawling".into(), format!("{weeks:.0}")]);

    FigureReport {
        id: "T1".into(),
        title: "Dataset summary".into(),
        paper_expectation:
            "35,000 crawled; 4,998 with HB; 798,629 auctions; 241,392 bids; 84 partners; 5 weeks"
                .into(),
        table,
        metrics: vec![
            ("websites_crawled".into(), ix.n_sites as f64),
            ("websites_with_hb".into(), n_hb_domains as f64),
            ("auctions".into(), auctions as f64),
            ("bids".into(), bids as f64),
            ("partners".into(), partners as f64),
            ("bids_per_auction".into(), bids as f64 / auctions.max(1) as f64),
        ],
        notes: vec![
            "auctions are counted per ad-slot, matching Table 1's auction/visit ratio".into(),
        ],
    }
}

/// §4.1: adoption by rank band and overall (paper: 20–23% top 5k,
/// 12–17% mid, 10–12% tail, 14.28% overall).
pub fn adoption_bands(ix: &DatasetIndex) -> FigureReport {
    let n = ix.n_sites.max(1);
    let top_band = n / 7;
    let mid_band = 3 * n / 7;
    let mut counts = [(0u32, 0u32); 3]; // (hb, total) per band
    for (row, &rank) in ix.d0_rank.iter().enumerate() {
        let band = if rank <= top_band.max(1) {
            0
        } else if rank <= mid_band.max(2) {
            1
        } else {
            2
        };
        counts[band].1 += 1;
        if ix.d0_hb[row] {
            counts[band].0 += 1;
        }
    }
    let rate = |i: usize| counts[i].0 as f64 / counts[i].1.max(1) as f64;
    let day0_total = ix.d0_rank.len();
    let day0_hb = ix.d0_hb.iter().filter(|&&hb| hb).count();
    let overall = day0_hb as f64 / day0_total.max(1) as f64;

    let mut table = Table::new("HB adoption by rank band", &["band", "sites", "hb", "rate"])
        .with_aligns(&[Align::Left, Align::Right, Align::Right, Align::Right]);
    let labels = ["head (top 1/7)", "middle (to 3/7)", "tail"];
    for i in 0..3 {
        table.row(vec![
            labels[i].into(),
            counts[i].1.to_string(),
            counts[i].0.to_string(),
            fmt_pct(rate(i)),
        ]);
    }
    table.row(vec![
        "overall".into(),
        day0_total.to_string(),
        day0_hb.to_string(),
        fmt_pct(overall),
    ]);

    FigureReport {
        id: "A1".into(),
        title: "Adoption by rank band (§4.1)".into(),
        paper_expectation: "20-23% head, 12-17% middle, 10-12% tail; 14.28% overall".into(),
        table,
        metrics: vec![
            ("rate_head".into(), rate(0)),
            ("rate_mid".into(), rate(1)),
            ("rate_tail".into(), rate(2)),
            ("rate_overall".into(), overall),
        ],
        notes: vec![],
    }
}

/// §4.6: facet breakdown (paper: server 48%, hybrid 34.7%, client 17.3%).
pub fn facet_breakdown(ix: &DatasetIndex) -> FigureReport {
    let mut counts = std::collections::BTreeMap::new();
    // Classify each HB *site* by its day-0 facet.
    for (row, &hb) in ix.d0_hb.iter().enumerate() {
        if !hb {
            continue;
        }
        if let Some(f) = ix.d0_facet[row] {
            *counts.entry(f.label()).or_insert(0u32) += 1;
        }
    }
    let total: u32 = counts.values().sum();
    let share = |label: &str| {
        counts.get(label).copied().unwrap_or(0) as f64 / total.max(1) as f64
    };

    let mut table = Table::new("Facet breakdown (§4.6)", &["facet", "sites", "share"])
        .with_aligns(&[Align::Left, Align::Right, Align::Right]);
    for label in ["server-side", "hybrid", "client-side"] {
        table.row(vec![
            label.into(),
            counts.get(label).copied().unwrap_or(0).to_string(),
            fmt_pct(share(label)),
        ]);
    }

    FigureReport {
        id: "A2".into(),
        title: "The three facets of HB (§4.6)".into(),
        paper_expectation: "server-side 48%, hybrid 34.7%, client-side 17.3%".into(),
        table,
        metrics: vec![
            ("share_server".into(), share("server-side")),
            ("share_hybrid".into(), share("hybrid")),
            ("share_client".into(), share("client-side")),
        ],
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_index;

    #[test]
    fn t1_counts_match_dataset() {
        let ix = small_index();
        let r = t1_summary(ix);
        // Recount straight from the chunks the index was folded from.
        let mut auctions = 0u64;
        let mut partners = std::collections::BTreeSet::new();
        for c in crate::test_fixtures::small_chunks() {
            for v in c.visits.iter().filter(|v| v.hb_detected) {
                auctions += v.slots_auctioned as u64;
                partners.extend(v.partners.iter().map(|p| c.strings.resolve(*p)));
                partners.extend(v.bids.iter().map(|b| c.strings.resolve(b.partner_name)));
            }
        }
        let n_sites = hb_ecosystem::EcosystemConfig::test_scale().n_sites;
        assert_eq!(r.metric("websites_crawled"), Some(n_sites as f64));
        assert_eq!(r.metric("auctions"), Some(auctions as f64));
        assert_eq!(r.metric("partners"), Some(partners.len() as f64));
        assert!(r.metric("bids_per_auction").unwrap() < 1.5);
        assert!(r.render().contains("Table 1"));
    }

    #[test]
    fn adoption_bands_are_rank_ordered() {
        let ix = small_index();
        let r = adoption_bands(ix);
        let head = r.metric("rate_head").unwrap();
        let tail = r.metric("rate_tail").unwrap();
        assert!(head > tail, "head {head} tail {tail}");
        let overall = r.metric("rate_overall").unwrap();
        assert!(overall > 0.08 && overall < 0.25, "overall {overall}");
    }

    #[test]
    fn facet_shares_sum_to_one() {
        let ix = small_index();
        let r = facet_breakdown(ix);
        let sum = r.metric("share_server").unwrap()
            + r.metric("share_hybrid").unwrap()
            + r.metric("share_client").unwrap();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(r.metric("share_server").unwrap() > r.metric("share_client").unwrap());
    }
}

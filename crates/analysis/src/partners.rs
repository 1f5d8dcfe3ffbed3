//! Demand partner analyses: popularity (Fig. 8), partners per site
//! (Fig. 9), combinations (Fig. 10), and bid share per facet (Fig. 11).
//!
//! All builders read the columnar [`DatasetIndex`]'s precomputed site
//! table (domain-sorted, partner sets name-sorted) instead of rebuilding
//! per-site partner unions from the visit rows.

use crate::index::DatasetIndex;
use crate::report::FigureReport;
use hb_stats::{fmt_pct, Align, Counter, Samples, Table};
use std::collections::BTreeMap;

/// Fig. 8: top Demand Partners by share of HB sites they appear on.
pub fn f08_top_partners(ix: &DatasetIndex) -> FigureReport {
    let n_sites = ix.n_hb_sites().max(1);
    let mut counter = Counter::new();
    for site in &ix.sites {
        for p in &site.partners {
            counter.add(ix.str(*p));
        }
    }
    let ranked = counter.ranked();
    let mut table = Table::new(
        "Fig. 8 — top Demand Partners (share of HB sites)",
        &["partner", "sites", "share"],
    )
    .with_aligns(&[Align::Left, Align::Right, Align::Right]);
    for (name, count) in ranked.iter().take(11) {
        table.row(vec![
            name.clone(),
            count.to_string(),
            fmt_pct(*count as f64 / n_sites as f64),
        ]);
    }
    // The paper's "Other" bucket: every partner outside the top 11.
    let other_sites = ix
        .sites
        .iter()
        .filter(|site| {
            site.partners
                .iter()
                .any(|p| !ranked.iter().take(11).any(|(n, _)| n == ix.str(*p)))
        })
        .count();
    table.row(vec![
        "Other".into(),
        other_sites.to_string(),
        fmt_pct(other_sites as f64 / n_sites as f64),
    ]);

    let dfp_share = counter.count("DFP") as f64 / n_sites as f64;
    let top_is_dfp = ranked.first().map(|(n, _)| n == "DFP").unwrap_or(false);
    FigureReport {
        id: "F8".into(),
        title: "Top Demand Partners in HB".into(),
        paper_expectation: "DFP on >80% of HB sites; other 73 partners cover 36%".into(),
        table,
        metrics: vec![
            ("dfp_share".into(), dfp_share),
            ("top_is_dfp".into(), if top_is_dfp { 1.0 } else { 0.0 }),
            ("distinct_partners".into(), counter.distinct() as f64),
            ("other_share".into(), other_sites as f64 / n_sites as f64),
        ],
        notes: vec![],
    }
}

/// Fig. 9: ECDF of Demand Partners per website.
pub fn f09_partners_per_site(ix: &DatasetIndex) -> FigureReport {
    let counts: Vec<f64> = ix.sites.iter().map(|s| s.partners.len() as f64).collect();
    let ecdf = Samples::from_iter(counts.iter().copied());
    let mut table = Table::new(
        "Fig. 9 — Demand Partners per HB site (ECDF)",
        &["partners", "P[X<=x]"],
    );
    for k in [1u32, 2, 3, 5, 10, 15, 20] {
        table.row(vec![
            k.to_string(),
            format!("{:.4}", ecdf.frac_at_or_below(k as f64)),
        ]);
    }
    let share_one =
        counts.iter().filter(|&&c| c == 1.0).count() as f64 / counts.len().max(1) as f64;
    let share_ge5 =
        counts.iter().filter(|&&c| c >= 5.0).count() as f64 / counts.len().max(1) as f64;
    let share_ge10 =
        counts.iter().filter(|&&c| c >= 10.0).count() as f64 / counts.len().max(1) as f64;
    FigureReport {
        id: "F9".into(),
        title: "Demand Partners per website".into(),
        paper_expectation: ">50% of sites use one partner; ~20% use 5+; ~5% use 10+; max ~20"
            .into(),
        table,
        metrics: vec![
            ("share_one_partner".into(), share_one),
            ("share_ge5".into(), share_ge5),
            ("share_ge10".into(), share_ge10),
            (
                "max_partners".into(),
                counts.iter().copied().fold(0.0, f64::max),
            ),
        ],
        notes: vec![],
    }
}

/// Fig. 10: most frequent Demand Partner combinations.
pub fn f10_combinations(ix: &DatasetIndex) -> FigureReport {
    let n_sites = ix.n_hb_sites().max(1);
    let mut combos = Counter::new();
    let mut combo = String::new();
    for site in &ix.sites {
        // Partner sets are already name-sorted in the index.
        combo.clear();
        for (i, p) in site.partners.iter().enumerate() {
            if i > 0 {
                combo.push_str(", ");
            }
            combo.push_str(ix.str(*p));
        }
        combos.add(combo.as_str());
    }
    let mut table = Table::new(
        "Fig. 10 — top Demand Partner combinations",
        &["combination", "sites", "share"],
    )
    .with_aligns(&[Align::Left, Align::Right, Align::Right]);
    for (combo, count) in combos.top(15) {
        table.row(vec![
            combo.clone(),
            count.to_string(),
            fmt_pct(count as f64 / n_sites as f64),
        ]);
    }
    let dfp_alone = combos.count("DFP") as f64 / n_sites as f64;
    // Share of multi-partner combinations that include DFP.
    let (mut with_dfp, mut multi) = (0u64, 0u64);
    for (combo, count) in combos.iter() {
        if combo.contains(", ") {
            multi += count;
            if combo.split(", ").any(|p| p == "DFP") {
                with_dfp += count;
            }
        }
    }
    FigureReport {
        id: "F10".into(),
        title: "Most frequent Demand Partner combinations".into(),
        paper_expectation: "DFP alone on 48% of sites; DFP inside 51% of competing groups".into(),
        table,
        metrics: vec![
            ("dfp_alone_share".into(), dfp_alone),
            (
                "dfp_in_groups_share".into(),
                with_dfp as f64 / multi.max(1) as f64,
            ),
            ("distinct_combinations".into(), combos.distinct() as f64),
        ],
        notes: vec![],
    }
}

/// Fig. 11: top partners by share of bids, per facet.
pub fn f11_bids_by_facet(ix: &DatasetIndex) -> FigureReport {
    let mut per_facet: BTreeMap<&str, Counter> = BTreeMap::new();
    for (row, bidder) in ix.b_bidder.iter().enumerate() {
        let Some(facet) = ix.v_facet[ix.b_visit[row] as usize] else {
            continue;
        };
        per_facet
            .entry(facet.label())
            .or_default()
            .add(ix.str(*bidder));
    }
    let mut table = Table::new(
        "Fig. 11 — top bidders by share of bids, per facet",
        &["facet", "bidder", "bids", "share"],
    )
    .with_aligns(&[Align::Left, Align::Left, Align::Right, Align::Right]);
    let mut metrics = Vec::new();
    for (facet, counter) in &per_facet {
        for (code, count) in counter.top(10) {
            table.row(vec![
                facet.to_string(),
                code.clone(),
                count.to_string(),
                fmt_pct(count as f64 / counter.total().max(1) as f64),
            ]);
        }
        if let Some((top_code, _)) = counter.top(2).first() {
            let is_big = matches!(top_code.as_str(), "rubicon" | "appnexus" | "ix");
            metrics.push((
                format!("{facet}_top_is_major_exchange"),
                if is_big { 1.0 } else { 0.0 },
            ));
        }
    }
    FigureReport {
        id: "F11".into(),
        title: "Top Demand Partners per HB facet (by bids)".into(),
        paper_expectation: "Rubicon and AppNexus lead every facet; Index follows".into(),
        table,
        metrics,
        notes: vec!["server/hybrid bid evidence comes from ad-server responses".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_index;

    #[test]
    fn f08_dfp_dominates() {
        let ix = small_index();
        let r = f08_top_partners(ix);
        assert_eq!(r.metric("top_is_dfp"), Some(1.0));
        let share = r.metric("dfp_share").unwrap();
        assert!(share > 0.65, "DFP share {share}");
        assert!(r.metric("distinct_partners").unwrap() > 10.0);
    }

    #[test]
    fn f09_partner_counts() {
        let ix = small_index();
        let r = f09_partners_per_site(ix);
        let one = r.metric("share_one_partner").unwrap();
        assert!(one > 0.35 && one < 0.70, "one-partner share {one}");
        assert!(r.metric("max_partners").unwrap() <= 20.0);
    }

    #[test]
    fn f10_dfp_alone_is_top_combo() {
        let ix = small_index();
        let r = f10_combinations(ix);
        let alone = r.metric("dfp_alone_share").unwrap();
        assert!(alone > 0.30, "DFP-alone share {alone}");
    }

    #[test]
    fn f11_major_exchanges_lead() {
        let ix = small_index();
        let r = f11_bids_by_facet(ix);
        // At least two of the three facets led by a major exchange.
        let led: f64 = r
            .metrics
            .iter()
            .filter(|(k, _)| k.ends_with("_top_is_major_exchange"))
            .map(|(_, v)| v)
            .sum();
        assert!(led >= 2.0, "facets led by majors: {led}");
    }
}

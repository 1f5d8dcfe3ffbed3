//! Latency analyses: total HB latency ECDF (Fig. 12), latency vs rank
//! (Fig. 13), fastest/top/slowest partners (Fig. 14), latency vs number of
//! partners (Fig. 15), latency variability vs partner popularity (Fig. 16).
//!
//! All builders read the columnar [`DatasetIndex`] (build once, read
//! many) instead of re-scanning the row-oriented visit records.

use crate::index::DatasetIndex;
use crate::report::FigureReport;
use hb_stats::{fmt_ms, fmt_pct, Align, GroupedSamples, Samples, SortedGroups, Table, Whisker};
use std::collections::BTreeMap;

/// Fig. 12: ECDF of total HB latency per website.
pub fn f12_latency_ecdf(ix: &DatasetIndex) -> FigureReport {
    // One sorted copy of the measured latencies (unmeasured `NaN`s are
    // dropped); its ECDF value at `x` is `frac_at_or_below(x)`.
    let s = Samples::from_vec(ix.v_latency.clone());
    let mut table = Table::new(
        "Fig. 12 — total HB latency per website (ECDF)",
        &["latency", "P[X<=x]"],
    );
    for ms in [
        100.0, 250.0, 400.0, 600.0, 1_000.0, 2_000.0, 3_000.0, 5_000.0, 10_000.0,
    ] {
        table.row(vec![fmt_ms(ms), format!("{:.4}", s.frac_at_or_below(ms))]);
    }
    let median = s.median().unwrap_or(0.0);
    let over_1s = s.frac_above(1_000.0);
    let over_3s = s.frac_above(3_000.0);
    let over_5s = s.frac_above(5_000.0);
    FigureReport {
        id: "F12".into(),
        title: "Total HB latency".into(),
        paper_expectation: "median ≈600 ms; ~35% above 1 s; ~10% above 3 s; ~4% above 5 s".into(),
        table,
        metrics: vec![
            ("median_ms".into(), median),
            ("frac_over_1s".into(), over_1s),
            ("frac_over_3s".into(), over_3s),
            ("frac_over_5s".into(), over_5s),
            ("n".into(), s.len() as f64),
        ],
        notes: vec![],
    }
}

/// Fig. 13: latency vs site rank, in rank bins scaled like the paper's
/// bins of 500 (universe/70).
pub fn f13_latency_vs_rank(ix: &DatasetIndex) -> FigureReport {
    let bin_width = (ix.n_sites as u64 / 70).max(1);
    let binned = SortedGroups::new(
        ix.v_rank
            .iter()
            .zip(&ix.v_latency)
            .map(|(&rank, &lat)| ((rank as u64 - 1) / bin_width, lat)),
    );
    let mut table = Table::new(
        "Fig. 13 — HB latency vs site rank",
        &["rank bin", "n", "p25", "median", "p75"],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (bin, w) in binned.whiskers().iter().take(10) {
        table.row(vec![
            format!("{}-{}", bin * bin_width + 1, (bin + 1) * bin_width),
            w.n.to_string(),
            fmt_ms(w.p25),
            fmt_ms(w.p50),
            fmt_ms(w.p75),
        ]);
    }
    let head_median = binned.get(0).and_then(Samples::median).unwrap_or(0.0);
    // Ranks above the first bin are exactly bins 1 and up.
    let rest_median = binned.pooled(1..).median().unwrap_or(0.0);
    FigureReport {
        id: "F13".into(),
        title: "HB latency vs domain popularity".into(),
        paper_expectation: "top-500 median ≈310 ms vs ≈500 ms for the rest".into(),
        table,
        metrics: vec![
            ("head_median_ms".into(), head_median),
            ("rest_median_ms".into(), rest_median),
            (
                "head_to_rest_ratio".into(),
                head_median / rest_median.max(1e-9),
            ),
        ],
        notes: vec![],
    }
}

/// Fig. 14: fastest, top-market and slowest partners (whiskers).
pub fn f14_partner_latency(ix: &DatasetIndex) -> FigureReport {
    let min_obs = 8;
    let mut whiskers: Vec<(&str, Whisker)> = ix
        .partner_latency
        .iter()
        .filter(|(_, v)| v.len() >= min_obs)
        .filter_map(|(p, v)| Whisker::from_iter(v.iter().copied()).map(|w| (ix.str(*p), w)))
        .collect();
    whiskers.sort_by(|a, b| a.1.p50.partial_cmp(&b.1.p50).unwrap());

    let mut table = Table::new(
        "Fig. 14 — partner latency: fastest / top market / slowest",
        &["group", "partner", "p5", "p25", "median", "p75", "p95"],
    )
    .with_aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let push_rows = |table: &mut Table, group: &str, items: &[(&str, Whisker)]| {
        for (p, w) in items {
            table.row(vec![
                group.into(),
                p.to_string(),
                fmt_ms(w.p5),
                fmt_ms(w.p25),
                fmt_ms(w.p50),
                fmt_ms(w.p75),
                fmt_ms(w.p95),
            ]);
        }
    };
    let fastest: Vec<_> = whiskers.iter().take(10).cloned().collect();
    let slowest: Vec<_> = whiskers.iter().rev().take(10).cloned().collect();
    let top_names = [
        "DFP", "AppNexus", "Rubicon", "Criteo", "Index", "Amazon", "Openx", "Pubmatic", "AOL",
        "Sovrn", "Smart",
    ];
    let top: Vec<(&str, Whisker)> = top_names
        .iter()
        .filter_map(|n| whiskers.iter().find(|(p, _)| p == n).cloned())
        .collect();
    push_rows(&mut table, "fastest", &fastest);
    push_rows(&mut table, "top-market", &top);
    push_rows(&mut table, "slowest", &slowest);

    let fastest_median_max = fastest.last().map(|(_, w)| w.p50).unwrap_or(0.0);
    let slowest_median_min = slowest.last().map(|(_, w)| w.p50).unwrap_or(0.0);
    let top_medians: Vec<f64> = top.iter().map(|(_, w)| w.p50).collect();
    let top_median_avg = top_medians.iter().sum::<f64>() / top_medians.len().max(1) as f64;
    FigureReport {
        id: "F14".into(),
        title: "Fastest/top/slowest Demand Partners".into(),
        paper_expectation:
            "fastest medians 41–217 ms; slowest 646–1290 ms; top partners quick but not fastest"
                .into(),
        table,
        metrics: vec![
            ("fastest10_median_max_ms".into(), fastest_median_max),
            ("slowest10_median_min_ms".into(), slowest_median_min),
            ("top_market_median_avg_ms".into(), top_median_avg),
        ],
        notes: vec![],
    }
}

/// Fig. 15: latency and share of sites vs number of partners.
pub fn f15_latency_vs_partners(ix: &DatasetIndex) -> FigureReport {
    // Partner count per site (union over visits), latency per visit.
    let with_partners = || ix.sites.iter().filter(|site| !site.partners.is_empty());
    let grouped = SortedGroups::new(with_partners().flat_map(|site| {
        let k = site.partners.len() as u64;
        site.latencies.iter().map(move |&lat| (k, lat))
    }));
    let mut site_counts = GroupedSamples::new();
    for site in with_partners() {
        site_counts.add(site.partners.len() as u64, 0.0);
    }
    let shares: BTreeMap<u64, f64> = site_counts.shares().into_iter().collect();
    let mut table = Table::new(
        "Fig. 15 — HB latency vs number of Demand Partners",
        &["partners", "% sites", "n", "p25", "median", "p75"],
    )
    .with_aligns(&[
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (k, w) in grouped.whiskers().iter().filter(|(k, _)| *k <= 15) {
        table.row(vec![
            k.to_string(),
            fmt_pct(shares.get(k).copied().unwrap_or(0.0)),
            w.n.to_string(),
            fmt_ms(w.p25),
            fmt_ms(w.p50),
            fmt_ms(w.p75),
        ]);
    }
    let med = |k: u64| grouped.get(k).and_then(Samples::median).unwrap_or(0.0);
    FigureReport {
        id: "F15".into(),
        title: "Latency vs number of Demand Partners".into(),
        paper_expectation: "1 partner ≈0.27 s; 2 partners ≈1.1 s; >2 partners 1.3–3.0 s".into(),
        table,
        metrics: vec![
            ("median_1_partner_ms".into(), med(1)),
            ("median_2_partners_ms".into(), med(2)),
            ("median_3_partners_ms".into(), med(3)),
            ("median_5_partners_ms".into(), med(5)),
            (
                "share_1_partner".into(),
                shares.get(&1).copied().unwrap_or(0.0),
            ),
        ],
        notes: vec![],
    }
}

/// Fig. 16: latency distribution vs partner popularity rank (bins of 10).
pub fn f16_latency_vs_popularity(ix: &DatasetIndex) -> FigureReport {
    let mut table = Table::new(
        "Fig. 16 — latency vs partner popularity rank (bins of 10)",
        &[
            "popularity bin",
            "n",
            "p25",
            "median",
            "p75",
            "spread(p75-p25)",
        ],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut spreads = Vec::new();
    // One popularity bin at a time, concatenated at exact capacity and
    // sorted in place.
    for (bin, partners) in ix.partner_popularity.chunks(10).enumerate() {
        let runs: Vec<&[f64]> = partners
            .iter()
            .filter_map(|(name, _)| ix.latency_samples_of(*name))
            .collect();
        let Some(w) = Whisker::from_samples(&Samples::from_vec(runs.concat())) else {
            continue;
        };
        let bin = bin as u64;
        table.row(vec![
            format!("{}-{}", bin * 10 + 1, (bin + 1) * 10),
            w.n.to_string(),
            fmt_ms(w.p25),
            fmt_ms(w.p50),
            fmt_ms(w.p75),
            fmt_ms(w.box_spread()),
        ]);
        spreads.push(w.box_spread());
    }
    let first_spread = spreads.first().copied().unwrap_or(0.0);
    let last_spread = spreads.last().copied().unwrap_or(0.0);
    FigureReport {
        id: "F16".into(),
        title: "Latency variability vs partner popularity".into(),
        paper_expectation:
            "popular partners vary within ~200 ms; unpopular ones spread 500–1000 ms".into(),
        table,
        metrics: vec![
            ("top_bin_spread_ms".into(), first_spread),
            ("bottom_bin_spread_ms".into(), last_spread),
            ("spread_growth".into(), last_spread / first_spread.max(1e-9)),
        ],
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_index;

    #[test]
    fn f12_median_in_paper_ballpark() {
        let ix = small_index();
        let r = f12_latency_ecdf(ix);
        let median = r.metric("median_ms").unwrap();
        assert!(median > 250.0 && median < 1_100.0, "median {median}");
        let over3 = r.metric("frac_over_3s").unwrap();
        assert!(over3 < 0.30, "frac>3s {over3}");
        assert!(r.metric("n").unwrap() > 100.0);
    }

    #[test]
    fn f13_head_is_faster() {
        let ix = small_index();
        let r = f13_latency_vs_rank(ix);
        let ratio = r.metric("head_to_rest_ratio").unwrap();
        assert!(ratio < 1.05, "head should not be slower: ratio {ratio}");
    }

    #[test]
    fn f14_slowest_exceed_fastest() {
        let ix = small_index();
        let r = f14_partner_latency(ix);
        let fast = r.metric("fastest10_median_max_ms").unwrap();
        let slow = r.metric("slowest10_median_min_ms").unwrap();
        assert!(slow > fast, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn f15_latency_grows_with_partners() {
        let ix = small_index();
        let r = f15_latency_vs_partners(ix);
        let one = r.metric("median_1_partner_ms").unwrap();
        let three = r.metric("median_3_partners_ms").unwrap();
        assert!(one > 0.0);
        if three > 0.0 {
            assert!(three > one, "3 partners {three} vs 1 partner {one}");
        }
    }

    #[test]
    fn f16_spread_grows_with_unpopularity() {
        let ix = small_index();
        let r = f16_latency_vs_popularity(ix);
        let growth = r.metric("spread_growth").unwrap();
        assert!(growth > 1.0, "spread growth {growth}");
    }
}

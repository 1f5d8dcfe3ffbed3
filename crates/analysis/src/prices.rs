//! Bid-price analyses: price ECDF per facet (Fig. 22), price per ad size
//! (Fig. 23), price vs partner popularity (Fig. 24).
//!
//! All builders read the columnar [`DatasetIndex`] bid columns and its
//! precomputed partner popularity ranking.

use crate::index::DatasetIndex;
use crate::report::FigureReport;
use hb_adtech::AdSize;
use hb_core::Symbol;
use hb_stats::{fmt_f, Align, Samples, SortedGroups, Table, Whisker};
use std::collections::HashMap;

/// All positive bid prices (CPM) per facet label.
fn prices_by_facet(ix: &DatasetIndex) -> SortedGroups<&'static str> {
    SortedGroups::new(
        ix.b_cpm
            .iter()
            .zip(&ix.b_visit)
            .filter(|(&cpm, _)| cpm > 0.0)
            .filter_map(|(&cpm, &visit)| Some((ix.v_facet[visit as usize]?.label(), cpm))),
    )
}

/// Fig. 22: ECDF of bid prices per facet.
pub fn f22_price_ecdf(ix: &DatasetIndex) -> FigureReport {
    let by_facet = prices_by_facet(ix);
    let mut table = Table::new(
        "Fig. 22 — bid prices per facet (CPM)",
        &["facet", "n", "p25", "median", "p75", "share > 0.5"],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut metrics = Vec::new();
    for (facet, s) in by_facet.iter() {
        table.row(vec![
            facet.to_string(),
            s.len().to_string(),
            fmt_f(s.quantile(0.25).unwrap_or(0.0)),
            fmt_f(s.median().unwrap_or(0.0)),
            fmt_f(s.quantile(0.75).unwrap_or(0.0)),
            hb_stats::fmt_pct(1.0 - s.frac_at_or_below(0.5)),
        ]);
        metrics.push((format!("median_{facet}"), s.median().unwrap_or(0.0)));
        metrics.push((
            format!("share_over_half_{facet}"),
            1.0 - s.frac_at_or_below(0.5),
        ));
    }
    // Pooled share over 0.5 CPM (paper: >20%), counted across the facets
    // with `frac_at_or_below`'s arithmetic so it equals the pooled
    // sample's value bit for bit.
    let n: usize = by_facet.iter().map(|(_, s)| s.len()).sum();
    let n_above: usize = by_facet.iter().map(|(_, s)| s.count_above(0.5)).sum();
    let pooled_frac_above = if n == 0 {
        0.0
    } else {
        n_above as f64 / n as f64
    };
    let pooled_at_or_below = 1.0 - pooled_frac_above;
    metrics.push(("share_over_half_all".into(), 1.0 - pooled_at_or_below));
    FigureReport {
        id: "F22".into(),
        title: "Bid prices per HB facet".into(),
        paper_expectation:
            "client-side draws the highest prices; >20% of bids above 0.5 CPM; baseline-user prices low"
                .into(),
        table,
        metrics,
        notes: vec!["prices are for clean-profile (baseline) users".into()],
    }
}

/// Fig. 23: bid prices per ad-slot size (x-axis sorted by area).
pub fn f23_price_by_size(ix: &DatasetIndex) -> FigureReport {
    // Group on cheap symbols, then order by resolved size name to match
    // the original BTreeMap<String, _> iteration.
    let by_size = SortedGroups::new(
        ix.b_cpm
            .iter()
            .zip(&ix.b_size)
            .filter(|(&cpm, size)| cpm > 0.0 && !size.is_empty())
            .map(|(&cpm, &size)| (size, cpm)),
    );
    let mut sized: Vec<(&str, &Samples)> = by_size
        .iter()
        .map(|(sym, prices)| (ix.str(sym), prices))
        .collect();
    sized.sort_unstable_by(|a, b| a.0.cmp(b.0));

    let min_obs = 5;
    let mut rows: Vec<(&str, u64, Whisker)> = sized
        .iter()
        .filter(|(_, v)| v.len() >= min_obs)
        .filter_map(|(size, prices)| {
            let area = AdSize::parse(size).map(|s| s.area()).unwrap_or(0);
            Whisker::from_samples(prices).map(|w| (*size, area, w))
        })
        .collect();
    rows.sort_by_key(|(_, area, _)| *area);

    let mut table = Table::new(
        "Fig. 23 — bid prices per ad size (sorted by area)",
        &["size", "n", "p25", "median", "p75"],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (size, _, w) in &rows {
        table.row(vec![
            size.to_string(),
            w.n.to_string(),
            fmt_f(w.p25),
            fmt_f(w.p50),
            fmt_f(w.p75),
        ]);
    }
    let median_of = |size: &str| {
        rows.iter()
            .find(|(s, _, _)| *s == size)
            .map(|(_, _, w)| w.p50)
            .unwrap_or(0.0)
    };
    FigureReport {
        id: "F23".into(),
        title: "Bid prices per ad-slot size".into(),
        paper_expectation:
            "medians span ~0.001–0.1 CPM; 120x600 dearest; 300x50 cheapest; 300x250 ≈0.03".into(),
        table,
        metrics: vec![
            ("median_300x250".into(), median_of("300x250")),
            ("median_120x600".into(), median_of("120x600")),
            ("median_300x50".into(), median_of("300x50")),
            ("median_320x50".into(), median_of("320x50")),
            ("sizes_measured".into(), rows.len() as f64),
        ],
        notes: vec![],
    }
}

/// Fig. 24: bid prices vs partner popularity rank (bins of 10).
pub fn f24_price_by_popularity(ix: &DatasetIndex) -> FigureReport {
    let rank_of: HashMap<Symbol, usize> = ix
        .partner_popularity
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (*n, i))
        .collect();
    let grouped = SortedGroups::new(
        ix.b_cpm
            .iter()
            .zip(&ix.b_partner)
            .filter(|(&cpm, _)| cpm > 0.0)
            .filter_map(|(&cpm, partner)| Some((*rank_of.get(partner)? as u64 / 10, cpm))),
    );
    let mut table = Table::new(
        "Fig. 24 — bid prices vs partner popularity (bins of 10)",
        &["popularity bin", "n", "p25", "median", "p75", "spread"],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut medians = Vec::new();
    let mut spreads = Vec::new();
    for (bin, w) in grouped.whiskers() {
        table.row(vec![
            format!("{}-{}", bin * 10 + 1, (bin + 1) * 10),
            w.n.to_string(),
            fmt_f(w.p25),
            fmt_f(w.p50),
            fmt_f(w.p75),
            fmt_f(w.box_spread()),
        ]);
        medians.push(w.p50);
        spreads.push(w.box_spread());
    }
    FigureReport {
        id: "F24".into(),
        title: "Bid prices vs Demand Partner popularity".into(),
        paper_expectation: "popular partners bid lower and more consistently".into(),
        table,
        metrics: vec![
            ("top_bin_median".into(), medians.first().copied().unwrap_or(0.0)),
            (
                "bottom_bin_median".into(),
                medians.last().copied().unwrap_or(0.0),
            ),
            ("top_bin_spread".into(), spreads.first().copied().unwrap_or(0.0)),
            (
                "bottom_bin_spread".into(),
                spreads.last().copied().unwrap_or(0.0),
            ),
        ],
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_index;

    #[test]
    fn f22_client_side_prices_highest() {
        let ix = small_index();
        let r = f22_price_ecdf(ix);
        let client = r.metric("median_client-side").unwrap_or(0.0);
        let server = r.metric("median_server-side").unwrap_or(0.0);
        assert!(client > 0.0 && server > 0.0);
        assert!(
            client > server,
            "client {client} should exceed server {server}"
        );
    }

    #[test]
    fn f23_size_ordering() {
        let ix = small_index();
        let r = f23_price_by_size(ix);
        let mid = r.metric("median_300x250").unwrap();
        assert!(mid > 0.0);
        // The full-scale ordering (300x250 > 320x50 > 300x50) is asserted
        // against the paper-scale run in EXPERIMENTS.md; at test scale the
        // thin sizes carry few samples, so only a loose sanity bound holds.
        let mobile = r.metric("median_320x50").unwrap_or(0.0);
        if mobile > 0.0 {
            assert!(mid > mobile * 0.3, "300x250 {mid} vs 320x50 {mobile}");
        }
        assert!(r.metric("sizes_measured").unwrap() >= 4.0);
    }

    #[test]
    fn f24_popular_bid_lower() {
        let ix = small_index();
        let r = f24_price_by_popularity(ix);
        let top = r.metric("top_bin_median").unwrap();
        let bottom = r.metric("bottom_bin_median").unwrap();
        if bottom > 0.0 {
            assert!(top < bottom * 1.5, "top {top} vs bottom {bottom}");
        }
    }
}

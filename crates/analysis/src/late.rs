//! Late-bid analyses: the late-fraction ECDF (Fig. 17) and per-partner
//! late rates (Fig. 18).
//!
//! Fig. 17 reads the columnar [`DatasetIndex`] visit columns; Fig. 18 reads
//! its fold-time per-partner late counts.

use crate::index::DatasetIndex;
use crate::report::FigureReport;
use hb_stats::{fmt_pct, Align, Samples, Table};

/// Fig. 17: ECDF of the fraction of bids that arrived late, over auctions
/// that had at least one late bid.
pub fn f17_late_ecdf(ix: &DatasetIndex) -> FigureReport {
    let n_late = ix.v_n_late.iter().filter(|&&late| late > 0).count();
    let mut fractions = Vec::with_capacity(n_late);
    let mut late_counts = Vec::with_capacity(n_late);
    for (row, &late) in ix.v_n_late.iter().enumerate() {
        if late > 0 {
            fractions.push(late as f64 / ix.v_n_bids[row] as f64);
            late_counts.push(late as f64);
        }
    }
    // ECDF values are `frac_at_or_below`; the inverse is the quantile.
    let fractions = Samples::from_vec(fractions);
    let late_counts = Samples::from_vec(late_counts);
    let mut table = Table::new(
        "Fig. 17 — late bids / total bids per auction (ECDF, auctions with late bids)",
        &["late fraction", "P[X<=x]"],
    );
    for x in [0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 1.0] {
        table.row(vec![
            fmt_pct(x),
            format!("{:.4}", fractions.frac_at_or_below(x)),
        ]);
    }
    let median_fraction = fractions.median().unwrap_or(0.0);
    let frac_ge80 = 1.0 - fractions.frac_at_or_below(0.7999);
    let share_one = late_counts.frac_at_or_below(1.0);
    let share_ge2 = 1.0 - share_one;
    let share_ge4 = 1.0 - late_counts.frac_at_or_below(3.999);
    FigureReport {
        id: "F17".into(),
        title: "Portion of late bids per auction".into(),
        paper_expectation:
            "median late fraction ≈50%; 10% of auctions have ≥80% late; 60% have one late bid, 40% ≥2, 20% ≥4"
                .into(),
        table,
        metrics: vec![
            ("median_late_fraction".into(), median_fraction),
            ("share_ge80pct_late".into(), frac_ge80),
            ("share_one_late".into(), share_one),
            ("share_ge2_late".into(), share_ge2),
            ("share_ge4_late".into(), share_ge4),
            ("auctions_with_late".into(), n_late as f64),
        ],
        notes: vec![],
    }
}

/// Fig. 18: percentage of late bids per Demand Partner.
pub fn f18_late_by_partner(ix: &DatasetIndex) -> FigureReport {
    // Use request-level latency observations (they exist for no-bid
    // responses too, matching the paper's "bids sent" framing), counted
    // per partner at fold time.
    let min_obs = 5;
    let mut rates: Vec<(&str, f64, u32)> = ix
        .partner_late
        .iter()
        .filter(|(_, _, total)| *total >= min_obs)
        .map(|&(p, late, total)| (ix.str(p), late as f64 / total as f64, total))
        .collect();
    rates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap()
            .then_with(|| a.0.cmp(b.0))
    });

    let mut table = Table::new(
        "Fig. 18 — % of late bids per Demand Partner (top 25)",
        &["partner", "late rate", "responses"],
    )
    .with_aligns(&[Align::Left, Align::Right, Align::Right]);
    for (p, rate, total) in rates.iter().take(25) {
        table.row(vec![p.to_string(), fmt_pct(*rate), total.to_string()]);
    }
    let partners_ge50 = rates.iter().filter(|(_, r, _)| *r >= 0.5).count();
    let max_rate = rates.first().map(|(_, r, _)| *r).unwrap_or(0.0);
    FigureReport {
        id: "F18".into(),
        title: "Late bids per Demand Partner".into(),
        paper_expectation: "21 partners late in ≥50% of their auctions; some lose ~100%".into(),
        table,
        metrics: vec![
            ("partners_ge50pct_late".into(), partners_ge50 as f64),
            ("max_late_rate".into(), max_rate),
            ("partners_measured".into(), rates.len() as f64),
        ],
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_index;

    #[test]
    fn f17_fractions_are_valid() {
        let ix = small_index();
        let r = f17_late_ecdf(ix);
        let median = r.metric("median_late_fraction").unwrap();
        assert!((0.0..=1.0).contains(&median));
        assert!(r.metric("auctions_with_late").unwrap() > 0.0);
        let one = r.metric("share_one_late").unwrap();
        let ge2 = r.metric("share_ge2_late").unwrap();
        assert!((one + ge2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn f17_misconfigured_sites_drive_high_fractions() {
        let ix = small_index();
        let r = f17_late_ecdf(ix);
        // Misconfigured wrappers lose all their bids, so the upper tail
        // must be populated.
        let ge80 = r.metric("share_ge80pct_late").unwrap();
        assert!(ge80 > 0.02, "share of >=80%-late auctions: {ge80}");
    }

    #[test]
    fn f18_late_prone_partners_surface() {
        let ix = small_index();
        let r = f18_late_by_partner(ix);
        assert!(r.metric("partners_measured").unwrap() > 5.0);
        assert!(
            r.metric("max_late_rate").unwrap() > 0.4,
            "max late rate {:?}",
            r.metric("max_late_rate")
        );
    }
}

//! Historical adoption (Figure 4) and the toplist-overlap sanity table
//! (§3.2), built from the Wayback crawl results.

use crate::report::FigureReport;
use hb_crawler::{AdoptionPoint, OverlapPoint};
use hb_stats::{fmt_pct, Align, Table};

/// Fig. 4: HB adoption of the yearly top-1k lists, by static analysis.
pub fn f04_adoption(points: &[AdoptionPoint]) -> FigureReport {
    let mut table = Table::new(
        "Fig. 4 — HB adoption per year (top-1k, static analysis)",
        &["year", "pages", "detected", "ground truth"],
    )
    .with_aligns(&[Align::Left, Align::Right, Align::Right, Align::Right]);
    for p in points {
        table.row(vec![
            p.year.to_string(),
            p.n_pages.to_string(),
            fmt_pct(p.detected_rate),
            fmt_pct(p.true_rate),
        ]);
    }
    let first = points.first().map(|p| p.detected_rate).unwrap_or(0.0);
    let last = points.last().map(|p| p.detected_rate).unwrap_or(0.0);
    // Plateau after the 2016 breakthrough: 2017-2019 spread.
    let post: Vec<f64> = points
        .iter()
        .filter(|p| p.year >= 2017)
        .map(|p| p.detected_rate)
        .collect();
    let plateau_spread =
        post.iter().cloned().fold(0.0f64, f64::max) - post.iter().cloned().fold(1.0f64, f64::min);
    FigureReport {
        id: "F4".into(),
        title: "HB adoption 2014-2019".into(),
        paper_expectation: "~10% early adopters (2014); steady ~20% after the 2016 breakthrough"
            .into(),
        table,
        metrics: vec![
            ("rate_2014".into(), first),
            ("rate_2019".into(), last),
            ("plateau_spread".into(), plateau_spread),
        ],
        notes: vec!["historical pages cannot be rendered; static analysis per §4.1".into()],
    }
}

/// §3.2: overlap of the purchased base list with yearly lists.
pub fn f04b_overlaps(points: &[OverlapPoint]) -> FigureReport {
    let mut table = Table::new(
        "§3.2 — toplist overlap vs purchased 01/2017 list",
        &["snapshot", "overlap"],
    )
    .with_aligns(&[Align::Left, Align::Right]);
    for p in points {
        table.row(vec![p.label.clone(), fmt_pct(p.overlap)]);
    }
    let decreasing = points
        .windows(2)
        .all(|w| w[1].overlap <= w[0].overlap + 1e-9);
    FigureReport {
        id: "F4b".into(),
        title: "Toplist overlap across years".into(),
        paper_expectation: "78.36% (2017-06), 62.10% (2018-06), 58.36% (2019-02), 55.34% (2019-06)"
            .into(),
        table,
        metrics: vec![
            (
                "overlap_first".into(),
                points.first().map(|p| p.overlap).unwrap_or(0.0),
            ),
            (
                "overlap_last".into(),
                points.last().map(|p| p.overlap).unwrap_or(0.0),
            ),
            (
                "monotone_decreasing".into(),
                if decreasing { 1.0 } else { 0.0 },
            ),
        ],
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_crawler::{adoption_study, overlap_study};

    #[test]
    fn f04_shape() {
        let pts = adoption_study(11, 1_000);
        let r = f04_adoption(&pts);
        let r14 = r.metric("rate_2014").unwrap();
        let r19 = r.metric("rate_2019").unwrap();
        assert!(r19 > r14, "2019 {r19} vs 2014 {r14}");
        assert!(r.metric("plateau_spread").unwrap() < 0.06);
        assert!(r.render().contains("2016"));
    }

    #[test]
    fn f04b_overlaps_decrease() {
        let pts = overlap_study(11, 2_000);
        let r = f04b_overlaps(&pts);
        assert_eq!(r.metric("monotone_decreasing"), Some(1.0));
        assert!((r.metric("overlap_first").unwrap() - 0.7836).abs() < 0.02);
        assert!((r.metric("overlap_last").unwrap() - 0.5534).abs() < 0.02);
    }
}

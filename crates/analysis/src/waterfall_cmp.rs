//! The headline waterfall-vs-HB latency comparison (abstract / §1: "HB
//! latency can be significantly higher — up to 3x in the median case, and
//! up to 15x in 10% of cases — than waterfall").
//!
//! The detector deliberately does not capture waterfall activity (paper
//! §3.1 limitations), so the baseline side comes from the harness's
//! ground-truth records of waterfall sites crawled in the day-0 sweep.

use crate::index::DatasetIndex;
use crate::report::FigureReport;
use hb_stats::{fmt_f, fmt_ms, Align, Samples, Table};

/// X1: HB vs waterfall latency quantile comparison. Reads the index's
/// ground-truth latency columns (`t_*`), so it works for streamed indexes
/// that never materialized the row dataset.
pub fn x01_waterfall_compare(ix: &DatasetIndex) -> FigureReport {
    let hb_s = Samples::from_iter(ix.t_hb_latency.iter().copied());
    let wf_s = Samples::from_iter(ix.t_wf_latency.iter().copied());

    let mut table = Table::new(
        "X1 — HB vs waterfall latency",
        &["quantile", "HB", "waterfall", "ratio"],
    )
    .with_aligns(&[Align::Left, Align::Right, Align::Right, Align::Right]);
    let mut ratios = Vec::new();
    for (label, q) in [
        ("p25", 0.25),
        ("median", 0.5),
        ("p75", 0.75),
        ("p90", 0.9),
        ("p95", 0.95),
    ] {
        let h = hb_s.quantile(q).unwrap_or(0.0);
        let w = wf_s.quantile(q).unwrap_or(0.0);
        let ratio = h / w.max(1e-9);
        table.row(vec![label.into(), fmt_ms(h), fmt_ms(w), fmt_f(ratio)]);
        ratios.push((label, ratio));
    }
    let median_ratio = ratios
        .iter()
        .find(|(l, _)| *l == "median")
        .map(|(_, r)| *r)
        .unwrap_or(0.0);
    let p90_ratio = ratios
        .iter()
        .find(|(l, _)| *l == "p90")
        .map(|(_, r)| *r)
        .unwrap_or(0.0);
    FigureReport {
        id: "X1".into(),
        title: "HB latency vs waterfall baseline".into(),
        paper_expectation: "HB up to 3x waterfall at the median; up to 15x for 10% of cases".into(),
        table,
        metrics: vec![
            ("median_ratio".into(), median_ratio),
            ("p90_ratio".into(), p90_ratio),
            ("hb_median_ms".into(), hb_s.median().unwrap_or(0.0)),
            ("wf_median_ms".into(), wf_s.median().unwrap_or(0.0)),
            ("n_hb".into(), hb_s.len() as f64),
            ("n_wf".into(), wf_s.len() as f64),
        ],
        notes: vec![
            "waterfall baseline measured by the harness (ground truth); the detector does not capture waterfall (paper §3.1)".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_index;

    #[test]
    fn hb_slower_than_waterfall_at_median() {
        let r = x01_waterfall_compare(small_index());
        let ratio = r.metric("median_ratio").unwrap();
        assert!(ratio > 1.2, "HB/waterfall median ratio {ratio}");
        assert!(ratio < 8.0, "ratio blew past plausibility: {ratio}");
        assert!(r.metric("n_hb").unwrap() > 50.0);
        assert!(r.metric("n_wf").unwrap() > 50.0);
    }

    #[test]
    fn tail_ratio_exceeds_median_ratio() {
        let r = x01_waterfall_compare(small_index());
        let med = r.metric("median_ratio").unwrap();
        let p90 = r.metric("p90_ratio").unwrap();
        assert!(p90 > med, "p90 {p90} should exceed median {med}");
    }
}

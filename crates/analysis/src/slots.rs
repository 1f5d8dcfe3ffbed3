//! Ad-slot analyses: slots per site per facet (Fig. 19), latency vs slot
//! count (Fig. 20), size popularity per facet (Fig. 21).
//!
//! All builders read the columnar [`DatasetIndex`] visit columns; Fig. 21
//! also reads its fold-time slot-size counts and the bid columns.

use crate::index::DatasetIndex;
use crate::report::FigureReport;
use hb_stats::{fmt_ms, fmt_pct, Align, Counter, Samples, SortedGroups, Table};
use std::collections::BTreeMap;

/// Fig. 19: ECDF of auctioned ad-slots per website, per facet.
pub fn f19_slots_ecdf(ix: &DatasetIndex) -> FigureReport {
    let mut per_facet: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (row, &day) in ix.v_day.iter().enumerate() {
        if day != 0 {
            continue;
        }
        if let Some(f) = ix.v_facet[row] {
            per_facet
                .entry(f.label())
                .or_default()
                .push(ix.v_slots_auctioned[row] as f64);
        }
    }
    let mut table = Table::new(
        "Fig. 19 — auctioned ad-slots per site, per facet",
        &["facet", "n", "median", "p90", "share > 20"],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut metrics = Vec::new();
    let mut all_counts = Vec::new();
    for (facet, counts) in &per_facet {
        let s = Samples::from_iter(counts.iter().copied());
        let median = s.median().unwrap_or(0.0);
        let p90 = s.quantile(0.9).unwrap_or(0.0);
        let over20 = s.frac_above(20.0);
        table.row(vec![
            facet.to_string(),
            s.len().to_string(),
            format!("{median:.0}"),
            format!("{p90:.0}"),
            fmt_pct(over20),
        ]);
        metrics.push((format!("median_{facet}"), median));
        metrics.push((format!("p90_{facet}"), p90));
        all_counts.extend(counts.iter().copied());
    }
    let all = Samples::from_iter(all_counts);
    metrics.push(("share_over_20".into(), all.frac_above(20.0)));
    FigureReport {
        id: "F19".into(),
        title: "Auctioned ad-slots per website per facet".into(),
        paper_expectation: "medians 2–6; p90 5–11; ~3% of sites auction >20 slots".into(),
        table,
        metrics,
        notes: vec![">20-slot sites duplicate units per device class (§5.3 oddity)".into()],
    }
}

/// Fig. 20: latency vs number of auctioned slots.
pub fn f20_latency_vs_slots(ix: &DatasetIndex) -> FigureReport {
    let grouped = SortedGroups::new(
        ix.v_slots_auctioned
            .iter()
            .zip(&ix.v_latency)
            .filter(|(&slots, _)| slots >= 1)
            .map(|(&slots, &lat)| (slots.min(15) as u64, lat)),
    );
    let mut table = Table::new(
        "Fig. 20 — HB latency vs auctioned ad-slots",
        &["slots", "n", "p25", "median", "p75"],
    )
    .with_aligns(&[
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (k, w) in grouped.whiskers() {
        table.row(vec![
            k.to_string(),
            w.n.to_string(),
            fmt_ms(w.p25),
            fmt_ms(w.p50),
            fmt_ms(w.p75),
        ]);
    }
    let med = |k: u64| grouped.get(k).and_then(Samples::median).unwrap_or(0.0);
    let med13 = grouped.pooled(1..=3).median().unwrap_or(0.0);
    let med35 = grouped.pooled(3..=5).median().unwrap_or(0.0);
    FigureReport {
        id: "F20".into(),
        title: "Latency vs number of auctioned ad-slots".into(),
        paper_expectation: "1–3 slots → 0.30–0.57 s median; 3–5 slots → 0.57–0.92 s".into(),
        table,
        metrics: vec![
            ("median_1to3_ms".into(), med13),
            ("median_3to5_ms".into(), med35),
            ("median_1_ms".into(), med(1)),
            ("median_5_ms".into(), med(5)),
        ],
        notes: vec![],
    }
}

/// Fig. 21: most popular ad sizes per facet.
pub fn f21_sizes(ix: &DatasetIndex) -> FigureReport {
    let mut per_facet: BTreeMap<&str, Counter> = BTreeMap::new();
    // Slot decisions carry the authoritative sizes (counted at fold
    // time); bids add more.
    for &(f, size, n) in &ix.slot_sizes {
        if !size.is_empty() {
            per_facet
                .entry(f.label())
                .or_default()
                .add_n(ix.str(size), n);
        }
    }
    for (row, size) in ix.b_size.iter().enumerate() {
        let Some(f) = ix.v_facet[ix.b_visit[row] as usize] else {
            continue;
        };
        if !size.is_empty() {
            per_facet.entry(f.label()).or_default().add(ix.str(*size));
        }
    }
    let mut table = Table::new(
        "Fig. 21 — ad-slot size popularity per facet (top 10)",
        &["facet", "size", "count", "share"],
    )
    .with_aligns(&[Align::Left, Align::Left, Align::Right, Align::Right]);
    let mut metrics = Vec::new();
    for (facet, counter) in &per_facet {
        for (size, count) in counter.top(10) {
            table.row(vec![
                facet.to_string(),
                size.clone(),
                count.to_string(),
                fmt_pct(count as f64 / counter.total().max(1) as f64),
            ]);
        }
        let top = counter.top(2);
        metrics.push((
            format!("{facet}_top_is_300x250"),
            if top.first().map(|(s, _)| s == "300x250").unwrap_or(false) {
                1.0
            } else {
                0.0
            },
        ));
        metrics.push((format!("{facet}_300x250_share"), counter.share("300x250")));
    }
    FigureReport {
        id: "F21".into(),
        title: "Portion of ads per HB ad size, per facet".into(),
        paper_expectation: "300x250 tops every facet; 728x90 and 300x600 follow".into(),
        table,
        metrics,
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_index;

    #[test]
    fn f19_medians_in_range() {
        let ix = small_index();
        let r = f19_slots_ecdf(ix);
        for facet in ["client-side", "server-side", "hybrid"] {
            if let Some(m) = r.metric(&format!("median_{facet}")) {
                assert!((1.0..=8.0).contains(&m), "{facet} median {m}");
            }
        }
    }

    #[test]
    fn f20_latency_grows_with_slots() {
        let ix = small_index();
        let r = f20_latency_vs_slots(ix);
        let m13 = r.metric("median_1to3_ms").unwrap();
        let m35 = r.metric("median_3to5_ms").unwrap();
        assert!(m13 > 0.0 && m35 > 0.0);
        assert!(m35 >= m13 * 0.8, "1-3: {m13}, 3-5: {m35}");
    }

    #[test]
    fn f21_medium_rect_dominates() {
        let ix = small_index();
        let r = f21_sizes(ix);
        let dominant: f64 = r
            .metrics
            .iter()
            .filter(|(k, _)| k.ends_with("_top_is_300x250"))
            .map(|(_, v)| *v)
            .sum();
        assert!(dominant >= 2.0, "facets topped by 300x250: {dominant}");
    }
}

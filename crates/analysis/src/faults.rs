//! Fault-slice figures: how the campaign's auctions behave under the
//! degraded-network scenario axes.
//!
//! Visits are sliced by the fault exposure their ground truth recorded:
//!
//! * **clean** — no drops, no retries, no timeouts (the healthy baseline
//!   inside any campaign);
//! * **degraded** — ambient faults touched the visit (a dropped or
//!   retried request) but every demand source ultimately resolved;
//! * **outage-hit** — at least one demand source was given up on
//!   (deadline/retry exhaustion) or the wrapper fell back to house ads.
//!
//! The builders live outside [`indexed_reports`](crate::registry::indexed_reports)
//! — fault figures describe scenario campaigns, not the paper's tables,
//! so the paper registry keeps its exact report set. The degraded-network
//! example runs one campaign per scenario and renders these side by side.

use crate::index::DatasetIndex;
use crate::report::FigureReport;
use hb_stats::{fmt_f, fmt_ms, fmt_pct, Align, Samples, Table};

/// The three fault-exposure slices of a campaign's HB visits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSlice {
    /// No drops, retries or timeouts touched the visit.
    Clean,
    /// Ambient faults touched it, but every demand source resolved.
    Degraded,
    /// A demand source was abandoned, or passback filled the slots.
    OutageHit,
}

impl FaultSlice {
    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            FaultSlice::Clean => "clean",
            FaultSlice::Degraded => "degraded",
            FaultSlice::OutageHit => "outage-hit",
        }
    }

    /// Classify HB-visit row `i` of the index.
    pub fn of(ix: &DatasetIndex, i: usize) -> FaultSlice {
        if ix.v_timed_out[i] > 0 || ix.v_passback[i] {
            FaultSlice::OutageHit
        } else if ix.v_bids_dropped[i] > 0 || ix.v_retries[i] > 0 {
            FaultSlice::Degraded
        } else {
            FaultSlice::Clean
        }
    }

    /// All slices, table order.
    pub const ALL: [FaultSlice; 3] = [
        FaultSlice::Clean,
        FaultSlice::Degraded,
        FaultSlice::OutageHit,
    ];
}

/// Z1: per-slice auction health — visit share, p50/p95 HB latency,
/// late-bid rate, mean bid CPM and passback rate for each fault slice.
pub fn z01_fault_slices(ix: &DatasetIndex) -> FigureReport {
    let n = ix.n_hb_visits();
    let slice_of: Vec<FaultSlice> = (0..n).map(|i| FaultSlice::of(ix, i)).collect();

    let mut table = Table::new(
        "Z1 — auction health by fault slice",
        &[
            "slice",
            "visits",
            "share",
            "p50 lat",
            "p95 lat",
            "late rate",
            "mean CPM",
            "passback",
        ],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);

    let mut metrics = Vec::new();
    for slice in FaultSlice::ALL {
        let rows: Vec<usize> = (0..n).filter(|&i| slice_of[i] == slice).collect();
        let visits = rows.len();
        let lat = Samples::from_iter(
            rows.iter()
                .map(|&i| ix.v_latency[i])
                .filter(|l| l.is_finite()),
        );
        let bids: u32 = rows.iter().map(|&i| ix.v_n_bids[i]).sum();
        let late: u32 = rows.iter().map(|&i| ix.v_n_late[i]).sum();
        let late_rate = late as f64 / (bids + late).max(1) as f64;
        // Mean CPM over the slice's bids via the bid->visit join.
        let (mut cpm_sum, mut cpm_n) = (0.0, 0u32);
        for (bi, &vrow) in ix.b_visit.iter().enumerate() {
            if slice_of[vrow as usize] == slice {
                cpm_sum += ix.b_cpm[bi];
                cpm_n += 1;
            }
        }
        let mean_cpm = cpm_sum / cpm_n.max(1) as f64;
        let passbacks = rows.iter().filter(|&&i| ix.v_passback[i]).count();
        let p50 = lat.quantile(0.5).unwrap_or(0.0);
        let p95 = lat.quantile(0.95).unwrap_or(0.0);
        table.row(vec![
            slice.label().into(),
            visits.to_string(),
            fmt_pct(visits as f64 / n.max(1) as f64),
            fmt_ms(p50),
            fmt_ms(p95),
            fmt_pct(late_rate),
            fmt_f(mean_cpm),
            fmt_pct(passbacks as f64 / visits.max(1) as f64),
        ]);
        let key = slice.label().replace('-', "_");
        metrics.push((format!("{key}_visits"), visits as f64));
        metrics.push((format!("{key}_p50_ms"), p50));
        metrics.push((format!("{key}_p95_ms"), p95));
        metrics.push((format!("{key}_late_rate"), late_rate));
        metrics.push((format!("{key}_mean_cpm"), mean_cpm));
    }
    let detected = ix.d0_hb.iter().filter(|&&d| d).count();
    metrics.push((
        "adoption_rate".into(),
        detected as f64 / ix.d0_hb.len().max(1) as f64,
    ));

    FigureReport {
        id: "Z1".into(),
        title: "Auction health by fault slice".into(),
        paper_expectation:
            "robustness extension (not in the paper): degraded/outage slices pay higher \
             latency and lose bids; clean-slice metrics match the healthy campaign"
                .into(),
        table,
        metrics,
        notes: vec!["slices classify each HB visit by its ground-truth fault counters".into()],
    }
}

/// Z2: fault timeline — per-day drop/retry/timeout/passback counters,
/// which makes scheduled outage windows visible as steps in the series.
pub fn z02_fault_timeline(ix: &DatasetIndex) -> FigureReport {
    let n_days = ix.n_days as usize + 1;
    let mut visits = vec![0u32; n_days];
    let mut drops = vec![0u32; n_days];
    let mut retries = vec![0u32; n_days];
    let mut timeouts = vec![0u32; n_days];
    let mut passbacks = vec![0u32; n_days];
    for i in 0..ix.n_hb_visits() {
        let d = ix.v_day[i] as usize;
        if d >= n_days {
            continue;
        }
        visits[d] += 1;
        drops[d] += ix.v_bids_dropped[i];
        retries[d] += ix.v_retries[i];
        timeouts[d] += ix.v_timed_out[i];
        passbacks[d] += u32::from(ix.v_passback[i]);
    }

    let mut table = Table::new(
        "Z2 — fault timeline by crawl day",
        &["day", "visits", "drops", "retries", "timeouts", "passbacks"],
    )
    .with_aligns(&[
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for d in 0..n_days {
        table.row(vec![
            d.to_string(),
            visits[d].to_string(),
            drops[d].to_string(),
            retries[d].to_string(),
            timeouts[d].to_string(),
            passbacks[d].to_string(),
        ]);
    }
    let total_drops: u32 = drops.iter().sum();
    let total_retries: u32 = retries.iter().sum();
    let total_timeouts: u32 = timeouts.iter().sum();
    let total_passbacks: u32 = passbacks.iter().sum();
    let peak_timeout_day = (0..n_days).max_by_key(|&d| timeouts[d]).unwrap_or(0);

    FigureReport {
        id: "Z2".into(),
        title: "Fault timeline by crawl day".into(),
        paper_expectation:
            "robustness extension (not in the paper): scheduled outage windows appear \
             as timeout/passback steps on the affected days only"
                .into(),
        table,
        metrics: vec![
            ("total_drops".into(), total_drops as f64),
            ("total_retries".into(), total_retries as f64),
            ("total_timeouts".into(), total_timeouts as f64),
            ("total_passbacks".into(), total_passbacks as f64),
            ("peak_timeout_day".into(), peak_timeout_day as f64),
        ],
        notes: vec!["day 0 is the adoption sweep".into()],
    }
}

/// Build the fault-slice report family. Deliberately separate from
/// [`indexed_reports`](crate::registry::indexed_reports): these describe
/// scenario campaigns, not the paper's figure set.
pub fn fault_reports(ix: &DatasetIndex) -> Vec<FigureReport> {
    vec![z01_fault_slices(ix), z02_fault_timeline(ix)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_index;

    #[test]
    fn slices_partition_all_hb_visits() {
        let ix = small_index();
        let r = z01_fault_slices(ix);
        let total: f64 = FaultSlice::ALL
            .iter()
            .map(|s| {
                let key = s.label().replace('-', "_");
                r.metric(&format!("{key}_visits")).unwrap()
            })
            .sum();
        assert_eq!(total as usize, ix.n_hb_visits());
        assert!(r.metric("adoption_rate").unwrap() > 0.0);
    }

    #[test]
    fn timeline_totals_match_columns() {
        let ix = small_index();
        let r = z02_fault_timeline(ix);
        let drops: u32 = ix.v_bids_dropped.iter().sum();
        let retries: u32 = ix.v_retries.iter().sum();
        assert_eq!(r.metric("total_drops").unwrap() as u32, drops);
        assert_eq!(r.metric("total_retries").unwrap() as u32, retries);
        assert!(!r.render().is_empty());
        assert!(!r.to_csv().is_empty());
    }

    #[test]
    fn fault_family_has_stable_ids() {
        let ix = small_index();
        let reports = fault_reports(ix);
        let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["Z1", "Z2"]);
    }
}

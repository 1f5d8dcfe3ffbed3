//! The experiment registry: every table/figure builder in one place.

use crate::index::DatasetIndex;
use crate::report::FigureReport;
use hb_crawler::{AdoptionPoint, OverlapPoint};

/// Build every dataset-driven report (T1 + A1/A2 + F8..F24 + X1) from a
/// prebuilt index (build once, read many).
pub fn indexed_reports(ix: &DatasetIndex) -> Vec<FigureReport> {
    vec![
        crate::summary::t1_summary(ix),
        crate::summary::adoption_bands(ix),
        crate::summary::facet_breakdown(ix),
        crate::partners::f08_top_partners(ix),
        crate::partners::f09_partners_per_site(ix),
        crate::partners::f10_combinations(ix),
        crate::partners::f11_bids_by_facet(ix),
        crate::latency::f12_latency_ecdf(ix),
        crate::latency::f13_latency_vs_rank(ix),
        crate::latency::f14_partner_latency(ix),
        crate::latency::f15_latency_vs_partners(ix),
        crate::latency::f16_latency_vs_popularity(ix),
        crate::late::f17_late_ecdf(ix),
        crate::late::f18_late_by_partner(ix),
        crate::slots::f19_slots_ecdf(ix),
        crate::slots::f20_latency_vs_slots(ix),
        crate::slots::f21_sizes(ix),
        crate::prices::f22_price_ecdf(ix),
        crate::prices::f23_price_by_size(ix),
        crate::prices::f24_price_by_popularity(ix),
        crate::waterfall_cmp::x01_waterfall_compare(ix),
    ]
}

/// Build the historical reports (F4 + F4b) from the Wayback study outputs.
pub fn history_reports(adoption: &[AdoptionPoint], overlaps: &[OverlapPoint]) -> Vec<FigureReport> {
    vec![
        crate::adoption::f04_adoption(adoption),
        crate::adoption::f04b_overlaps(overlaps),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_index;
    use hb_crawler::{adoption_study, overlap_study};

    /// xxh64 of the F4 and F4b CSVs over the full-size Wayback study
    /// (1,000 sites a year, a 5,000-site overlap list) for a few seeds.
    #[test]
    fn history_csvs_are_pinned() {
        let got: Vec<(u64, [u64; 2])> = [1u64, 7, 42]
            .into_iter()
            .map(|s| {
                let reports = history_reports(&adoption_study(s, 1_000), &overlap_study(s, 5_000));
                let csv: Vec<u64> = reports
                    .iter()
                    .map(|r| hb_core::xxh64(r.to_csv().as_bytes()))
                    .collect();
                (s, [csv[0], csv[1]])
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (1, [0x5944_5D64_48DC_D6F7, 0xBC80_249F_FD15_F4D9]),
                (7, [0x59F8_B1B4_A631_3CB2, 0xBC80_249F_FD15_F4D9]),
                (42, [0x203F_DB70_B9D2_C9F7, 0xBC80_249F_FD15_F4D9]),
            ],
            "F4/F4b CSV bytes moved"
        );
    }

    #[test]
    fn registry_builds_all_reports_with_unique_ids() {
        let adoption = adoption_study(1, 500);
        let overlaps = overlap_study(1, 500);
        let mut reports = history_reports(&adoption, &overlaps);
        reports.extend(indexed_reports(small_index()));
        assert_eq!(reports.len(), 23);
        let mut ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 23, "duplicate report id");
        for r in &reports {
            assert!(!r.render().is_empty());
            assert!(!r.to_csv().is_empty());
        }
    }
}

//! The historical adoption crawl (Figure 4).
//!
//! For each year 2014–2019, build that year's top-1k list (churned from
//! the base list), generate the archived snapshots, and run the detector's
//! *static analysis* over them — exactly the paper's methodology for pages
//! that cannot be rendered live.

use hb_core::{analyze_html, LibrarySignatures};
use hb_ecosystem::{toplist::TopList, wayback, YEARLY_ADOPTION};
use hb_simnet::Rng;

/// One year's adoption measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct AdoptionPoint {
    /// Snapshot year.
    pub year: u32,
    /// Fraction of the year's top list statically flagged as HB.
    pub detected_rate: f64,
    /// Ground-truth adoption rate of the generated archive.
    pub true_rate: f64,
    /// Pages scanned.
    pub n_pages: usize,
}

/// Overlap of a churned yearly list with the purchased base list.
#[derive(Clone, Debug, PartialEq)]
pub struct OverlapPoint {
    /// Snapshot label.
    pub label: String,
    /// Measured overlap fraction.
    pub overlap: f64,
}

/// Run the six-year adoption study over `top_k` sites per year.
pub fn adoption_study(seed: u64, top_k: u32) -> Vec<AdoptionPoint> {
    let sigs = LibrarySignatures::default();
    let base = TopList::base(top_k);
    let mut rng = Rng::new(seed).derive_str("wayback");
    YEARLY_ADOPTION
        .iter()
        .map(|&(year, adoption)| {
            // Each year uses a churned variant of the top list (rank
            // churn across years).
            let churn = 1.0 - 0.06 * (2019 - year) as f64;
            let list = base.churned(&format!("{year}"), churn.clamp(0.5, 1.0), &mut rng);
            let snaps = wayback::yearly_archive(&list, year, adoption, &mut rng);
            let detected = snaps
                .iter()
                .filter(|s| analyze_html(&sigs, &s.html).hb_suspected)
                .count();
            let truly = snaps.iter().filter(|s| s.has_hb).count();
            AdoptionPoint {
                year,
                detected_rate: detected as f64 / snaps.len() as f64,
                true_rate: truly as f64 / snaps.len() as f64,
                n_pages: snaps.len(),
            }
        })
        .collect()
}

/// Reproduce the §3.2 toplist overlap measurements.
pub fn overlap_study(seed: u64, n: u32) -> Vec<OverlapPoint> {
    let base = TopList::base(n);
    let mut rng = Rng::new(seed).derive_str("overlaps");
    hb_ecosystem::YEARLY_OVERLAPS
        .iter()
        .map(|&(label, target)| {
            let snap = base.churned(label, target, &mut rng);
            OverlapPoint {
                label: label.to_string(),
                overlap: base.overlap_with(&snap),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adoption_series_has_fig4_shape() {
        let pts = adoption_study(42, 1_000);
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0].year, 2014);
        assert_eq!(pts[5].year, 2019);
        // ~10% early adopters, ~20% plateau after 2016.
        assert!(
            pts[0].detected_rate > 0.06 && pts[0].detected_rate < 0.14,
            "2014 rate {}",
            pts[0].detected_rate
        );
        assert!(
            pts[5].detected_rate > 0.17 && pts[5].detected_rate < 0.26,
            "2019 rate {}",
            pts[5].detected_rate
        );
        // Non-decreasing within tolerance.
        for w in pts.windows(2) {
            assert!(w[1].detected_rate >= w[0].detected_rate - 0.02);
        }
    }

    #[test]
    fn static_detection_tracks_truth_with_small_error() {
        let pts = adoption_study(7, 1_000);
        for p in &pts {
            let err = (p.detected_rate - p.true_rate).abs();
            assert!(err < 0.03, "{}: err {err}", p.year);
        }
    }

    #[test]
    fn overlap_study_matches_paper_numbers() {
        let pts = overlap_study(3, 5_000);
        assert_eq!(pts.len(), 4);
        let targets = [0.7836, 0.6210, 0.5836, 0.5534];
        for (p, t) in pts.iter().zip(targets) {
            assert!(
                (p.overlap - t).abs() < 0.01,
                "{}: {} vs {t}",
                p.label,
                p.overlap
            );
        }
    }

    #[test]
    fn studies_are_deterministic() {
        assert_eq!(adoption_study(1, 300), adoption_study(1, 300));
        assert_eq!(overlap_study(1, 300), overlap_study(1, 300));
    }
}

//! What every campaign workload shares: the per-chunk correctness tally,
//! figure rendering, and the figure-CSV digest.

use crate::metrics::quantile;
use hb_analysis::{history_reports, indexed_reports, DatasetIndex, FigureReport};
use hb_crawler::{adoption_study, overlap_study, VisitChunk};
use hb_ecosystem::EcosystemConfig;
use std::time::Instant;

/// Sizes of the Wayback substitute studies behind F4 and F4b (the
/// `figures` binary's sizes).
const ADOPTION_TOP_K: u32 = 1_000;
const OVERLAP_N: u32 = 5_000;

/// Running counts over the folded chunk stream, for the correctness checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Visits folded.
    pub visits: u64,
    /// Chunks folded.
    pub chunks: u64,
    /// Day-0 visits the detector flagged as header bidding.
    pub hb_day0: u64,
    /// Day-0 detections whose ground truth has no HB facet.
    pub false_positives: u64,
    /// Visits whose page load completed.
    pub loaded: u64,
}

impl Tally {
    /// Count one chunk.
    pub fn observe(&mut self, chunk: &VisitChunk) {
        self.chunks += 1;
        self.visits += chunk.len() as u64;
        for (v, t) in chunk.visits.iter().zip(&chunk.truths) {
            self.loaded += u64::from(v.page_load_ms.is_some());
            if chunk.day == 0 && v.hb_detected {
                self.hb_day0 += 1;
                self.false_positives += u64::from(t.facet == "none");
            }
        }
    }

    /// The campaign-shape checks: the paper's §3.2 schedule (a full day-0
    /// sweep plus one revisit per detected site per day) and 100%
    /// detector precision on day 0 against the ground truth (§4.1).
    pub fn check(&self, eco: &EcosystemConfig) -> Result<(), String> {
        let want = u64::from(eco.n_sites) + self.hb_day0 * u64::from(eco.crawl_days);
        if self.visits != want {
            return Err(format!(
                "visit count {} != sweep {} + {} HB sites x {} days",
                self.visits, eco.n_sites, self.hb_day0, eco.crawl_days
            ));
        }
        if self.hb_day0 == 0 {
            return Err("no HB site detected on day 0".into());
        }
        if self.false_positives != 0 {
            return Err(format!(
                "detector precision below 100%: {} of {} day-0 detections are not HB",
                self.false_positives, self.hb_day0
            ));
        }
        Ok(())
    }
}

/// The rendered figure set of one campaign.
pub struct Figures {
    /// XXH64 over every report's id and CSV, in registry order.
    pub digest: u64,
    /// Total CSV bytes.
    pub csv_bytes: usize,
    /// Per-report build-plus-CSV time in ms (timed rendering only).
    pub render_ms: Vec<(String, f64)>,
}

fn digest_reports<'a>(reports: impl Iterator<Item = (&'a str, &'a str)>) -> (u64, usize) {
    let mut buf = Vec::new();
    let mut csv_bytes = 0;
    for (id, csv) in reports {
        buf.extend_from_slice(id.as_bytes());
        buf.push(b'\n');
        buf.extend_from_slice(csv.as_bytes());
        csv_bytes += csv.len();
    }
    (hb_core::xxh64(&buf), csv_bytes)
}

/// Build all 23 reports (F4 and F4b from the Wayback substitute, then the
/// 21 index-driven ones) and render their CSVs, the way the `figures`
/// binary orders them.
pub fn render(ix: &DatasetIndex, seed: u64) -> Figures {
    let adoption = adoption_study(seed, ADOPTION_TOP_K);
    let overlaps = overlap_study(seed, OVERLAP_N);
    let mut reports = history_reports(&adoption, &overlaps);
    reports.extend(indexed_reports(ix));
    let csvs: Vec<(String, String)> = reports
        .into_iter()
        .map(|r| {
            let csv = r.to_csv();
            (r.id, csv)
        })
        .collect();
    let (digest, csv_bytes) = digest_reports(csvs.iter().map(|(i, c)| (i.as_str(), c.as_str())));
    Figures {
        digest,
        csv_bytes,
        render_ms: Vec::new(),
    }
}

type IndexedBuilder = fn(&DatasetIndex) -> FigureReport;

/// The index-driven builders in registry order, called one by one so each
/// can be timed. The digest check against [`render`] catches any drift
/// from `indexed_reports`.
const INDEXED: [IndexedBuilder; 21] = [
    hb_analysis::summary::t1_summary,
    hb_analysis::summary::adoption_bands,
    hb_analysis::summary::facet_breakdown,
    hb_analysis::partners::f08_top_partners,
    hb_analysis::partners::f09_partners_per_site,
    hb_analysis::partners::f10_combinations,
    hb_analysis::partners::f11_bids_by_facet,
    hb_analysis::latency::f12_latency_ecdf,
    hb_analysis::latency::f13_latency_vs_rank,
    hb_analysis::latency::f14_partner_latency,
    hb_analysis::latency::f15_latency_vs_partners,
    hb_analysis::latency::f16_latency_vs_popularity,
    hb_analysis::late::f17_late_ecdf,
    hb_analysis::late::f18_late_by_partner,
    hb_analysis::slots::f19_slots_ecdf,
    hb_analysis::slots::f20_latency_vs_slots,
    hb_analysis::slots::f21_sizes,
    hb_analysis::prices::f22_price_ecdf,
    hb_analysis::prices::f23_price_by_size,
    hb_analysis::prices::f24_price_by_popularity,
    hb_analysis::waterfall_cmp::x01_waterfall_compare,
];

/// [`render`], timing each report's build and CSV on its own.
pub fn render_timed(ix: &DatasetIndex, seed: u64) -> Figures {
    let mut out: Vec<(String, String)> = Vec::with_capacity(23);
    let mut render_ms = Vec::with_capacity(23);
    let mut timed = |build: &dyn Fn() -> FigureReport| {
        let t = Instant::now();
        let report = build();
        let csv = report.to_csv();
        render_ms.push((report.id.clone(), t.elapsed().as_secs_f64() * 1e3));
        out.push((report.id, csv));
    };
    timed(&|| hb_analysis::adoption::f04_adoption(&adoption_study(seed, ADOPTION_TOP_K)));
    timed(&|| hb_analysis::adoption::f04b_overlaps(&overlap_study(seed, OVERLAP_N)));
    for build in INDEXED {
        timed(&|| build(ix));
    }
    let (digest, csv_bytes) = digest_reports(out.iter().map(|(i, c)| (i.as_str(), c.as_str())));
    Figures {
        digest,
        csv_bytes,
        render_ms,
    }
}

/// p50/p99/p999 of the per-visit HB auction latency (sim-time ms) over
/// every HB visit with a measured latency — the samples behind Fig. 12.
pub fn hb_latency_ms(ix: &DatasetIndex) -> (f64, f64, f64) {
    let mut v: Vec<f64> = ix
        .v_latency
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .collect();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.50), quantile(&v, 0.99), quantile(&v, 0.999))
}

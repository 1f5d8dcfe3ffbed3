//! Criterion benches — one per table/figure of the paper.
//!
//! Each bench measures regenerating one artifact from the cached
//! test-scale index (the crawl itself is benchmarked separately in
//! `pipeline.rs`). This keeps a per-figure performance budget visible:
//! a regression in any analysis path shows up under its figure id.

use criterion::{criterion_group, criterion_main, Criterion};
use hb_bench::{cached_test_chunks, cached_test_index, fold_test_index};
use hb_crawler::{adoption_study, overlap_study};
use std::hint::black_box;

macro_rules! figure_bench {
    ($fn_name:ident, $id:literal, $builder:path) => {
        fn $fn_name(c: &mut Criterion) {
            let ix = cached_test_index();
            c.bench_function(concat!("figure/", $id), |b| {
                b.iter(|| black_box($builder(black_box(ix))))
            });
        }
    };
}

/// The one-off cost the figure benches amortize: folding the campaign's
/// chunks (symbol re-interning included) into the index.
fn bench_index_build(c: &mut Criterion) {
    let chunks = cached_test_chunks();
    c.bench_function("figure/INDEX_build", |b| {
        b.iter(|| black_box(fold_test_index(black_box(chunks))))
    });
}

figure_bench!(bench_t1, "T1_summary", hb_analysis::summary::t1_summary);
figure_bench!(bench_a1, "A1_adoption_bands", hb_analysis::summary::adoption_bands);
figure_bench!(bench_a2, "A2_facet_breakdown", hb_analysis::summary::facet_breakdown);
figure_bench!(bench_f8, "F8_top_partners", hb_analysis::partners::f08_top_partners);
figure_bench!(bench_f9, "F9_partners_per_site", hb_analysis::partners::f09_partners_per_site);
figure_bench!(bench_f10, "F10_combinations", hb_analysis::partners::f10_combinations);
figure_bench!(bench_f11, "F11_bids_by_facet", hb_analysis::partners::f11_bids_by_facet);
figure_bench!(bench_f12, "F12_latency_ecdf", hb_analysis::latency::f12_latency_ecdf);
figure_bench!(bench_f13, "F13_latency_vs_rank", hb_analysis::latency::f13_latency_vs_rank);
figure_bench!(bench_f14, "F14_partner_latency", hb_analysis::latency::f14_partner_latency);
figure_bench!(bench_f15, "F15_latency_vs_partners", hb_analysis::latency::f15_latency_vs_partners);
figure_bench!(bench_f16, "F16_latency_vs_popularity", hb_analysis::latency::f16_latency_vs_popularity);
figure_bench!(bench_f17, "F17_late_ecdf", hb_analysis::late::f17_late_ecdf);
figure_bench!(bench_f18, "F18_late_by_partner", hb_analysis::late::f18_late_by_partner);
figure_bench!(bench_f19, "F19_slots_ecdf", hb_analysis::slots::f19_slots_ecdf);
figure_bench!(bench_f20, "F20_latency_vs_slots", hb_analysis::slots::f20_latency_vs_slots);
figure_bench!(bench_f21, "F21_sizes", hb_analysis::slots::f21_sizes);
figure_bench!(bench_f22, "F22_price_ecdf", hb_analysis::prices::f22_price_ecdf);
figure_bench!(bench_f23, "F23_price_by_size", hb_analysis::prices::f23_price_by_size);
figure_bench!(bench_f24, "F24_price_by_popularity", hb_analysis::prices::f24_price_by_popularity);
figure_bench!(bench_x1, "X1_waterfall_compare", hb_analysis::waterfall_cmp::x01_waterfall_compare);

/// Fig. 4 + overlap study (no crawl dataset needed).
fn bench_f4(c: &mut Criterion) {
    c.bench_function("figure/F4_adoption_history", |b| {
        b.iter(|| {
            let pts = adoption_study(black_box(7), 250);
            black_box(hb_analysis::adoption::f04_adoption(&pts))
        })
    });
    c.bench_function("figure/F4b_toplist_overlap", |b| {
        b.iter(|| {
            let pts = overlap_study(black_box(7), 1_000);
            black_box(hb_analysis::adoption::f04b_overlaps(&pts))
        })
    });
}

criterion_group!(
    name = figures;
    config = Criterion::default().sample_size(20);
    targets =
        bench_index_build,
        bench_t1, bench_a1, bench_a2, bench_f4, bench_f8, bench_f9, bench_f10,
        bench_f11, bench_f12, bench_f13, bench_f14, bench_f15, bench_f16,
        bench_f17, bench_f18, bench_f19, bench_f20, bench_f21, bench_f22,
        bench_f23, bench_f24, bench_x1
);
criterion_main!(figures);

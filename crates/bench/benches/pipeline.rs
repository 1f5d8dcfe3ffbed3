//! Criterion benches for the measurement pipeline itself: single-visit
//! simulation per protocol flow, detector hot paths, and a tiny campaign.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hb_adtech::{HbFacet, RobustnessPolicy};
use hb_core::{Interner, VisitColumns};
use hb_crawler::{
    crawl_site_into, run_campaign_streamed, CampaignConfig, SessionConfig, VisitScratch,
};
use hb_ecosystem::{EcosystemConfig, ScenarioConfig, SiteFactory};
use hb_http::{Json, Request, RequestId, Url};
use hb_simnet::{Dist, HostFaultProfile, LatencyModel};
use std::hint::black_box;

/// One steady-state visit per flow type through [`crawl_site_into`] —
/// the direct-to-column path campaign workers run. The scratch (browser,
/// detector buffers, message pools) and the shared runtime survive across
/// iterations, exactly as they survive across a worker's visits.
fn visit_columnar_bench(c: &mut Criterion) {
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let pick = |facet: Option<HbFacet>| {
        eco.sites()
            .find(|s| s.facet == facet)
            .expect("facet present in tiny universe")
    };
    let cases = [
        ("client_side_columnar", pick(Some(HbFacet::ClientSide))),
        ("server_side_columnar", pick(Some(HbFacet::ServerSide))),
        ("hybrid_columnar", pick(Some(HbFacet::Hybrid))),
        ("waterfall_columnar", pick(None)),
    ];
    let session = SessionConfig::default();
    for (label, site) in cases {
        let mut strings = Interner::new();
        let mut scratch = VisitScratch::new(eco.partner_list());
        let mut cols = VisitColumns::new();
        let mut truths = Vec::new();
        c.bench_function(&format!("visit/{label}"), |b| {
            b.iter(|| {
                // Restart the columns each visit (a cheap len-reset of
                // pooled buffers) so they don't grow without bound across
                // iterations — the marginal cost a sealed chunk pays.
                cols.clear();
                truths.clear();
                black_box(crawl_site_into(
                    eco.net(),
                    eco.runtime_shared(site.rank),
                    eco.visit_rng(site.rank, 0),
                    0,
                    &session,
                    &mut strings,
                    &mut scratch,
                    &mut cols,
                    &mut truths,
                ));
                cols.len()
            })
        });
    }
}

fn detector_hot_paths(c: &mut Criterion) {
    let list = hb_core::PartnerList::demo();
    let bid_req = Request::get(
        RequestId(1),
        Url::parse(
            "https://appnexus-adnet.example/hb/bid?hb_auction=a1&hb_bidder=appnexus&hb_source=client&slots=4",
        )
        .unwrap(),
    );
    let unrelated = Request::get(
        RequestId(2),
        Url::parse("https://static.site.example/app.js?v=12").unwrap(),
    );
    c.bench_function("detector/classify_bid_request", |b| {
        b.iter(|| black_box(hb_core::classify_request(&list, black_box(&bid_req))))
    });
    c.bench_function("detector/classify_unrelated", |b| {
        b.iter(|| black_box(hb_core::classify_request(&list, black_box(&unrelated))))
    });
    let payload = r#"{"hb_auction":"a1","bids":[{"bidder":"appnexus","hb_slot":"s1","cpm":0.4,"hb_size":"300x250","hb_adid":"c","hb_currency":"USD"}]}"#;
    c.bench_function("detector/parse_bid_response_json", |b| {
        b.iter(|| black_box(Json::parse(black_box(payload)).unwrap()))
    });
    let html = hb_dom::HtmlBuilder::new("t")
        .head_script("https://cdn.hbrepro.example/prebid.js")
        .head_inline("pbjs.requestBids({timeout: 3000});")
        .ad_slot("ad-slot-1")
        .build();
    let sigs = hb_core::LibrarySignatures::default();
    c.bench_function("detector/static_analysis", |b| {
        b.iter(|| black_box(hb_core::analyze_html(&sigs, black_box(&html))))
    });
}

/// Run a campaign to completion, dropping each chunk as it arrives (the
/// cost every streaming consumer pays before its own fold); returns the
/// visit count.
fn crawl(factory: &SiteFactory, cfg: &CampaignConfig) -> u64 {
    let mut visits = 0;
    run_campaign_streamed(factory, cfg, &mut |chunk| visits += chunk.len() as u64);
    visits
}

fn campaign_bench(c: &mut Criterion) {
    c.bench_function("campaign/tiny_200_sites", |b| {
        b.iter(|| {
            let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
            black_box(crawl(&eco, &CampaignConfig::default()))
        })
    });
    // Visits/sec throughput over a prebuilt tiny universe: the campaign
    // re-crawls the same 200 sites each iteration, so Criterion reports
    // elements/sec directly comparable to the crawl binary's output.
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    // One warm-up run to learn the visit count (sweep + dailies).
    let visits = crawl(&eco, &CampaignConfig::default());
    let mut group = c.benchmark_group("campaign");
    group.throughput(Throughput::Elements(visits));
    group.bench_function("throughput", |b| {
        b.iter(|| black_box(crawl(&eco, &CampaignConfig::default())))
    });
    group.finish();
}

/// `campaign/throughput` again, but under a stressed scenario touching
/// every fault axis: a lossy ambient profile on one partner, a scheduled
/// outage on a second, a congested link to a third, and the degraded
/// robustness posture (per-partner deadlines, one retry with backoff,
/// passback). Same prebuilt tiny universe shape and the same
/// `Throughput::Elements` denominator, so the two visits/sec numbers are
/// directly comparable — the fault machinery is budgeted to stay within
/// 15% of the healthy sweep.
fn campaign_faulty_bench(c: &mut Criterion) {
    let specs = hb_ecosystem::catalog::catalog();
    let base = EcosystemConfig::tiny_scale();
    let scenario = ScenarioConfig::healthy()
        .with_host_profile(
            specs[0].host(),
            HostFaultProfile {
                drop_chance: 0.20,
                slow_chance: 0.30,
                slow_penalty_ms: Dist::Const(900.0),
            },
        )
        .with_outage(specs[1].host(), 1, base.crawl_days)
        .with_degraded_link(specs[2].host(), LatencyModel::constant(1_200.0))
        .with_robustness(RobustnessPolicy::degraded_defaults());
    let eco = SiteFactory::new(base.with_scenario(scenario));
    // One warm-up run to learn the visit count (sweep + dailies).
    let visits = crawl(&eco, &CampaignConfig::default());
    let mut group = c.benchmark_group("campaign");
    group.throughput(Throughput::Elements(visits));
    group.bench_function("faulty_sweep", |b| {
        b.iter(|| black_box(crawl(&eco, &CampaignConfig::default())))
    });
    group.finish();
}

/// A 2,000-site × 1-day campaign over the lazy factory — the scale where
/// eager universe construction used to dominate. Reported as visits/sec
/// (`Throughput::Elements`), directly comparable to the crawl binary.
fn campaign_small_bench(c: &mut Criterion) {
    let factory = SiteFactory::new(EcosystemConfig::paper_scale().with_sites(2_000).with_days(1));
    let cfg = CampaignConfig::default();
    // One warm-up run to learn the visit count (sweep + dailies).
    let visits = crawl(&factory, &cfg);
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    // One campaign run takes tens of milliseconds; stretch the sample
    // window so every criterion sample completes several iterations and
    // the median is an actual median, not a single observation.
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Elements(visits));
    group.bench_function("small_2k_sites", |b| {
        b.iter(|| black_box(crawl(&factory, &cfg)))
    });
    group.finish();
}

/// Multi-worker scaling over one shared universe: the same 2,000-site ×
/// 1-day campaign at 1 / 2 / 4 / 8 workers. The chunk size is shrunk to
/// 64 visits so the workload splits into ~40 blocks — enough claimable
/// blocks that every worker stays busy (at the default 256 the sweep
/// collapses into a handful of blocks and the tail dominates). All
/// workers share the factory's sharded derivation memo, so the per-rank
/// derivations are paid once regardless of worker count; on a
/// many-core box visits/sec should scale near-linearly, and
/// `speedup_8w` (scaling_1w median / scaling_8w median) is folded into
/// the snapshot and gated in CI.
fn campaign_scaling_bench(c: &mut Criterion) {
    let factory = SiteFactory::new(EcosystemConfig::paper_scale().with_sites(2_000).with_days(1));
    let visits = crawl(
        &factory,
        &CampaignConfig {
            chunk_visits: 64,
            ..CampaignConfig::default()
        },
    );
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Elements(visits));
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(&format!("scaling_{workers}w"), |b| {
            b.iter(|| {
                let cfg = CampaignConfig {
                    parallelism: workers,
                    chunk_visits: 64,
                    ..CampaignConfig::default()
                };
                black_box(crawl(&factory, &cfg))
            })
        });
    }
    group.finish();
}

/// Pure cold site derivation: every iteration derives a rank no memo has
/// ever seen (the factory's lazy universe is huge, the rank cursor never
/// wraps), so this isolates `generate_site` + profile assembly — the
/// per-site cost an adoption sweep pays before the first request flies.
fn derive_site_cold_bench(c: &mut Criterion) {
    let factory = SiteFactory::new(EcosystemConfig::paper_scale().with_sites(100_000_000));
    let mut rank: u32 = 0;
    c.bench_function("ecosystem/derive_site_cold", |b| {
        b.iter(|| {
            rank += 1;
            black_box(factory.site(rank))
        })
    });
}

/// The adoption-sweep shape: a warm worker scratch crawling a block of
/// ranks it has never visited — every visit is a memo miss (cold
/// `runtime_shared`, cold page HTML) appending direct-to-column. Reported
/// as visits/sec over the block, directly comparable to the campaign
/// benches; the rank window advances each iteration so the path never
/// warms up.
fn campaign_cold_sweep_bench(c: &mut Criterion) {
    const BLOCK: u32 = 256;
    let factory = SiteFactory::new(EcosystemConfig::paper_scale().with_sites(100_000_000));
    let session = SessionConfig::default();
    let net = factory.net();
    let mut scratch = VisitScratch::new(factory.partner_list());
    let mut strings = Interner::new();
    let mut cols = VisitColumns::new();
    let mut truths = Vec::new();
    let mut next_rank: u32 = 1;
    let mut group = c.benchmark_group("campaign");
    group.throughput(Throughput::Elements(BLOCK as u64));
    group.bench_function("cold_sweep", |b| {
        b.iter(|| {
            // Seal the previous "chunk": columns, truths and the local
            // interner restart per block, like a campaign block does.
            cols.clear();
            truths.clear();
            strings = Interner::new();
            let lo = next_rank;
            next_rank += BLOCK;
            for rank in lo..lo + BLOCK {
                black_box(crawl_site_into(
                    net.clone(),
                    factory.runtime_shared(rank),
                    factory.visit_rng(rank, 0),
                    0,
                    &session,
                    &mut strings,
                    &mut scratch,
                    &mut cols,
                    &mut truths,
                ));
            }
            cols.len()
        })
    });
    group.finish();
}

criterion_group!(
    name = pipeline;
    config = Criterion::default().sample_size(10);
    targets = visit_columnar_bench, detector_hot_paths, campaign_bench,
        campaign_faulty_bench, campaign_small_bench, campaign_scaling_bench,
        derive_site_cold_bench, campaign_cold_sweep_bench
);
criterion_main!(pipeline);

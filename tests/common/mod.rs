//! Shared integration-test fixtures: one test-scale campaign per process,
//! and single visits read back as rows.
#![allow(dead_code)]

use hb_repro::adtech::{Net, SiteRuntime, VisitGroundTruth};
use hb_repro::prelude::*;
use hb_repro::simnet::{Dist, HostFaultProfile, LatencyModel};
use std::sync::{Arc, OnceLock};

/// The test-scale ecosystem (1,400 sites × 3 days), generated once.
pub fn ecosystem() -> &'static SiteFactory {
    static ECO: OnceLock<SiteFactory> = OnceLock::new();
    ECO.get_or_init(|| SiteFactory::new(EcosystemConfig::test_scale()))
}

/// The test-scale campaign's chunks, crawled once, in fold order.
pub fn chunks() -> &'static [VisitChunk] {
    static CHUNKS: OnceLock<Vec<VisitChunk>> = OnceLock::new();
    CHUNKS.get_or_init(|| campaign(ecosystem(), &CampaignConfig::default()))
}

/// The columnar index folded from [`chunks`] (the figure builders
/// consume the index).
pub fn index() -> &'static DatasetIndex {
    static IX: OnceLock<DatasetIndex> = OnceLock::new();
    IX.get_or_init(|| {
        let config = ecosystem().config();
        let mut builder = DatasetIndexBuilder::new(config.n_sites, config.crawl_days);
        for chunk in chunks() {
            builder.push_chunk(chunk);
        }
        builder.finish()
    })
}

/// Every chunk of a campaign over `eco`, in emission order.
pub fn campaign(eco: &SiteFactory, cfg: &CampaignConfig) -> Vec<VisitChunk> {
    let mut chunks = Vec::new();
    run_campaign_streamed(eco, cfg, &mut |c| chunks.push(c));
    chunks
}

/// Every visit of `chunks` as a row, with its domain resolved.
pub fn rows(chunks: &[VisitChunk]) -> impl Iterator<Item = (&str, VisitRecord)> {
    chunks.iter().flat_map(|c| {
        c.visits
            .iter()
            .map(move |v| (c.strings.resolve(v.domain), v.to_record()))
    })
}

/// One visit read back: the detector's row, the interner its symbols
/// resolve against, and the simulation's raw ground truth.
pub struct Visit {
    pub record: VisitRecord,
    pub strings: Interner,
    pub truth: VisitGroundTruth,
    pub page_completed: bool,
}

/// Crawl one site once, on a fresh worker scratch, through the campaign's
/// own visit path.
pub fn visit(net: Net, runtime: SiteRuntime, list: Arc<PartnerList>, rng: Rng, day: u32) -> Visit {
    let mut scratch = VisitScratch::new(list);
    let mut strings = Interner::new();
    let mut cols = VisitColumns::new();
    let outcome = crawl_site_into(
        net,
        Arc::new(runtime),
        rng,
        day,
        &SessionConfig::default(),
        &mut strings,
        &mut scratch,
        &mut cols,
        &mut Vec::new(),
    );
    Visit {
        record: cols.get(0).to_record(),
        strings,
        truth: scratch.truth().expect("visited").clone(),
        page_completed: outcome.page_completed,
    }
}

/// A stressed scenario touching every axis: one partner tier with a lossy
/// ambient profile, one partner hard-down from day 1, a congested link to
/// a third, and the ad path running its degraded posture.
pub fn stressed_scenario(eco_cfg: &EcosystemConfig) -> ScenarioConfig {
    let specs = hb_repro::ecosystem::catalog::catalog();
    ScenarioConfig::healthy()
        .with_host_profile(
            specs[0].host(),
            HostFaultProfile {
                drop_chance: 0.20,
                slow_chance: 0.30,
                slow_penalty_ms: Dist::Const(900.0),
            },
        )
        .with_outage(specs[1].host(), 1, eco_cfg.crawl_days)
        .with_degraded_link(specs[2].host(), LatencyModel::constant(1_200.0))
        .with_degraded_posture()
}

/// The `serve_zipf` benchmark's degraded serving network over `eco`: the
/// first four providers that are not ad servers drop 45% of exchanges and
/// slow 35% by 220 ms, so hedges, breaker skips and waterfall descents
/// all run.
pub fn degraded_serving_net(eco: &SiteFactory) -> Net {
    let slice: Vec<String> = eco
        .specs()
        .iter()
        .filter(|s| !s.is_ad_server)
        .take(4)
        .map(|s| s.host())
        .collect();
    let lossy = HostFaultProfile {
        drop_chance: 0.45,
        slow_chance: 0.35,
        slow_penalty_ms: Dist::Const(220.0),
    };
    let injector = ScenarioConfig::healthy()
        .with_provider_slice(slice, lossy)
        .injector_for_day(&eco.faults(), 0);
    Net::new(eco.router(), eco.latency(), injector.into())
}

//! # hb-repro
//!
//! Reproduction of *"No More Chasing Waterfalls: A Measurement Study of
//! the Header Bidding Ad-Ecosystem"* (IMC 2019) as a Rust workspace.
//!
//! This façade crate re-exports the whole stack:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | engine | [`simnet`] | discrete-event simulator, RNG, distributions, faults |
//! | web | [`http`] | URLs, query params, JSON, messages, endpoints/router |
//! | browser | [`dom`] | DOM events, HTML scanning, JS thread, webRequest bus |
//! | ad-tech | [`adtech`] | partners, RTB, ad server, HB wrapper, waterfall |
//! | **detector** | [`core`] | **HBDetector — the paper's contribution** |
//! | universe | [`ecosystem`] | 84-partner catalog, publishers, toplists, Wayback |
//! | harness | [`crawler`] | sessions, the campaign plan, chunks, dataset CSVs |
//! | statistics | [`stats`] | ECDF, quantiles, whiskers, tables |
//! | figures | [`analysis`] | every table/figure regenerated as a report |
//! | serving | [`serve`] | auction orchestrator: budgets, breakers, hedging, shedding |
//!
//! ## Quickstart
//!
//! There is one data path from a visit to a figure: the campaign streams
//! sealed columnar chunks, and the index builder folds each one and drops
//! it.
//!
//! ```
//! use hb_repro::prelude::*;
//!
//! // A 200-site universe, crawled once, folded chunk by chunk.
//! let config = EcosystemConfig::tiny_scale();
//! let factory = SiteFactory::new(config.clone());
//! let mut builder = DatasetIndexBuilder::new(config.n_sites, config.crawl_days);
//! run_campaign_streamed(&factory, &CampaignConfig::default(), &mut |chunk| {
//!     builder.push_chunk(&chunk)
//! });
//! let index = builder.finish();
//! let summary = hb_repro::analysis::summary::t1_summary(&index);
//! assert!(summary.metric("websites_with_hb").unwrap() > 0.0);
//! ```

pub use hb_adtech as adtech;
pub use hb_analysis as analysis;
pub use hb_core as core;
pub use hb_crawler as crawler;
pub use hb_distd as distd;
pub use hb_dom as dom;
pub use hb_ecosystem as ecosystem;
pub use hb_http as http;
pub use hb_serve as serve;
pub use hb_simnet as simnet;
pub use hb_stats as stats;

/// The most commonly used items in one import.
pub mod prelude {
    pub use hb_adtech::{AdSize, AdUnit, Cpm, HbFacet};
    pub use hb_analysis::{
        fault_reports, history_reports, index_campaign, indexed_reports, DatasetIndex,
        DatasetIndexBuilder, FaultSlice, FigureReport,
    };
    pub use hb_core::{HbDetector, Interner, PartnerList, Symbol, VisitColumns, VisitRecord};
    pub use hb_crawler::{
        adoption_study, crawl_site_into, overlap_study, run_campaign_streamed, CampaignConfig,
        CampaignPlan, DatasetWriter, SessionConfig, VisitChunk, VisitScratch,
    };
    pub use hb_ecosystem::{EcosystemConfig, OutageWindow, ScenarioConfig, SiteFactory};
    pub use hb_serve::{
        serve_load_with, AdRequest, AuctionOutcome, Decision, LoadGenConfig, ServeConfig,
        ServeReport,
    };
    pub use hb_simnet::{Rng, SimDuration, SimTime};
}

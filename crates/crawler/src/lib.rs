//! # hb-crawler
//!
//! The crawl harness: clean-slate per-site sessions with the detector
//! attached ([`session`]), the §3.2 campaign schedule and its streaming
//! in-process runner over the lazy ecosystem ([`campaign`]), columnar
//! chunks ([`chunk`]), the dataset CSV writer that streams those
//! chunks to disk ([`dataset`]), and the historical Wayback adoption
//! crawl ([`wayback_crawl`]).
//!
//! Methodology mirrors the paper's §3.2: stateless browser instances, a
//! 60 s page timeout, a 5 s settle window, a day-0 sweep over the full
//! toplist followed by daily revisits of detected HB sites. Visits go
//! straight into columnar [`VisitChunk`]s; every consumer — the figure
//! index, the CSV writer, the distributed coordinator — folds chunks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chunk;
pub mod dataset;
mod handoff;
pub mod session;
pub mod wayback_crawl;

pub use campaign::{
    crawl_block_into, crawl_block_until, run_campaign_streamed, CampaignConfig, CampaignPlan,
    PlanBlock,
};
pub use chunk::VisitChunk;
pub use dataset::{DatasetWriter, TruthRecord};

pub use session::{crawl_site_into, SessionConfig, VisitOutcome, VisitScratch};
pub use wayback_crawl::{adoption_study, overlap_study, AdoptionPoint, OverlapPoint};

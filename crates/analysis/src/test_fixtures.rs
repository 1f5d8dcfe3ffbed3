//! Shared test fixture: one test-scale campaign, computed once per process.

use crate::index::{DatasetIndex, DatasetIndexBuilder};
use hb_crawler::{run_campaign_streamed, CampaignConfig, VisitChunk};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use std::sync::OnceLock;

/// The chunks of a cached test-scale campaign, in fold order.
pub fn small_chunks() -> &'static [VisitChunk] {
    static CHUNKS: OnceLock<Vec<VisitChunk>> = OnceLock::new();
    CHUNKS.get_or_init(|| {
        let factory = SiteFactory::new(EcosystemConfig::test_scale());
        let mut chunks = Vec::new();
        run_campaign_streamed(&factory, &CampaignConfig::default(), &mut |c| {
            chunks.push(c)
        });
        chunks
    })
}

/// The cached columnar index folded from [`small_chunks`].
pub fn small_index() -> &'static DatasetIndex {
    static IX: OnceLock<DatasetIndex> = OnceLock::new();
    IX.get_or_init(|| {
        let config = EcosystemConfig::test_scale();
        let mut builder = DatasetIndexBuilder::new(config.n_sites, config.crawl_days);
        for chunk in small_chunks() {
            builder.push_chunk(chunk);
        }
        builder.finish()
    })
}

//! # hb-bench
//!
//! Shared harness for the benchmark suite and the `crawl`/`figures`
//! binaries: maps scale words to ecosystem configurations, folds a
//! campaign at a scale into the figure index, and caches the test-scale
//! campaign so every Criterion bench reuses one crawl.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hb_analysis::{index_campaign, DatasetIndex, DatasetIndexBuilder};
use hb_crawler::{run_campaign_streamed, CampaignConfig, CampaignProgress, ProgressFn, VisitChunk};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use std::sync::OnceLock;

/// Scale selector for harness runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// 200 sites x 1 day - CI-friendly smoke runs.
    Tiny,
    /// 1,400 sites x 3 days - default for tests/examples.
    Test,
    /// 7,000 sites x 10 days - heavier shape-check runs.
    Medium,
    /// 35,000 sites x 34 days - the paper's full workload.
    Paper,
}

impl Scale {
    /// Parse from a CLI word.
    pub fn parse(s: &str) -> Option<Scale> {
        Some(match s {
            "tiny" => Scale::Tiny,
            "test" => Scale::Test,
            "medium" => Scale::Medium,
            "paper" => Scale::Paper,
            _ => return None,
        })
    }

    /// The ecosystem configuration for this scale.
    pub fn config(self) -> EcosystemConfig {
        match self {
            Scale::Tiny => EcosystemConfig::tiny_scale(),
            Scale::Test => EcosystemConfig::test_scale(),
            Scale::Medium => EcosystemConfig::paper_scale().with_sites(7_000).with_days(10),
            Scale::Paper => EcosystemConfig::paper_scale(),
        }
    }
}

/// A progress callback printing to stderr — the old hardwired behaviour of
/// the crawl library, now opt-in at the harness layer.
pub fn stderr_progress() -> ProgressFn {
    Box::new(|p: CampaignProgress| {
        eprintln!(
            "  [shard {}] day {}: crawled {}/{} visits",
            p.shard, p.day, p.done, p.total
        )
    })
}

/// Run the full campaign at `scale` and fold its chunk stream into the
/// figure index, optionally reporting progress on stderr.
pub fn index_at(scale: Scale, progress: bool) -> DatasetIndex {
    let cfg = CampaignConfig {
        progress_every: if progress { 5_000 } else { 0 },
        progress: progress.then(stderr_progress),
        ..CampaignConfig::default()
    };
    index_campaign(&SiteFactory::new(scale.config()), &cfg)
}

/// The chunks of the test-scale campaign, crawled once and shared by the
/// Criterion benches (in fold order).
pub fn cached_test_chunks() -> &'static [VisitChunk] {
    static CHUNKS: OnceLock<Vec<VisitChunk>> = OnceLock::new();
    CHUNKS.get_or_init(|| {
        let factory = SiteFactory::new(Scale::Test.config());
        let mut chunks = Vec::new();
        run_campaign_streamed(&factory, &CampaignConfig::default(), &mut |c| {
            chunks.push(c)
        });
        chunks
    })
}

/// Fold chunks of a test-scale campaign into its index.
pub fn fold_test_index(chunks: &[VisitChunk]) -> DatasetIndex {
    let config = Scale::Test.config();
    let mut builder = DatasetIndexBuilder::new(config.n_sites, config.crawl_days);
    for chunk in chunks {
        builder.push_chunk(chunk);
    }
    builder.finish()
}

/// Cached columnar index over [`cached_test_chunks`] (built once, shared
/// by every figure bench — the index's build-once/read-many contract).
pub fn cached_test_index() -> &'static DatasetIndex {
    static IX: OnceLock<DatasetIndex> = OnceLock::new();
    IX.get_or_init(|| fold_test_index(cached_test_chunks()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn tiny_dataset_builds() {
        let ix = index_at(Scale::Tiny, false);
        assert_eq!(ix.n_sites, 200);
        assert!(ix.v_slots_auctioned.iter().sum::<u32>() > 0);
    }
}

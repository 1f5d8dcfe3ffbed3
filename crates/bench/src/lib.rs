//! # hb-bench
//!
//! Shared harness for the `crawl`/`figures` binaries: maps scale words
//! to ecosystem configurations and folds a campaign at a scale into the
//! figure index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hb_analysis::{index_campaign, DatasetIndex};
use hb_crawler::{CampaignConfig, CampaignProgress, ProgressFn};
use hb_ecosystem::{EcosystemConfig, SiteFactory};

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

//! Reproducibility guarantees: identical seeds yield identical universes,
//! crawls and reports, regardless of parallelism.

mod common;

use common::campaign;
use hb_repro::prelude::*;

/// Every paper figure of a campaign, rendered.
fn render(eco: &SiteFactory, cfg: &CampaignConfig) -> Vec<String> {
    indexed_reports(&index_campaign(eco, cfg))
        .into_iter()
        .map(|r| r.render())
        .collect()
}

/// Two chunk streams are identical: their sealed frames match byte for
/// byte — keys, block-local interners entry for entry, rows down to raw
/// symbol ids, and truths.
fn assert_same_chunks(a: &[VisitChunk], b: &[VisitChunk]) {
    let frames = |c: &[VisitChunk]| c.iter().map(VisitChunk::encode).collect::<Vec<_>>();
    assert!(frames(a) == frames(b), "chunk streams differ");
}

#[test]
fn same_seed_same_dataset() {
    let run = || {
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        campaign(&eco, &CampaignConfig::default())
    };
    assert_same_chunks(&run(), &run());
}

#[test]
fn parallelism_does_not_change_results() {
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let at = |parallelism| {
        campaign(
            &eco,
            &CampaignConfig {
                parallelism,
                ..CampaignConfig::default()
            },
        )
    };
    assert_same_chunks(&at(1), &at(8));
}

#[test]
fn figure_outputs_identical_across_parallelism() {
    // End-to-end determinism of the fold: every rendered figure must be
    // byte-identical between a serial and an 8-way campaign.
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let at = |parallelism| {
        render(
            &eco,
            &CampaignConfig {
                parallelism,
                ..CampaignConfig::default()
            },
        )
    };
    assert_eq!(at(1), at(8));
}

#[test]
fn memo_clear_mid_campaign_does_not_change_figures() {
    // The shared derivation memo is pure in (seed, rank): evicting it —
    // here, clearing it from the sink after every 16-visit chunk while 4
    // workers crawl — costs re-derivations but can never change what a
    // visit observes. Every rendered figure must stay byte-identical to
    // the undisturbed campaign's.
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let cfg = CampaignConfig {
        parallelism: 4,
        chunk_visits: 16,
        ..CampaignConfig::default()
    };
    let baseline = render(&eco, &cfg);
    let config = eco.config();
    let mut builder = DatasetIndexBuilder::new(config.n_sites, config.crawl_days);
    run_campaign_streamed(&eco, &cfg, &mut |chunk| {
        eco.clear_memos();
        builder.push_chunk(&chunk);
    });
    let cleared: Vec<String> = indexed_reports(&builder.finish())
        .into_iter()
        .map(|r| r.render())
        .collect();
    assert_eq!(baseline, cleared);
}

#[test]
fn reports_are_deterministic() {
    let build = || {
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        render(&eco, &CampaignConfig::default())
    };
    assert_eq!(build(), build());
}

#[test]
fn figure_outputs_identical_across_chunk_sizes() {
    // The block size restructures scheduling, interning and chunk
    // boundaries — none of it may leak into results: every rendered
    // figure must be byte-identical between 256- and 23-visit chunks.
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let at = |chunk_visits| {
        render(
            &eco,
            &CampaignConfig {
                chunk_visits,
                ..CampaignConfig::default()
            },
        )
    };
    assert_eq!(at(256), at(23));
}

#[test]
fn streamed_index_matches_dataset_index() {
    // Folding chunks live, dropping each as it arrives, must yield the
    // same figures as folding the materialized dataset: every chunk kept,
    // shipped through the wire format, arriving in any order and put
    // back in key order before the fold.
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let cfg = CampaignConfig {
        chunk_visits: 37,
        ..CampaignConfig::default()
    };
    let (n_sites, n_days) = (eco.config().n_sites, eco.config().crawl_days);
    let mut live = DatasetIndexBuilder::new(n_sites, n_days);
    run_campaign_streamed(&eco, &cfg, &mut |chunk| {
        live.push_chunk(&chunk);
        drop(chunk); // rows are gone; only columns remain
    });
    let mut frames: Vec<Vec<u8>> = campaign(&eco, &cfg)
        .iter()
        .map(VisitChunk::encode)
        .collect();
    frames.reverse();
    let mut dataset: Vec<VisitChunk> = frames
        .iter()
        .map(|f| VisitChunk::decode(f).expect("clean frame"))
        .collect();
    dataset.sort_by_key(VisitChunk::key);
    let mut stored = DatasetIndexBuilder::new(n_sites, n_days);
    for chunk in &dataset {
        stored.push_chunk(chunk);
    }
    let figures = |ix: &DatasetIndex| -> Vec<String> {
        indexed_reports(ix)
            .into_iter()
            .map(|r| r.render())
            .collect()
    };
    assert_eq!(figures(&live.finish()), figures(&stored.finish()));
}

#[test]
fn different_seeds_give_different_worlds() {
    let a = SiteFactory::new(EcosystemConfig::tiny_scale().with_seed(100));
    let b = SiteFactory::new(EcosystemConfig::tiny_scale().with_seed(200));
    let hb_a: Vec<u32> = a.hb_sites().map(|s| s.rank).collect();
    let hb_b: Vec<u32> = b.hb_sites().map(|s| s.rank).collect();
    assert_ne!(hb_a, hb_b, "different seeds must differ");
}

#[test]
fn adoption_and_overlap_studies_are_deterministic() {
    assert_eq!(adoption_study(9, 400), adoption_study(9, 400));
    assert_eq!(overlap_study(9, 400), overlap_study(9, 400));
}

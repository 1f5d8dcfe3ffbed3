//! Concurrency guarantees of the universe-shared derivation memo.
//!
//! PR 7 replaced the per-thread LRU memos with one sharded concurrent
//! memo per universe: the first worker to derive a rank publishes the
//! `Arc`, and every other worker — concurrent or later — gets a clone of
//! that same allocation. These tests hammer the memo from several
//! threads with overlapping rank sets and check the two properties the
//! campaign leans on:
//!
//! * **shared**: all threads resolve a rank to pointer-equal handles
//!   (one derivation per rank per universe, no per-thread copies);
//! * **never torn**: every handle a thread observes is a complete,
//!   correct derivation — byte-identical to the single-threaded one —
//!   no matter how the publication race interleaves.

use hb_ecosystem::{EcosystemConfig, SiteFactory, SiteProfile};
use hb_http::HStr;
use proptest::prelude::*;
use std::sync::Arc;

/// What one thread observed for one rank.
type Observation = (u32, Arc<SiteProfile>, Arc<hb_adtech::SiteRuntime>, HStr);

/// Spawn `threads` workers over `ranks`, each walking the whole set from
/// a staggered offset so lookups of the same rank collide mid-flight.
fn hammer(factory: &SiteFactory, ranks: &[u32], threads: usize) -> Vec<Vec<Observation>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let offset = t * ranks.len() / threads;
                    (0..ranks.len())
                        .map(|i| {
                            let rank = ranks[(i + offset) % ranks.len()];
                            (
                                rank,
                                factory.site_shared(rank),
                                factory.runtime_shared(rank),
                                factory.gen().page_html_shared(rank),
                            )
                        })
                        .collect::<Vec<Observation>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("memo worker thread panicked"))
            .collect()
    })
}

/// Assert every observation of `rank` across all threads is pointer-equal
/// (one published derivation) and matches the reference derivation.
fn check_observations(factory: &SiteFactory, observed: &[Vec<Observation>]) {
    let mut by_rank: std::collections::BTreeMap<u32, Vec<&Observation>> = Default::default();
    for thread in observed {
        for obs in thread {
            by_rank.entry(obs.0).or_default().push(obs);
        }
    }
    for (rank, obs) in by_rank {
        let (_, first_site, first_rt, first_html) = obs[0];
        for (_, site, rt, html) in &obs {
            assert!(
                Arc::ptr_eq(site, first_site),
                "rank {rank}: site Arcs must be pointer-equal across threads"
            );
            assert!(
                Arc::ptr_eq(rt, first_rt),
                "rank {rank}: runtime Arcs must be pointer-equal across threads"
            );
            // The page is long enough to live behind an `Arc<str>`; the
            // shared repr means the byte pointer itself is shared.
            assert_eq!(
                html.as_str().as_ptr(),
                first_html.as_str().as_ptr(),
                "rank {rank}: page HTML must share one allocation"
            );
        }
        // Never torn: what the memo served is exactly the pure
        // single-threaded derivation of (seed, rank).
        let reference = factory.site(rank);
        assert_eq!(**first_site, reference);
        assert_eq!(first_rt.ad_units.len(), reference.ad_units.len());
        let mut expected_html = String::new();
        hb_ecosystem::render_page_html(&reference, factory.specs(), &mut expected_html);
        assert_eq!(first_html.as_str(), expected_html);
    }
}

#[test]
fn eight_threads_share_every_derivation() {
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    let ranks: Vec<u32> = (1..=200).collect();
    let observed = hammer(&factory, &ranks, 8);
    check_observations(&factory, &observed);
}

#[test]
fn cleared_memo_republishes_consistently() {
    // Clearing the memo between rounds forces a fresh publication race;
    // each round must again converge on one allocation per rank, and the
    // re-derived values must match the originals byte for byte.
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    let ranks: Vec<u32> = (1..=64).collect();
    let first = hammer(&factory, &ranks, 4);
    check_observations(&factory, &first);
    factory.clear_memos();
    let second = hammer(&factory, &ranks, 4);
    check_observations(&factory, &second);
    // Across the clear, contents agree even though the allocations are new.
    for (a, b) in first[0].iter().zip(second[0].iter()) {
        assert_eq!(a.1.domain, b.1.domain);
        assert_eq!(a.3.as_str(), b.3.as_str());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary seeds and overlapping rank subsets: N threads racing the
    /// memo always resolve to pointer-equal, untorn derivations. Rank
    /// sets stay far below the shard cap so no eviction interferes with
    /// the pointer-equality half of the property.
    #[test]
    fn concurrent_lookups_share_one_derivation(
        seed in any::<u64>(),
        ranks in proptest::collection::vec(1u32..=200, 8..48),
    ) {
        let factory =
            SiteFactory::new(EcosystemConfig::tiny_scale().with_seed(seed));
        let observed = hammer(&factory, &ranks, 4);
        check_observations(&factory, &observed);
    }
}

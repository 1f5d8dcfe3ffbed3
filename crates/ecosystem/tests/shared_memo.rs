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
//!
//! One race walks more ranks than a memo shard holds, so evictions
//! interleave with publications; there only the second property holds.

use hb_adtech::{AdServerAccount, SiteRuntime};
use hb_ecosystem::{EcosystemConfig, SiteFactory, SiteProfile};
use hb_http::HStr;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// What one thread observed for one rank.
type Observation = (
    u32,
    Arc<SiteProfile>,
    Arc<SiteRuntime>,
    Arc<AdServerAccount>,
    HStr,
);

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
                                factory.gen().account_shared(rank),
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

/// Assert every observation of a rank is an untorn derivation: each
/// distinct handle a thread saw equals the pure single-threaded
/// derivation of (seed, rank). With `shared`, also assert that every
/// observation of a rank across all threads is pointer-equal (one
/// published derivation); eviction legitimately breaks that.
fn check_observations(factory: &SiteFactory, observed: &[Vec<Observation>], shared: bool) {
    // A universe no thread has touched derives every account afresh.
    let pure = SiteFactory::new(factory.config().clone());
    let mut by_rank: BTreeMap<u32, Vec<&Observation>> = BTreeMap::new();
    for thread in observed {
        for obs in thread {
            by_rank.entry(obs.0).or_default().push(obs);
        }
    }
    for (rank, obs) in by_rank {
        let (_, first_site, first_rt, first_account, first_html) = obs[0];
        if shared {
            for (_, site, rt, account, html) in &obs {
                assert!(
                    Arc::ptr_eq(site, first_site),
                    "rank {rank}: site Arcs must be pointer-equal across threads"
                );
                assert!(
                    Arc::ptr_eq(rt, first_rt),
                    "rank {rank}: runtime Arcs must be pointer-equal across threads"
                );
                assert!(
                    Arc::ptr_eq(account, first_account),
                    "rank {rank}: account Arcs must be pointer-equal across threads"
                );
                // The page is long enough to live behind an `Arc<str>`;
                // the shared repr means the byte pointer itself is shared.
                assert_eq!(
                    html.as_str().as_ptr(),
                    first_html.as_str().as_ptr(),
                    "rank {rank}: page HTML must share one allocation"
                );
            }
        }
        // Never torn: what the memo served is exactly the pure
        // single-threaded derivation of (seed, rank).
        let reference = factory.site(rank);
        let runtime = format!("{:?}", factory.runtime_for(&reference));
        let account = format!("{:?}", pure.gen().account_shared(rank));
        let mut html = String::new();
        hb_ecosystem::render_page_html(&reference, factory.specs(), &mut html);
        let mut checked = HashSet::new();
        for (_, site, rt, acct, page) in &obs {
            let handles = (
                Arc::as_ptr(site),
                Arc::as_ptr(rt),
                Arc::as_ptr(acct),
                page.as_str().as_ptr(),
            );
            if checked.insert(handles) {
                assert_eq!(**site, reference, "rank {rank}: site");
                assert_eq!(format!("{rt:?}"), runtime, "rank {rank}: runtime");
                assert_eq!(format!("{acct:?}"), account, "rank {rank}: account");
                assert_eq!(page.as_str(), html, "rank {rank}: page HTML");
            }
        }
    }
}

#[test]
fn eight_threads_share_every_derivation() {
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    let ranks: Vec<u32> = (1..=200).collect();
    let observed = hammer(&factory, &ranks, 8);
    check_observations(&factory, &observed, true);
}

#[test]
fn cleared_memo_republishes_consistently() {
    // Clearing the memo between rounds forces a fresh publication race;
    // each round must again converge on one allocation per rank, and the
    // re-derived values must match the originals byte for byte.
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    let ranks: Vec<u32> = (1..=64).collect();
    let first = hammer(&factory, &ranks, 4);
    check_observations(&factory, &first, true);
    factory.clear_memos();
    let second = hammer(&factory, &ranks, 4);
    check_observations(&factory, &second, true);
    // Across the clear, contents agree even though the allocations are new.
    for (a, b) in first[0].iter().zip(second[0].iter()) {
        assert_eq!(a.1.domain, b.1.domain);
        assert_eq!(a.4.as_str(), b.4.as_str());
    }
}

#[test]
fn racing_past_the_memo_bound_serves_pure_derivations() {
    // 640 ranks per shard against a cap of 512: the threads race
    // evictions as well as publications. Handles may differ across an
    // eviction, but every value served must still be the pure
    // derivation.
    let factory = SiteFactory::new(EcosystemConfig::paper_scale().with_sites(20_000));
    let ranks: Vec<u32> = (1..=16 * 640).collect();
    let observed = hammer(&factory, &ranks, 4);
    check_observations(&factory, &observed, false);
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
        check_observations(&factory, &observed, true);
    }
}

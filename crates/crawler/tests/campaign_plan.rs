//! Oracle for the §3.2 schedule: [`CampaignPlan`] against naive nested
//! loops over arbitrary universes, block sizes, crawl lengths and
//! detected subsets.

use hb_core::{Interner, VisitColumns, VisitRecord};
use hb_crawler::{CampaignPlan, PlanBlock, VisitChunk};
use proptest::prelude::*;

type Block = ((u32, u32), Vec<u32>);

/// The schedule written out longhand: `1..=n_sites` cut into
/// `chunk`-rank blocks on day 0, then the detected ranks, cut the same
/// way, once per revisit day.
fn naive(n_sites: u32, days: u32, chunk: usize, hb: &[bool]) -> Vec<Block> {
    let mut out = Vec::new();
    for day in 0..=days {
        let ranks: Vec<u32> = (1..=n_sites)
            .filter(|&r| day == 0 || hb[r as usize - 1])
            .collect();
        let mut seq = 0;
        let mut lo = 0;
        while lo < ranks.len() {
            let hi = (lo + chunk).min(ranks.len());
            out.push(((day, seq), ranks[lo..hi].to_vec()));
            seq += 1;
            lo = hi;
        }
    }
    out
}

/// The chunk a block would seal into, with `hb` deciding each verdict.
fn crawled(block: &PlanBlock, hb: &[bool]) -> VisitChunk {
    let mut visits = VisitColumns::new();
    for &rank in &block.ranks {
        visits.push(VisitRecord {
            rank,
            day: block.day,
            hb_detected: hb[rank as usize - 1],
            ..VisitRecord::default()
        });
    }
    VisitChunk {
        day: block.day,
        seq: block.seq,
        visits,
        truths: Vec::new(),
        strings: Interner::new(),
    }
}

fn keyed(blocks: Vec<PlanBlock>) -> Vec<Block> {
    blocks.into_iter().map(|b| (b.key(), b.ranks)).collect()
}

proptest! {
    #[test]
    fn plan_matches_naive_nested_loops(
        n_sites in 0u32..300,
        chunk in 1usize..70,
        days in 0u32..4,
        hb in proptest::collection::vec(any::<bool>(), 300),
    ) {
        let mut plan = CampaignPlan::new(n_sites, days, chunk);
        let day0 = plan.day0_blocks();
        for block in &day0 {
            plan.observe(&crawled(block, &hb));
        }
        let revisits = plan.revisit_blocks();
        // Chunks from any other day never reshape the schedule.
        for block in &revisits {
            plan.observe(&crawled(block, &[true; 300]));
        }
        prop_assert_eq!(plan.revisit_blocks(), revisits.clone());

        let mut got = keyed(day0);
        got.extend(keyed(revisits));
        prop_assert_eq!(got, naive(n_sites, days, chunk, &hb));
    }
}

#[test]
fn zero_chunk_clamps_to_one() {
    let plan = CampaignPlan::new(5, 1, 0);
    let keys: Vec<_> = plan.day0_blocks().iter().map(PlanBlock::key).collect();
    assert_eq!(keys, [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]);
}

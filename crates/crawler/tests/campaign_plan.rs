//! Oracle for the §3.2 schedule: [`CampaignPlan`] against naive nested
//! loops over arbitrary universes, shard counts, block sizes, crawl
//! lengths and detected subsets.

use hb_core::{Interner, VisitColumns, VisitRecord};
use hb_crawler::{CampaignPlan, PlanBlock, VisitChunk};
use proptest::prelude::*;

type Block = ((u32, u32, u32), Vec<u32>);

/// The schedule written out longhand: contiguous near-equal shard slices
/// of `1..=n_sites`, each cut into `chunk`-rank blocks on day 0, then the
/// detected ranks of every slice, cut the same way, once per revisit day.
fn naive(n_sites: u32, days: u32, shards: u32, chunk: usize, hb: &[bool]) -> Vec<Block> {
    let mut slices = Vec::new();
    let mut next = 1;
    for s in 0..shards {
        let len = n_sites / shards + u32::from(s < n_sites % shards);
        slices.push((next..next + len).collect::<Vec<u32>>());
        next += len;
    }
    let mut out = Vec::new();
    for day in 0..=days {
        for (shard, slice) in slices.iter().enumerate() {
            let ranks: Vec<u32> = if day == 0 {
                slice.clone()
            } else {
                slice
                    .iter()
                    .copied()
                    .filter(|&r| hb[r as usize - 1])
                    .collect()
            };
            let mut seq = 0;
            let mut lo = 0;
            while lo < ranks.len() {
                let hi = (lo + chunk).min(ranks.len());
                out.push(((day, shard as u32, seq), ranks[lo..hi].to_vec()));
                seq += 1;
                lo = hi;
            }
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
        shard: block.shard,
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
        shards in 1u32..8,
        chunk in 1usize..70,
        days in 0u32..4,
        hb in proptest::collection::vec(any::<bool>(), 300),
    ) {
        let mut plan = CampaignPlan::new(n_sites, days, shards, chunk);
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
        prop_assert_eq!(got, naive(n_sites, days, shards, chunk, &hb));
    }
}

#[test]
fn zero_shards_and_zero_chunk_clamp_to_one() {
    let plan = CampaignPlan::new(5, 1, 0, 0);
    let keys: Vec<_> = plan.day0_blocks().iter().map(PlanBlock::key).collect();
    assert_eq!(
        keys,
        [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4)]
    );
}

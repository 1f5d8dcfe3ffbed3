//! Multi-day crawl campaigns over the ecosystem — sharded and streaming.
//!
//! The paper's methodology, mechanized: a day-0 sweep over the full
//! toplist (detecting which sites run HB at all), followed by daily
//! revisits of the detected HB sites for `crawl_days` days.
//!
//! ## One schedule
//!
//! [`CampaignPlan`] is the only implementation of that schedule. The
//! toplist is split into `shards` contiguous rank slices; each
//! `(day, shard)` group of ranks is cut into `chunk_visits`-sized
//! [`PlanBlock`]s keyed `(day, shard, seq)`. The plan yields the day-0
//! blocks first, collects detected ranks from the day-0 chunks as they
//! fold ([`CampaignPlan::observe`]), then yields the revisit blocks.
//! [`run_campaign_streamed`] drives those two block lists in process,
//! one after the other; the distributed coordinator leases the same
//! blocks to its workers. In process, `shards` only names chunk keys: it
//! changes no thread layout.
//!
//! ## One data path
//!
//! Workers claim blocks from the list, derive each site lazily from the
//! [`SiteFactory`], crawl it straight into columns and flatten the
//! ground truth immediately, interning strings into a block-local
//! interner — sealing the block as a self-contained columnar
//! [`VisitChunk`]. Chunks stream to the caller in `(day, shard, seq)`
//! order the moment they are sealed; the analysis index builder and the
//! dataset CSV writer fold them one at a time, so no row dataset is ever
//! resident.
//!
//! Both lists run the same way at any worker count: the workers hand
//! sealed chunks to the calling thread through one blocking, bounded
//! hand-off (a `Mutex` and a `Condvar`; at most `2 × workers` chunks
//! wait), and the caller's sink runs there, in block order. A panic in a
//! worker or in the sink aborts the run and reaches the caller; it
//! never hangs the campaign. The library prints nothing: a caller that
//! wants progress counts the chunks its sink receives.
//!
//! Determinism: every `(site, day)` visit derives its own RNG stream from
//! the master seed and block boundaries are a pure function of the plan.
//! Because shard slices are contiguous, `(day, shard, seq, rank)` order
//! is exactly the global `(day, rank)` order, so folded figures and
//! dataset bytes are identical for every `parallelism` *and* every
//! `shards` setting.

use crate::chunk::VisitChunk;
use crate::handoff::Handoff;
use crate::session::{crawl_site_into, SessionConfig, VisitScratch};
use hb_core::{Interner, VisitColumns};
use hb_ecosystem::SiteFactory;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Campaign tuning.
#[derive(Debug)]
pub struct CampaignConfig {
    /// Crawl worker threads (0 = available parallelism).
    pub parallelism: usize,
    /// Session policy.
    pub session: SessionConfig,
    /// Number of contiguous toplist shards (1 = unsharded).
    pub shards: u32,
    /// Visits per sealed chunk (block size of the worker scheduler).
    pub chunk_visits: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            parallelism: 0,
            session: SessionConfig::default(),
            shards: 1,
            chunk_visits: 256,
        }
    }
}

/// One schedulable block: the ranks one sealed chunk covers, under the
/// chunk's `(day, shard, seq)` key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanBlock {
    /// Crawl day.
    pub day: u32,
    /// Shard.
    pub shard: u32,
    /// Position within the `(day, shard)` rank list.
    pub seq: u32,
    /// Ranks to visit, ascending.
    pub ranks: Vec<u32>,
}

impl PlanBlock {
    /// The key of the chunk this block seals into.
    pub fn key(&self) -> (u32, u32, u32) {
        (self.day, self.shard, self.seq)
    }
}

/// The paper's §3.2 schedule over one universe: a day-0 sweep of the
/// toplist, then daily revisits of the ranks detected as HB on day 0.
///
/// The day-0 part is known up front; the revisit part depends on what
/// the sweep detects, so feed every day-0 chunk to
/// [`observe`](CampaignPlan::observe) in fold order (`(shard, seq)`)
/// before asking for [`revisit_blocks`](CampaignPlan::revisit_blocks).
#[derive(Clone, Debug)]
pub struct CampaignPlan {
    n_sites: u32,
    crawl_days: u32,
    shards: u32,
    chunk_visits: usize,
    /// Detected HB ranks per shard, in fold order.
    detected: Vec<Vec<u32>>,
}

impl CampaignPlan {
    /// Plan a campaign over ranks `1..=n_sites` for `crawl_days` revisit
    /// days, split into `shards` contiguous slices and `chunk_visits`-rank
    /// blocks (both clamped to at least 1). Shards past the site count
    /// would be empty slices that seal no blocks, so `shards` is also
    /// clamped to `n_sites`: the schedule is the same, and a huge shard
    /// count costs nothing.
    pub fn new(n_sites: u32, crawl_days: u32, shards: u32, chunk_visits: usize) -> CampaignPlan {
        let shards = shards.clamp(1, n_sites.max(1));
        CampaignPlan {
            n_sites,
            crawl_days,
            shards,
            chunk_visits: chunk_visits.max(1),
            detected: vec![Vec::new(); shards as usize],
        }
    }

    /// Every day-0 block, in `(shard, seq)` order. Shard slices of the
    /// toplist are contiguous and differ in length by at most one, so
    /// `(day, shard, seq, rank)` order is the global `(day, rank)` order —
    /// the fold-order invariant.
    pub fn day0_blocks(&self) -> Vec<PlanBlock> {
        let (base, rem) = (self.n_sites / self.shards, self.n_sites % self.shards);
        let mut blocks = Vec::new();
        for shard in 0..self.shards {
            let lo = 1 + shard * base + shard.min(rem);
            let len = base + u32::from(shard < rem);
            let ranks: Vec<u32> = (lo..lo + len).collect();
            self.cut(&mut blocks, 0, shard, &ranks);
        }
        blocks
    }

    /// Record the HB ranks a folded chunk detected. Only day-0 chunks
    /// shape the schedule; any other chunk is ignored.
    pub fn observe(&mut self, chunk: &VisitChunk) {
        if chunk.day != 0 {
            return;
        }
        if let Some(ranks) = self.detected.get_mut(chunk.shard as usize) {
            ranks.extend(
                chunk
                    .visits
                    .iter()
                    .filter(|v| v.hb_detected)
                    .map(|v| v.rank),
            );
        }
    }

    /// Every revisit block of days `1..=crawl_days` — each shard's
    /// detected ranks — in `(day, shard, seq)` order.
    pub fn revisit_blocks(&self) -> Vec<PlanBlock> {
        let mut blocks = Vec::new();
        for day in 1..=self.crawl_days {
            for (shard, ranks) in self.detected.iter().enumerate() {
                self.cut(&mut blocks, day, shard as u32, ranks);
            }
        }
        blocks
    }

    /// Append `ranks` cut into `chunk_visits`-rank blocks of
    /// `(day, shard)`, the last block taking the remainder.
    fn cut(&self, blocks: &mut Vec<PlanBlock>, day: u32, shard: u32, ranks: &[u32]) {
        let cut = ranks.chunks(self.chunk_visits).enumerate();
        blocks.extend(cut.map(|(seq, ranks)| PlanBlock {
            day,
            shard,
            seq: seq as u32,
            ranks: ranks.to_vec(),
        }));
    }
}

/// Crawl one block of ranks into a sealed, self-contained chunk — the
/// unit of lease-based distribution.
///
/// This is the exact iteration the in-process runner's workers run per
/// claimed block, exposed so a remote worker
/// holding a `(day, shard, seq)` lease produces byte-identical chunks: a
/// block-local interner, direct-to-column visits via [`crawl_site_into`],
/// ground truth flattened in place. `on_visit` fires after every finished
/// visit with the count of visits completed in this block (lease
/// heartbeats, per-visit timing).
#[allow(clippy::too_many_arguments)] // mirrors crawl_site_into's shape
pub fn crawl_block_into(
    factory: &SiteFactory,
    ranks: &[u32],
    day: u32,
    shard: u32,
    seq: u32,
    session: &SessionConfig,
    scratch: &mut VisitScratch,
    net: &hb_adtech::Net,
    on_visit: &mut dyn FnMut(usize),
) -> VisitChunk {
    crawl_block_until(
        factory,
        ranks,
        day,
        shard,
        seq,
        session,
        scratch,
        net,
        &mut |i| {
            on_visit(i);
            true
        },
    )
    .expect("an always-true keep_going never abandons the block")
}

/// [`crawl_block_into`], but abortable: `keep_going` fires after every
/// finished visit (with the count of visits completed in this block) and
/// returns whether to continue. Returning `false` abandons the block —
/// `None` comes back and no partial chunk exists anywhere. A distributed
/// worker whose lease expired, or whose coordinator stopped answering
/// heartbeats, uses this to stop burning CPU on a block that will be
/// re-crawled elsewhere (visits are pure in `(seed, rank, day)`, so the
/// abandoned work is perfectly reproducible).
#[allow(clippy::too_many_arguments)] // mirrors crawl_site_into's shape
pub fn crawl_block_until(
    factory: &SiteFactory,
    ranks: &[u32],
    day: u32,
    shard: u32,
    seq: u32,
    session: &SessionConfig,
    scratch: &mut VisitScratch,
    net: &hb_adtech::Net,
    keep_going: &mut dyn FnMut(usize) -> bool,
) -> Option<VisitChunk> {
    let mut strings = Interner::new();
    let mut visits = VisitColumns::with_capacity(ranks.len());
    let mut truths = Vec::with_capacity(ranks.len());
    for (i, &rank) in ranks.iter().enumerate() {
        // Direct-to-column: the detector appends the finished row
        // straight into the chunk's columns and the ground truth is
        // flattened in place — no owned row per visit.
        let _ = crawl_site_into(
            net.clone(),
            factory.runtime_shared(rank),
            factory.visit_rng(rank, day),
            day,
            session,
            &mut strings,
            scratch,
            &mut visits,
            &mut truths,
        );
        if !keep_going(i + 1) {
            return None;
        }
    }
    Some(VisitChunk {
        day,
        shard,
        seq,
        visits,
        truths,
        strings,
    })
}

fn worker_count(cfg: &CampaignConfig) -> usize {
    if cfg.parallelism == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        cfg.parallelism
    }
}

/// Crawl `blocks` in order, streaming each sealed chunk to `sink` on the
/// calling thread, in `blocks` order.
///
/// Workers claim blocks via an atomic cursor; each block is crawled in
/// rank order into its own columnar chunk with a block-local interner,
/// so no symbol state is shared between threads. Ground truth is
/// flattened to [`TruthRecord`](crate::TruthRecord)s as visits finish —
/// the heavyweight simulation state never outlives the visit. Sealed
/// chunks reach `sink` through a [`Handoff`].
fn run_blocks(
    factory: &SiteFactory,
    blocks: &[PlanBlock],
    cfg: &CampaignConfig,
    sink: &mut dyn FnMut(VisitChunk),
) {
    let producers = worker_count(cfg).min(blocks.len());
    let handoff = Handoff::new(producers);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..producers {
            scope.spawn(|| {
                let _producer = handoff.producer();
                // Per-worker scratch: pooled simulation, browser, detector
                // buffers and message pools live for the whole call, not
                // one visit.
                let mut scratch = VisitScratch::new(factory.partner_list());
                loop {
                    let b = next.fetch_add(1, Ordering::Relaxed);
                    let Some(block) = blocks.get(b) else {
                        break;
                    };
                    let chunk = crawl_block_into(
                        factory,
                        &block.ranks,
                        block.day,
                        block.shard,
                        block.seq,
                        &cfg.session,
                        &mut scratch,
                        &factory.net_for_day(block.day),
                        &mut |_| {},
                    );
                    if !handoff.publish(b, chunk) {
                        break; // the run aborted
                    }
                }
            });
        }
        let _consumer = handoff.consumer();
        for _ in blocks {
            match handoff.consume() {
                Some(chunk) => sink(chunk),
                // A producer died before publishing this block; the scope
                // join propagates its panic.
                None => break,
            }
        }
    });
}

/// Run the whole campaign in process, streaming chunks to `sink` in
/// `(day, shard, seq)` order: one `run_blocks` call over the
/// [`CampaignPlan`]'s day-0 blocks, whose chunks the plan observes, then
/// one over its revisit blocks. Consumers like the analysis layer's
/// incremental index builder or the dataset CSV writer fold chunks as
/// they arrive and drop them, so no row dataset is ever resident.
pub fn run_campaign_streamed(
    factory: &SiteFactory,
    cfg: &CampaignConfig,
    sink: &mut dyn FnMut(VisitChunk),
) {
    let config = factory.config();
    let mut plan = CampaignPlan::new(
        config.n_sites,
        config.crawl_days,
        cfg.shards,
        cfg.chunk_visits,
    );
    run_blocks(factory, &plan.day0_blocks(), cfg, &mut |chunk| {
        plan.observe(&chunk);
        sink(chunk);
    });
    run_blocks(factory, &plan.revisit_blocks(), cfg, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetWriter;
    use hb_ecosystem::{EcosystemConfig, SiteFactory};
    use std::collections::BTreeSet;

    fn campaign(eco: &SiteFactory, cfg: &CampaignConfig) -> Vec<VisitChunk> {
        let mut chunks = Vec::new();
        run_campaign_streamed(eco, cfg, &mut |c| chunks.push(c));
        chunks
    }

    /// The three dataset CSVs of a chunk stream, concatenated: the
    /// resolved-text view of every visit, bid and truth.
    fn csv_bytes(chunks: &[VisitChunk]) -> Vec<u8> {
        let mut w = DatasetWriter::new(Vec::new(), Vec::new(), Vec::new()).unwrap();
        for c in chunks {
            w.write_chunk(c).unwrap();
        }
        w.finish().unwrap().concat()
    }

    #[test]
    fn campaign_covers_sweep_plus_daily() {
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        let chunks = campaign(&eco, &CampaignConfig::default());
        let visits: usize = chunks.iter().map(VisitChunk::len).sum();
        let hb_day0 = chunks
            .iter()
            .filter(|c| c.day == 0)
            .flat_map(|c| c.visits.iter())
            .filter(|v| v.hb_detected)
            .count();
        assert_eq!(
            visits,
            eco.config().n_sites as usize + hb_day0 * eco.config().crawl_days as usize
        );
        for c in &chunks {
            assert_eq!(c.truths.len(), c.len());
        }
    }

    #[test]
    fn detector_matches_ground_truth_adoption() {
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        let chunks = campaign(&eco, &CampaignConfig::default());
        let truth_hb: BTreeSet<_> = eco.hb_sites().map(|s| s.domain).collect();
        let detected: BTreeSet<&str> = chunks
            .iter()
            .filter(|c| c.day == 0)
            .flat_map(|c| {
                c.visits
                    .iter()
                    .filter(|v| v.hb_detected)
                    .map(|v| c.strings.resolve(v.domain))
            })
            .collect();
        // 100% precision (paper §4.1): nothing detected that is not HB.
        for d in &detected {
            assert!(truth_hb.contains(*d), "{d} is a false positive");
        }
        // Near-100% recall in the simulated world (page loads can fail
        // under fault injection, so allow a small gap).
        let recall = detected.len() as f64 / truth_hb.len() as f64;
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn campaign_is_deterministic_across_parallelism() {
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
        let (a, b) = (at(1), at(4));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            // Sealed frames match byte for byte: same key, same
            // block-local interner numbering, same rows and truths.
            assert_eq!(x.encode(), y.encode(), "chunk {:?} differs", x.key());
        }
    }

    #[test]
    fn sharding_does_not_change_results() {
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        let one = campaign(&eco, &CampaignConfig::default());
        let four = campaign(
            &eco,
            &CampaignConfig {
                shards: 4,
                chunk_visits: 17, // odd block size to stress the fold order
                ..CampaignConfig::default()
            },
        );
        let ranks = |chunks: &[VisitChunk]| -> Vec<(u32, u32)> {
            chunks
                .iter()
                .flat_map(|c| c.visits.iter().map(|v| (v.day, v.rank)))
                .collect()
        };
        assert_eq!(
            ranks(&one),
            ranks(&four),
            "visit order differs under sharding"
        );
        assert_eq!(csv_bytes(&one), csv_bytes(&four));
    }

    #[test]
    fn single_shard_crawl_matches_its_slice_of_the_campaign() {
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        // Shard 1 of a 4-shard campaign…
        let sharded = campaign(
            &eco,
            &CampaignConfig {
                shards: 4,
                ..CampaignConfig::default()
            },
        );
        let got: Vec<_> = sharded
            .iter()
            .filter(|c| c.shard == 1)
            .flat_map(|c| c.visits.iter().map(|v| v.to_record()))
            .collect();
        // …visits exactly that slice of the unsharded campaign.
        let full = campaign(&eco, &CampaignConfig::default());
        let slice: Vec<u32> = CampaignPlan::new(eco.config().n_sites, 0, 4, 1)
            .day0_blocks()
            .into_iter()
            .filter(|b| b.shard == 1)
            .flat_map(|b| b.ranks)
            .collect();
        let want: Vec<_> = full
            .iter()
            .flat_map(|c| c.visits.iter().map(|v| v.to_record()))
            .filter(|v| slice.contains(&v.rank))
            .collect();
        assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(&want) {
            assert_eq!(got.rank, want.rank);
            assert_eq!(got.day, want.day);
            assert_eq!(got.hb_latency_ms, want.hb_latency_ms);
            assert_eq!(got.bids.len(), want.bids.len());
        }
    }

    #[test]
    fn shard_slices_partition_the_toplist() {
        for (n, shards) in [(200u32, 4u32), (7u32, 3), (5, 8), (1, 1), (5, u32::MAX)] {
            let blocks = CampaignPlan::new(n, 0, shards, 1).day0_blocks();
            let keyed: BTreeSet<u32> = blocks.iter().map(|b| b.shard).collect();
            assert_eq!(keyed.len(), shards.min(n) as usize);
            let seen: Vec<u32> = blocks.into_iter().flat_map(|b| b.ranks).collect();
            let want: Vec<u32> = (1..=n).collect();
            assert_eq!(seen, want, "n={n} shards={shards}");
        }
    }

    #[test]
    fn runner_emits_exactly_the_plan_blocks() {
        // The runner against the schedule: the chunks it streams carry the
        // keys and ranks of the plan's day-0 blocks, then of the revisit
        // blocks of a plan that observed the same day-0 chunks.
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale().with_days(2));
        let config = eco.config();
        for shards in [1, 3, 8] {
            for chunk_visits in [1, 7, 64] {
                for parallelism in [1, 4] {
                    let cfg = CampaignConfig {
                        parallelism,
                        shards,
                        chunk_visits,
                        ..CampaignConfig::default()
                    };
                    let chunks = campaign(&eco, &cfg);
                    let got: Vec<((u32, u32, u32), Vec<u32>)> = chunks
                        .iter()
                        .map(|c| (c.key(), c.visits.iter().map(|v| v.rank).collect()))
                        .collect();
                    let mut plan =
                        CampaignPlan::new(config.n_sites, config.crawl_days, shards, chunk_visits);
                    let mut want = plan.day0_blocks();
                    for c in chunks.iter().filter(|c| c.day == 0) {
                        plan.observe(c);
                    }
                    want.extend(plan.revisit_blocks());
                    let want: Vec<_> = want.into_iter().map(|b| (b.key(), b.ranks)).collect();
                    assert!(want.iter().any(|((day, ..), _)| *day == 2));
                    assert_eq!(got, want, "{cfg:?}");
                }
            }
        }
    }

    /// Runs a campaign whose progress callback (the chunk sink, which is
    /// where `crawl` counts and reports visits) panics on its first chunk,
    /// on a thread of its own with a time limit. The panic happens on the
    /// calling thread while the run's workers are live; the consumer
    /// guard must abort the run, releasing workers blocked on the
    /// hand-off bound, and the panic must reach the campaign caller. The
    /// failure mode this pins down is a silently hung campaign.
    fn assert_panicking_progress_sink_surfaces(parallelism: usize) {
        use std::sync::mpsc;
        use std::time::Duration;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
            let cfg = CampaignConfig {
                parallelism,
                chunk_visits: 8, // many blocks so workers race ahead
                ..CampaignConfig::default()
            };
            let mut visits = 0usize;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_campaign_streamed(&eco, &cfg, &mut |chunk| {
                    visits += chunk.visits.len();
                    panic!("progress observer dies after {visits} visits")
                })
            }));
            // The factory is untouched by the failed campaign: a clean
            // run afterwards still works.
            let clean = !campaign(&eco, &CampaignConfig::default()).is_empty();
            let _ = tx.send((result.is_err(), clean));
        });
        let (panicked, clean) = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("campaign hung on a panicking sink at {parallelism}"));
        assert!(panicked, "the sink panic must surface at {parallelism}");
        assert!(clean, "a later campaign must still run at {parallelism}");
    }

    #[test]
    fn panicking_progress_callback_aborts_not_hangs() {
        assert_panicking_progress_sink_surfaces(4);
    }

    #[test]
    fn panicking_progress_callback_single_worker_surfaces() {
        // One worker takes the same hand-off path as four.
        assert_panicking_progress_sink_surfaces(1);
    }

    #[test]
    fn dataset_statistics_plausible() {
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        let chunks = campaign(&eco, &CampaignConfig::default());
        let hb = || {
            chunks
                .iter()
                .flat_map(|c| c.visits.iter())
                .filter(|v| v.hb_detected)
        };
        let auctions: u64 = hb().map(|v| v.slots_auctioned as u64).sum();
        let bids: u64 = hb().map(|v| v.bids.len() as u64).sum();
        assert!(auctions > 0);
        assert!(bids > 0);
        assert!(hb().any(|v| !v.partners.is_empty()));
        // Bids per auction should be well below 1 for clean profiles.
        let ratio = bids as f64 / auctions as f64;
        assert!(ratio < 1.5, "bids/auction {ratio}");
    }
}

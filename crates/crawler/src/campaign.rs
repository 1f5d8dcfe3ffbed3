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
//! `(day, shard)` group of ranks is one batch, cut into
//! `chunk_visits`-sized [`PlanBlock`]s keyed `(day, shard, seq)`. The
//! plan yields the day-0 blocks first, collects detected ranks from the
//! day-0 chunks as they fold ([`CampaignPlan::observe`]), then yields
//! the revisit blocks. [`run_campaign_streamed`] drives it in process,
//! one batch at a time; the distributed coordinator drives the same plan
//! over leases, one block at a time.
//!
//! ## One data path
//!
//! Workers claim blocks of a batch, derive each site lazily from the
//! [`SiteFactory`], crawl it straight into columns and flatten the
//! ground truth immediately, interning strings into a block-local
//! interner — sealing the block as a self-contained columnar
//! [`VisitChunk`]. Chunks stream to the caller in `(day, shard, seq)`
//! order the moment they are sealed; the analysis index builder and the
//! dataset CSV writer fold them one at a time, so no row dataset is ever
//! resident.
//!
//! Determinism: every `(site, day)` visit derives its own RNG stream from
//! the master seed and block boundaries are a pure function of the plan.
//! Because shard slices are contiguous, `(day, shard, seq, rank)` order
//! is exactly the global `(day, rank)` order, so folded figures and
//! dataset bytes are identical for every `parallelism` *and* every
//! `shards` setting.

use crate::chunk::VisitChunk;
use crate::ring::SlotRing;
use crate::session::{crawl_site_into, SessionConfig, VisitScratch};
use hb_core::{Interner, VisitColumns};
use hb_ecosystem::SiteFactory;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A progress observation delivered to [`CampaignConfig::progress`].
#[derive(Clone, Copy, Debug)]
pub struct CampaignProgress {
    /// Shard reporting progress.
    pub shard: u32,
    /// Day of the batch being crawled (0 = adoption sweep).
    pub day: u32,
    /// Visits finished in the current batch.
    pub done: usize,
    /// Total visits in the current batch.
    pub total: usize,
}

/// Progress callback: called from crawl worker threads, so it must be
/// `Send + Sync`. Library users decide what to do with it — nothing is
/// ever printed by the library itself.
pub type ProgressFn = Box<dyn Fn(CampaignProgress) + Send + Sync>;

/// Campaign tuning.
pub struct CampaignConfig {
    /// Worker threads per shard batch (0 = available parallelism).
    pub parallelism: usize,
    /// Session policy.
    pub session: SessionConfig,
    /// Number of contiguous toplist shards (1 = unsharded).
    pub shards: u32,
    /// Visits per sealed chunk (block size of the worker scheduler).
    pub chunk_visits: usize,
    /// Progress callback interval in visits; 0 disables progress entirely.
    pub progress_every: usize,
    /// Progress callback (replaces the stderr printing of earlier
    /// versions; `None` = silent).
    pub progress: Option<ProgressFn>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            parallelism: 0,
            session: SessionConfig::default(),
            shards: 1,
            chunk_visits: 256,
            progress_every: 0,
            progress: None,
        }
    }
}

impl fmt::Debug for CampaignConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignConfig")
            .field("parallelism", &self.parallelism)
            .field("session", &self.session)
            .field("shards", &self.shards)
            .field("chunk_visits", &self.chunk_visits)
            .field("progress_every", &self.progress_every)
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .finish()
    }
}

/// One `(day, shard)` group of the schedule: the ranks one batch crawls,
/// in rank order. A batch seals into [`PlanBatch::n_blocks`] chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PlanBatch {
    /// Crawl day (0 = adoption sweep).
    pub(crate) day: u32,
    /// Shard owning the ranks.
    pub(crate) shard: u32,
    /// Ranks to visit, ascending.
    pub(crate) ranks: Vec<u32>,
    chunk_visits: usize,
}

impl PlanBatch {
    /// Number of blocks (and sealed chunks) the batch splits into.
    pub(crate) fn n_blocks(&self) -> usize {
        self.ranks.len().div_ceil(self.chunk_visits)
    }

    /// The ranks of block `seq`: `chunk_visits` consecutive ranks, the
    /// last block taking the remainder.
    pub(crate) fn block(&self, seq: usize) -> &[u32] {
        let lo = seq * self.chunk_visits;
        &self.ranks[lo..(lo + self.chunk_visits).min(self.ranks.len())]
    }

    /// Every block of the batch, in `seq` order.
    fn blocks(&self) -> impl Iterator<Item = PlanBlock> + '_ {
        (0..self.n_blocks()).map(|seq| PlanBlock {
            day: self.day,
            shard: self.shard,
            seq: seq as u32,
            ranks: self.block(seq).to_vec(),
        })
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
    /// Position within the `(day, shard)` batch.
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

    /// Day 0: each shard's slice of the toplist, in shard order. Slices
    /// are contiguous and differ in length by at most one, so
    /// `(day, shard, rank)` order is the global `(day, rank)` order — the
    /// fold-order invariant.
    pub(crate) fn day0_batches(&self) -> Vec<PlanBatch> {
        let (base, rem) = (self.n_sites / self.shards, self.n_sites % self.shards);
        (0..self.shards)
            .map(|shard| {
                let lo = 1 + shard * base + shard.min(rem);
                let len = base + u32::from(shard < rem);
                self.batch(0, shard, (lo..lo + len).collect())
            })
            .collect()
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

    /// Days `1..=crawl_days`: each shard's detected ranks, in
    /// `(day, shard)` order.
    pub(crate) fn revisit_batches(&self) -> Vec<PlanBatch> {
        (1..=self.crawl_days)
            .flat_map(|day| {
                self.detected
                    .iter()
                    .enumerate()
                    .map(move |(shard, ranks)| self.batch(day, shard as u32, ranks.clone()))
            })
            .collect()
    }

    /// Every day-0 block, in `(shard, seq)` order.
    pub fn day0_blocks(&self) -> Vec<PlanBlock> {
        self.day0_batches()
            .iter()
            .flat_map(PlanBatch::blocks)
            .collect()
    }

    /// Every revisit block, in `(day, shard, seq)` order.
    pub fn revisit_blocks(&self) -> Vec<PlanBlock> {
        self.revisit_batches()
            .iter()
            .flat_map(PlanBatch::blocks)
            .collect()
    }

    fn batch(&self, day: u32, shard: u32, ranks: Vec<u32>) -> PlanBatch {
        PlanBatch {
            day,
            shard,
            ranks,
            chunk_visits: self.chunk_visits,
        }
    }
}

/// Crawl one block of ranks into a sealed, self-contained chunk — the
/// unit of lease-based distribution.
///
/// This is the exact iteration the in-process scheduler runs per claimed
/// block (its batch runner delegates here), exposed so a remote worker
/// holding a `(day, shard, seq)` lease produces byte-identical chunks: a
/// block-local interner, direct-to-column visits via [`crawl_site_into`],
/// ground truth flattened in place. `on_visit` fires after every finished
/// visit with the count of visits completed in this block (progress
/// callbacks, lease heartbeats).
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

/// Crawl one `(day, shard)` batch of the plan, streaming sealed chunks
/// to `sink` in `seq` order.
///
/// Workers claim the batch's blocks via an atomic cursor; each block is
/// crawled in rank order into its own columnar chunk with a block-local
/// interner, so no symbol state is shared between threads. Ground truth
/// is flattened to [`TruthRecord`](crate::TruthRecord)s as visits finish —
/// the heavyweight simulation state never outlives the visit.
fn run_batch(
    factory: &SiteFactory,
    batch: &PlanBatch,
    cfg: &CampaignConfig,
    sink: &mut dyn FnMut(VisitChunk),
) {
    let n_blocks = batch.n_blocks();
    if n_blocks == 0 {
        return;
    }
    let (day, shard) = (batch.day, batch.shard);
    let workers = worker_count(cfg);
    let total = batch.ranks.len();
    let done = AtomicUsize::new(0);

    // One worker's block body: crawl block `b` into a sealed chunk via
    // the shared lease-block iteration.
    let crawl_block = |b: usize, scratch: &mut VisitScratch, net: &hb_adtech::Net| {
        crawl_block_into(
            factory,
            batch.block(b),
            day,
            shard,
            b as u32,
            &cfg.session,
            scratch,
            net,
            &mut |_| {
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                if cfg.progress_every > 0 && n % cfg.progress_every == 0 {
                    if let Some(cb) = &cfg.progress {
                        cb(CampaignProgress {
                            shard,
                            day,
                            done: n,
                            total,
                        });
                    }
                }
            },
        )
    };

    if workers.min(n_blocks) == 1 {
        // Single-worker batch (one core, or one block): run inline on the
        // calling thread. No scope, no spawn, no channel hand-off — on a
        // single-core box the cross-thread chunk relay alone costs more
        // than a sealed chunk is worth. Blocks run in `seq` order by
        // construction, so the sink sees the identical chunk stream.
        let net = factory.net_for_day(day);
        let mut scratch = VisitScratch::new(factory.partner_list());
        for b in 0..n_blocks {
            sink(crawl_block(b, &mut scratch, &net));
        }
        return;
    }

    // Multi-worker batch: chunks hand off through a bounded slot ring —
    // block `b` travels through slot `b % capacity`, so the consumer
    // drains in `seq` order with no reorder window, nothing allocates per
    // hand-off, and at most `capacity` sealed chunks are ever in flight
    // (the mpsc relay was unbounded and allocated a node per chunk).
    let producers = workers.min(n_blocks);
    let ring: SlotRing<VisitChunk> = SlotRing::new(producers * 2, producers);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let next = &next;
        let ring = &ring;
        let crawl_block = &crawl_block;
        for _ in 0..producers {
            scope.spawn(move || {
                // Mark this producer finished on any exit — and abort the
                // batch on panic — so neither the consumer nor a sibling
                // blocked on ring capacity ever waits on a dead worker.
                let _guard = ring.producer_guard();
                let net = factory.net_for_day(day);
                // Per-worker scratch: pooled simulation, browser, detector
                // buffers and message pools live for the whole batch, not
                // one visit.
                let mut scratch = VisitScratch::new(factory.partner_list());
                loop {
                    let b = next.fetch_add(1, Ordering::Relaxed);
                    if b >= n_blocks {
                        break;
                    }
                    if !ring.publish(b, crawl_block(b, &mut scratch, &net)) {
                        break; // batch aborted
                    }
                }
            });
        }
        // The guard aborts the batch when the consumer stops for any
        // reason (sink panic included), releasing producers blocked on
        // ring capacity; after a fully drained batch it is a no-op.
        let _consumer = ring.consumer_guard();
        for b in 0..n_blocks {
            match ring.consume(b) {
                Some(chunk) => sink(chunk),
                // The batch aborted (a producer died before publishing
                // `b`); stop consuming — the scope join below propagates
                // its panic.
                None => break,
            }
        }
    });
}

/// Run the whole campaign in process, streaming chunks to `sink` in
/// `(day, shard, seq)` order — one `run_batch` call per `(day, shard)`
/// batch of the [`CampaignPlan`]. Consumers like the analysis layer's
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
    for batch in plan.day0_batches() {
        run_batch(factory, &batch, cfg, &mut |chunk| {
            plan.observe(&chunk);
            sink(chunk);
        });
    }
    for batch in plan.revisit_batches() {
        run_batch(factory, &batch, cfg, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetWriter;
    use hb_ecosystem::{EcosystemConfig, SiteFactory};
    use std::collections::BTreeSet;
    use std::sync::Arc;

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
        let slice = &CampaignPlan::new(eco.config().n_sites, 0, 4, 1).day0_batches()[1].ranks;
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
            let batches = CampaignPlan::new(n, 0, shards, 1).day0_batches();
            assert_eq!(batches.len(), shards.min(n) as usize);
            let seen: Vec<u32> = batches.into_iter().flat_map(|b| b.ranks).collect();
            let want: Vec<u32> = (1..=n).collect();
            assert_eq!(seen, want, "n={n} shards={shards}");
        }
    }

    #[test]
    fn progress_callback_fires_off_stderr() {
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let cfg = CampaignConfig {
            progress_every: 10,
            progress: Some(Box::new(move |p: CampaignProgress| {
                assert!(p.done <= p.total);
                h.fetch_add(1, Ordering::Relaxed);
            })),
            ..CampaignConfig::default()
        };
        run_campaign_streamed(&eco, &cfg, &mut |_| {});
        assert!(hits.load(Ordering::Relaxed) > 0, "callback never fired");
    }

    #[test]
    fn panicking_progress_callback_aborts_not_hangs() {
        // A ProgressFn that panics does so on a crawl worker thread while
        // the batch's slot ring is live. The producer guard must abort the
        // batch (releasing the consumer and any sibling blocked on ring
        // capacity) and the panic must surface to the campaign caller —
        // the failure mode this pins down is a silently hung campaign.
        use std::sync::mpsc;
        use std::time::Duration;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
            let cfg = CampaignConfig {
                parallelism: 4,
                chunk_visits: 8, // many blocks so producers race ahead
                progress_every: 1,
                progress: Some(Box::new(|_| panic!("observer dies"))),
                ..CampaignConfig::default()
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_campaign_streamed(&eco, &cfg, &mut |_| {})
            }));
            let _ = tx.send(result.is_err());
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("campaign hung on a panicking ProgressFn");
        assert!(panicked, "the ProgressFn panic must surface to the caller");
    }

    #[test]
    fn panicking_progress_callback_single_worker_surfaces() {
        // The single-worker batch path runs inline with no ring; the panic
        // must still propagate (and not poison later campaigns).
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        let cfg = CampaignConfig {
            parallelism: 1,
            progress_every: 1,
            progress: Some(Box::new(|_| panic!("observer dies"))),
            ..CampaignConfig::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign_streamed(&eco, &cfg, &mut |_| {})
        }));
        assert!(result.is_err());
        // The ecosystem is untouched by the failed campaign: a clean run
        // afterwards still works.
        assert!(!campaign(&eco, &CampaignConfig::default()).is_empty());
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

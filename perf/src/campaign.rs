//! `paper_campaign`: the paper's crawl (day-0 sweep plus daily revisits of
//! the detected HB sites) folded into the figure index and rendered.
//!
//! The untraced run goes through the production entry point,
//! `run_campaign_streamed`. The traced run drives the same
//! `(day, shard, seq)` blocks through the public `crawl_block_into` on the
//! same number of threads, folds them in key order, and times every call
//! it makes into a layer.

use crate::figures::{self, Figures, Tally};
use crate::metrics::{self, CAT_CRAWL};
use hb_analysis::{DatasetIndex, DatasetIndexBuilder};
use hb_crawler::{
    crawl_block_into, run_campaign_streamed, CampaignConfig, SessionConfig, VisitChunk,
    VisitScratch,
};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One repetition's end-to-end readings.
pub struct CampaignRun {
    /// Factory build.
    pub setup: Duration,
    /// First block to last fold.
    pub crawl: Duration,
    /// Crawl start to the last CSV rendered.
    pub wall: Duration,
    /// Correctness counts over the folded stream.
    pub tally: Tally,
    /// The rendered figures.
    pub figures: Figures,
    /// HB auction latency p50/p99/p999 (sim-time ms).
    pub latency_ms: (f64, f64, f64),
}

/// Untraced: `run_campaign_streamed` on `workers` threads, each chunk
/// folded into `DatasetIndexBuilder` as it streams out.
pub fn run(eco: &EcosystemConfig, workers: usize) -> Result<CampaignRun, String> {
    let t_setup = Instant::now();
    let factory = SiteFactory::new(eco.clone());
    let setup = t_setup.elapsed();
    let cfg = CampaignConfig {
        parallelism: workers,
        ..CampaignConfig::default()
    };
    let mut builder = DatasetIndexBuilder::new(eco.n_sites, eco.crawl_days);
    let mut tally = Tally::default();
    let t0 = Instant::now();
    run_campaign_streamed(&factory, &cfg, &mut |chunk| {
        tally.observe(&chunk);
        builder.push_chunk(&chunk);
    });
    let crawl = t0.elapsed();
    let ix = builder.finish();
    let figures = figures::render(&ix, eco.seed);
    let wall = t0.elapsed();
    tally.check(eco)?;
    Ok(CampaignRun {
        setup,
        crawl,
        wall,
        tally,
        figures,
        latency_ms: figures::hb_latency_ms(&ix),
    })
}

/// Per-layer timings of one traced campaign.
#[derive(Default)]
pub struct CrawlTrace {
    /// Derivation time per rank on day 0 (cold memo).
    pub derive_day0: Vec<Duration>,
    /// Derivation time per rank on revisit days (memo-resident).
    pub derive_revisit: Vec<Duration>,
    /// Visit wall times from `on_visit` timestamps.
    pub visit: Vec<Duration>,
    /// Visit wall times by flow: client-side, server-side, hybrid,
    /// waterfall (ground-truth facet).
    pub visit_by_flow: [Vec<Duration>; 4],
    /// Block wall minus its visits (block set-up and chunk sealing).
    pub block_overhead: Vec<Duration>,
    /// Worker time blocked on the in-flight bound.
    pub worker_wait: Duration,
}

impl CrawlTrace {
    fn absorb(&mut self, o: CrawlTrace) {
        self.derive_day0.extend(o.derive_day0);
        self.derive_revisit.extend(o.derive_revisit);
        self.visit.extend(o.visit);
        for (a, b) in self.visit_by_flow.iter_mut().zip(o.visit_by_flow) {
            a.extend(b);
        }
        self.block_overhead.extend(o.block_overhead);
        self.worker_wait += o.worker_wait;
    }
}

/// Flow index of a ground-truth facet label.
pub fn flow_of(facet: &str) -> usize {
    match facet {
        "client-side" => 0,
        "server-side" => 1,
        "hybrid" => 2,
        _ => 3,
    }
}

/// Timings of the fold (main) thread.
#[derive(Default)]
pub struct FoldTrace {
    /// Waiting for the next in-order chunk.
    pub sink_wait: Duration,
    /// `DatasetIndexBuilder::push_chunk` per chunk.
    pub fold: Vec<Duration>,
    /// `VisitChunk::encode` on sampled chunks.
    pub encode: Vec<Duration>,
    /// `VisitChunk::decode` on sampled chunks.
    pub decode: Vec<Duration>,
    /// Encoded frame sizes of the sampled chunks.
    pub frame_bytes: Vec<f64>,
    /// Benchmark bookkeeping on the fold thread (tally, schedule).
    pub bench: Duration,
}

/// Time one `VisitChunk` wire round trip and check it reproduces the chunk.
pub fn time_wire(chunk: &VisitChunk, trace: &mut FoldTrace) -> Result<(), String> {
    let t = Instant::now();
    let frame = chunk.encode();
    trace.encode.push(t.elapsed());
    let t = Instant::now();
    let back = VisitChunk::decode(&frame).map_err(|e| format!("chunk decode: {e:?}"))?;
    trace.decode.push(t.elapsed());
    trace.frame_bytes.push(frame.len() as f64);
    if back.key() != chunk.key() || back.len() != chunk.len() || back.encode() != frame {
        return Err(format!("chunk {:?} does not survive the wire", chunk.key()));
    }
    Ok(())
}

/// One traced repetition's readings.
pub struct TracedCampaign {
    /// The end-to-end readings, as in the untraced run.
    pub run: CampaignRun,
    /// Crawl worker timings.
    pub crawl: CrawlTrace,
    /// Fold thread timings.
    pub fold: FoldTrace,
    /// `DatasetIndexBuilder::finish`.
    pub finish: Duration,
    /// All 23 reports built and rendered.
    pub render: Duration,
    /// Allocations on crawl worker threads.
    pub crawl_allocs: u64,
}

/// Sample one chunk in this many for the wire round trip, so the traced
/// fold thread stays mostly idle like the untraced one.
const WIRE_SAMPLE_EVERY: u64 = 4;

/// Traced: the same blocks through `crawl_block_into` on `workers`
/// threads, with the fold in key order on this thread.
pub fn run_traced(eco: &EcosystemConfig, workers: usize) -> Result<TracedCampaign, String> {
    let t_setup = Instant::now();
    let factory = SiteFactory::new(eco.clone());
    let setup = t_setup.elapsed();
    let chunk_visits = CampaignConfig::default().chunk_visits;
    let session = SessionConfig::default();
    let mut builder = DatasetIndexBuilder::new(eco.n_sites, eco.crawl_days);
    let mut tally = Tally::default();
    let mut crawl = CrawlTrace::default();
    let mut fold = FoldTrace::default();
    let mut wire_err = None;

    let allocs0 = metrics::allocs(CAT_CRAWL);
    metrics::set_counting(true);
    let t0 = Instant::now();
    // The paper's schedule: sweep the toplist on day 0, then revisit the
    // sites detected that day, in fold order, on every later day.
    let sweep: Vec<u32> = (1..=eco.n_sites).collect();
    let mut detected: Vec<u32> = Vec::new();
    let mut revisit: Vec<u32> = Vec::new();
    for day in 0..=eco.crawl_days {
        if day == 1 {
            revisit = std::mem::take(&mut detected);
        }
        let batch = Batch {
            factory: &factory,
            session: &session,
            ranks: if day == 0 { &sweep } else { &revisit },
            day,
            chunk_visits,
        };
        let trace = batch.run(workers, &mut fold, &mut |chunk, fold| {
            let t = Instant::now();
            tally.observe(&chunk);
            if day == 0 {
                detected.extend(
                    chunk
                        .visits
                        .iter()
                        .filter(|v| v.hb_detected)
                        .map(|v| v.rank),
                );
            }
            fold.bench += t.elapsed();
            let t = Instant::now();
            builder.push_chunk(&chunk);
            fold.fold.push(t.elapsed());
            if tally.chunks % WIRE_SAMPLE_EVERY == 0 && wire_err.is_none() {
                wire_err = time_wire(&chunk, fold).err();
            }
        });
        crawl.absorb(trace);
    }
    let crawl_wall = t0.elapsed();
    metrics::set_counting(false);
    let crawl_allocs = metrics::allocs(CAT_CRAWL) - allocs0;
    let t = Instant::now();
    let ix: DatasetIndex = builder.finish();
    let finish = t.elapsed();
    let t = Instant::now();
    let figures = figures::render_timed(&ix, eco.seed);
    let render = t.elapsed();
    let wall = t0.elapsed();
    if let Some(e) = wire_err {
        return Err(e);
    }
    tally.check(eco)?;
    Ok(TracedCampaign {
        run: CampaignRun {
            setup,
            crawl: crawl_wall,
            wall,
            tally,
            figures,
            latency_ms: figures::hb_latency_ms(&ix),
        },
        crawl,
        fold,
        finish,
        render,
        crawl_allocs,
    })
}

/// One `(day, rank-set)` batch of the traced schedule.
struct Batch<'a> {
    factory: &'a SiteFactory,
    session: &'a SessionConfig,
    ranks: &'a [u32],
    day: u32,
    chunk_visits: usize,
}

/// Ordered hand-off between crawl workers and the fold thread.
#[derive(Default)]
struct Handoff {
    ready: BTreeMap<usize, VisitChunk>,
    next: usize,
    aborted: bool,
}

/// Marks the hand-off aborted if a worker unwinds, so the fold thread
/// stops waiting and the scope join surfaces the panic.
struct AbortOnPanic<'a>(&'a Mutex<Handoff>, &'a Condvar);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut st) = self.0.lock() {
                st.aborted = true;
            }
            self.1.notify_all();
        }
    }
}

impl Batch<'_> {
    /// Crawl every block on `workers` threads (at most `2 × workers`
    /// chunks in flight, as in the production ring) and hand each chunk to
    /// `sink` in `seq` order on the calling thread.
    fn run(
        &self,
        workers: usize,
        fold: &mut FoldTrace,
        sink: &mut dyn FnMut(VisitChunk, &mut FoldTrace),
    ) -> CrawlTrace {
        let n_blocks = self.ranks.len().div_ceil(self.chunk_visits);
        let cap = 2 * workers;
        let next_block = AtomicUsize::new(0);
        let handoff = Mutex::new(Handoff::default());
        let cv = Condvar::new();
        let merged = Mutex::new(CrawlTrace::default());
        std::thread::scope(|scope| {
            for _ in 0..workers.min(n_blocks) {
                scope.spawn(|| {
                    let _guard = AbortOnPanic(&handoff, &cv);
                    metrics::set_thread_category(CAT_CRAWL);
                    let trace = self.worker(&next_block, n_blocks, cap, &handoff, &cv);
                    merged.lock().expect("trace merge").absorb(trace);
                });
            }
            for b in 0..n_blocks {
                let t = Instant::now();
                let chunk = {
                    let mut st = handoff.lock().expect("hand-off");
                    loop {
                        if let Some(c) = st.ready.remove(&b) {
                            st.next = b + 1;
                            break Some(c);
                        }
                        if st.aborted {
                            break None;
                        }
                        st = cv.wait(st).expect("hand-off");
                    }
                };
                cv.notify_all();
                fold.sink_wait += t.elapsed();
                match chunk {
                    Some(c) => sink(c, fold),
                    None => break,
                }
            }
        });
        merged.into_inner().expect("trace merge")
    }

    fn worker(
        &self,
        next_block: &AtomicUsize,
        n_blocks: usize,
        cap: usize,
        handoff: &Mutex<Handoff>,
        cv: &Condvar,
    ) -> CrawlTrace {
        let f = self.factory;
        let net = f.net_for_day(self.day);
        let mut scratch = VisitScratch::new(f.partner_list());
        let mut trace = CrawlTrace::default();
        let mut stamps: Vec<Instant> = Vec::with_capacity(self.chunk_visits);
        loop {
            let b = next_block.fetch_add(1, Ordering::Relaxed);
            if b >= n_blocks {
                break;
            }
            let t = Instant::now();
            {
                let mut st = handoff.lock().expect("hand-off");
                while b >= st.next + cap && !st.aborted {
                    st = cv.wait(st).expect("hand-off");
                }
                if st.aborted {
                    break;
                }
            }
            trace.worker_wait += t.elapsed();
            let lo = b * self.chunk_visits;
            let block = &self.ranks[lo..(lo + self.chunk_visits).min(self.ranks.len())];
            // Derive every rank of the block through the factory's public
            // memo calls, so the crawl's own lookups then hit the memo.
            let derive = if self.day == 0 {
                &mut trace.derive_day0
            } else {
                &mut trace.derive_revisit
            };
            for &rank in block {
                let t = Instant::now();
                std::hint::black_box(f.site_shared(rank));
                std::hint::black_box(f.runtime_shared(rank));
                std::hint::black_box(f.gen().page_html_shared(rank));
                derive.push(t.elapsed());
            }
            stamps.clear();
            let start = Instant::now();
            let chunk = crawl_block_into(
                f,
                block,
                self.day,
                0,
                b as u32,
                self.session,
                &mut scratch,
                &net,
                &mut |_| stamps.push(Instant::now()),
            );
            let end = Instant::now();
            let mut prev = start;
            for (stamp, truth) in stamps.iter().zip(&chunk.truths) {
                let d = *stamp - prev;
                prev = *stamp;
                trace.visit.push(d);
                trace.visit_by_flow[flow_of(truth.facet)].push(d);
            }
            trace.block_overhead.push(end - prev);
            handoff.lock().expect("hand-off").ready.insert(b, chunk);
            cv.notify_all();
        }
        trace
    }
}

//! The pipelined worker on a loopback fabric. Each worker submits a
//! lease's chunks in one message, crawls the next lease, and only then
//! reads the submit's ack: with a lease's frames in hand it prefetches
//! the next lease on the idle connection before submitting. Every
//! connection must still carry at most one unanswered frame at every
//! send, a long-polled request (one sent with no leased block left to
//! submit) is never answered `Wait`, and each granted lease is submitted
//! exactly once. A frame-counting `Transport` wrapper checks all three on
//! every connection of a spooled campaign whose log rolls, and the folded
//! chunk stream must be byte-identical to `run_campaign_streamed`'s,
//! figures included.

use hb_analysis::{indexed_reports, DatasetIndexBuilder};
use hb_crawler::{run_campaign_streamed, CampaignConfig, VisitChunk};
use hb_distd::{
    run_worker_session, Connector, CoordConfig, Coordinator, DistdError, Msg, TcpConnector,
    Transport, WorkerConfig, WorkerStats,
};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CHUNK_VISITS: usize = 32;

/// What every connection of one connector saw.
#[derive(Default)]
struct Tally {
    /// Most frames ever unanswered on one connection, counted at a send.
    peak_unanswered: AtomicU64,
    /// Leases granted.
    leases: AtomicU64,
    submits: AtomicU64,
    /// Chunk frames across all submits.
    frames: AtomicU64,
    heartbeats: AtomicU64,
    /// `Wait` replies to long-polled requests.
    waits: AtomicU64,
    /// Leases granted to requests sent with a leased block still unsent.
    prefetched: AtomicU64,
}

struct CountingConnector {
    inner: TcpConnector,
    tally: Arc<Tally>,
}

impl Connector for CountingConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, DistdError> {
        Ok(Box::new(CountingTransport {
            inner: self.inner.connect()?,
            tally: Arc::clone(&self.tally),
            unanswered: 0,
            unsubmitted: 0,
            prefetching: false,
        }))
    }
}

struct CountingTransport {
    inner: Box<dyn Transport>,
    tally: Arc<Tally>,
    unanswered: u64,
    /// Blocks leased on this connection and not yet submitted.
    unsubmitted: u64,
    /// The outstanding request is a prefetch: it went out with a leased
    /// block still unsent.
    prefetching: bool,
}

impl Transport for CountingTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), DistdError> {
        self.unanswered += 1;
        self.tally
            .peak_unanswered
            .fetch_max(self.unanswered, Ordering::Relaxed);
        match Msg::decode(frame) {
            Ok(Msg::SubmitChunk { frames, .. }) => {
                let n = frames.len() as u64;
                self.unsubmitted = self.unsubmitted.saturating_sub(n);
                self.tally.submits.fetch_add(1, Ordering::Relaxed);
                self.tally.frames.fetch_add(n, Ordering::Relaxed);
            }
            Ok(Msg::Heartbeat { .. }) => {
                self.tally.heartbeats.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Msg::RequestLease { .. }) => self.prefetching = self.unsubmitted > 0,
            _ => {}
        }
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, DistdError> {
        let frame = self.inner.recv_frame()?;
        self.unanswered = self.unanswered.saturating_sub(1);
        match Msg::decode(&frame) {
            Ok(Msg::Wait) if !self.prefetching => {
                self.tally.waits.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Msg::Lease { blocks, .. }) => {
                self.tally.leases.fetch_add(1, Ordering::Relaxed);
                if self.prefetching {
                    self.tally.prefetched.fetch_add(1, Ordering::Relaxed);
                }
                self.unsubmitted += blocks.len() as u64;
            }
            _ => {}
        }
        Ok(frame)
    }

    fn set_recv_deadline(&mut self, deadline: Option<Duration>) -> Result<(), DistdError> {
        self.inner.set_recv_deadline(deadline)
    }
}

fn render(chunks: &[VisitChunk], eco: &EcosystemConfig) -> BTreeMap<String, String> {
    let mut builder = DatasetIndexBuilder::new(eco.n_sites, eco.crawl_days);
    for chunk in chunks {
        builder.push_chunk(chunk);
    }
    indexed_reports(&builder.finish())
        .into_iter()
        .map(|r| (format!("{}.csv", r.id), r.render()))
        .collect()
}

#[test]
fn pipelined_workers_keep_one_unanswered_frame_and_fold_identical_bytes() {
    let eco = EcosystemConfig::tiny_scale();
    let mut want = Vec::new();
    run_campaign_streamed(
        &SiteFactory::new(eco.clone()),
        &CampaignConfig {
            chunk_visits: CHUNK_VISITS,
            ..CampaignConfig::default()
        },
        &mut |c| want.push(c),
    );

    let spool = std::env::temp_dir().join(format!("hb-distd-pipelined-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordConfig {
            chunk_visits: CHUNK_VISITS,
            spool_dir: Some(spool.clone()),
            compact_every: 4,
            // Two blocks per lease: more lease boundaries to prefetch
            // across than the 7 day-0 blocks give at the default 4.
            lease_blocks: 2,
            ..CoordConfig::new(eco.clone())
        },
    )
    .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let tally = Arc::new(Tally::default());
    // One worker heartbeats before every visit, so pending acks are also
    // read on the heartbeat path; the other never heartbeats here.
    let heartbeats = [Duration::ZERO, Duration::from_secs(60)];

    let mut got = Vec::new();
    let (coord, workers) = std::thread::scope(|s| {
        let handles: Vec<_> = heartbeats
            .into_iter()
            .enumerate()
            .map(|(i, heartbeat_every)| {
                let cfg = WorkerConfig {
                    chunk_visits: CHUNK_VISITS,
                    heartbeat_every,
                    instance: i as u64,
                    ..WorkerConfig::new(addr.clone(), eco.clone())
                };
                let connector = CountingConnector {
                    inner: TcpConnector::new(addr.clone()),
                    tally: Arc::clone(&tally),
                };
                s.spawn(move || {
                    let mut stats = WorkerStats::default();
                    run_worker_session(&cfg, &connector, &mut stats).map(|()| stats)
                })
            })
            .collect();
        let coord = coordinator
            .run(&mut |c| got.push(c))
            .expect("coordinator run");
        let workers: Vec<WorkerStats> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread").expect("worker session"))
            .collect();
        (coord, workers)
    });
    let _ = std::fs::remove_dir_all(&spool);

    assert_eq!(
        tally.peak_unanswered.load(Ordering::Relaxed),
        1,
        "a connection carried more than one unanswered frame"
    );
    assert_eq!(
        tally.waits.load(Ordering::Relaxed),
        0,
        "lease requests long-poll"
    );
    assert!(
        tally.prefetched.load(Ordering::Relaxed) > 0,
        "leases are prefetched before a lease's last submit"
    );
    assert!(
        tally.heartbeats.load(Ordering::Relaxed) > 0,
        "the heartbeat path ran"
    );
    let completed: u64 = workers.iter().map(|w| w.blocks_completed).sum();
    assert_eq!(completed as usize, want.len());
    assert_eq!(
        tally.submits.load(Ordering::Relaxed),
        tally.leases.load(Ordering::Relaxed),
        "one submit per lease, no re-sends"
    );
    assert_eq!(tally.leases.load(Ordering::Relaxed), coord.leases_issued);
    assert_eq!(
        tally.frames.load(Ordering::Relaxed),
        completed,
        "one frame per block"
    );
    assert_eq!(coord.chunks_folded, want.len());
    assert_eq!(
        coord.chunks_compacted as usize,
        want.len(),
        "each block spooled once"
    );
    assert_eq!(coord.frames_rejected + coord.leases_reissued, 0);
    assert!(
        coord.segments_written > 0,
        "the spool log rolled beside the fold"
    );

    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.encode(), w.encode(), "chunk {:?} differs", w.key());
    }
    assert_eq!(render(&got, &eco), render(&want, &eco), "figures differ");
}

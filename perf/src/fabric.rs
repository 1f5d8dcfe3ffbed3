//! `distd_spool`: the paper-scale campaign through an in-process
//! `Coordinator` on loopback, with `run_worker` threads, the spool on
//! (fsync before ack) and compaction every 64 chunks. Every chunk folds
//! into `DatasetIndexBuilder` on the coordinator's sink.
//!
//! The traced run wraps `TcpConnector` in a timing `Connector` passed to
//! `run_worker_session`: it stamps every frame and classifies it with
//! `Msg::decode`, which gives the lease, submit and heartbeat round trips
//! as the worker sees them.

use crate::campaign::{time_wire, FoldTrace};
use crate::figures::{self, Figures, Tally};
use crate::metrics::{self, CAT_CRAWL, CAT_OTHER};
use hb_analysis::DatasetIndexBuilder;
use hb_distd::{
    run_worker_session, Connector, CoordConfig, CoordStats, Coordinator, DistdError, Msg,
    TcpConnector, Transport, WorkerConfig, WorkerStats,
};
use hb_ecosystem::EcosystemConfig;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// `distd-coord` defaults: 64-visit blocks, 4 blocks per lease, 1 shard.
const CHUNK_VISITS: usize = 64;
const LEASE_BLOCKS: usize = 4;
/// Compact the spool every this many chunks.
const COMPACT_EVERY: usize = 64;
/// Sample one folded chunk in this many for the wire round trip.
const WIRE_SAMPLE_EVERY: u64 = 16;

/// One repetition's readings.
pub struct FabricRun {
    /// Spool directory, coordinator bind and worker spawn.
    pub setup: Duration,
    /// Coordinator start to its last fold.
    pub crawl: Duration,
    /// Coordinator start to the last CSV rendered.
    pub wall: Duration,
    /// Correctness counts over the folded stream.
    pub tally: Tally,
    /// The rendered figures.
    pub figures: Figures,
    /// HB auction latency p50/p99/p999 (sim-time ms).
    pub latency_ms: (f64, f64, f64),
    /// Coordinator counters.
    pub coord: CoordStats,
    /// Worker counters, summed over workers.
    pub workers: WorkerStats,
    /// Frame timings as the workers saw them (traced runs only).
    pub wire: WireLog,
    /// Fold-thread timings (traced runs only).
    pub fold: FoldTrace,
    /// `DatasetIndexBuilder::finish` plus rendering.
    pub finish_render: (Duration, Duration),
    /// Allocations on worker threads (traced runs only).
    pub worker_allocs: u64,
}

impl FabricRun {
    /// Share of leases that needed no recovery: not re-issued, no rejected
    /// frame, no worker reconnect.
    pub fn clean_lease_pct(&self) -> f64 {
        let faults =
            self.coord.leases_reissued + self.coord.frames_rejected + self.workers.reconnects;
        let issued = self.coord.leases_issued.max(1);
        100.0 * issued.saturating_sub(faults) as f64 / issued as f64
    }
}

/// The coordinator as the `distd-coord` defaults configure it, spooling to
/// `spool`.
fn coord_config(eco: &EcosystemConfig, spool: &Path) -> CoordConfig {
    CoordConfig {
        chunk_visits: CHUNK_VISITS,
        lease_blocks: LEASE_BLOCKS,
        spool_dir: Some(spool.to_path_buf()),
        compact_every: COMPACT_EVERY,
        ..CoordConfig::new(eco.clone())
    }
}

fn worker_config(addr: &str, eco: &EcosystemConfig, instance: usize) -> WorkerConfig {
    WorkerConfig {
        chunk_visits: CHUNK_VISITS,
        instance: instance as u64,
        ..WorkerConfig::new(addr.to_string(), eco.clone())
    }
}

/// The set-up a repetition performs, alone: spool directory, coordinator
/// bind, and `workers` threads running `run_worker_session` up to its first
/// dial, which [`RefusingConnector`] refuses so the session ends there.
pub fn setup_only(eco: &EcosystemConfig, workers: usize, spool: &Path) -> Result<Duration, String> {
    let t = Instant::now();
    std::fs::create_dir_all(spool).map_err(|e| format!("spool {}: {e}", spool.display()))?;
    let coordinator = Coordinator::bind("127.0.0.1:0", coord_config(eco, spool))
        .map_err(|e| format!("coordinator bind: {e}"))?;
    let addr = coordinator
        .local_addr()
        .map_err(|e| format!("coordinator addr: {e}"))?
        .to_string();
    let dials: Vec<Result<Instant, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let wcfg = WorkerConfig {
                    connect_attempts: 1,
                    ..worker_config(&addr, eco, i)
                };
                scope.spawn(move || {
                    let refuse = RefusingConnector::default();
                    let mut stats = WorkerStats::default();
                    match run_worker_session(&wcfg, &refuse, &mut stats) {
                        Err(DistdError::CoordinatorLost) => refuse
                            .0
                            .get()
                            .copied()
                            .ok_or("worker never dialed".to_string()),
                        Err(e) => Err(format!("set-up-only worker: {e}")),
                        Ok(()) => Err("set-up-only worker finished a session".to_string()),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("worker panicked".to_string()))
            })
            .collect()
    });
    drop(coordinator);
    remove_spool(spool);
    let mut ready = t;
    for dialed in dials {
        ready = ready.max(dialed?);
    }
    Ok(ready - t)
}

/// Records when a worker first dials, then refuses the connection.
#[derive(Default)]
struct RefusingConnector(OnceLock<Instant>);

impl Connector for RefusingConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, DistdError> {
        self.0.get_or_init(Instant::now);
        Err(DistdError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "set-up only",
        )))
    }
}

/// Remove a spool directory, and its parent once no other spool is left.
fn remove_spool(spool: &Path) {
    let _ = std::fs::remove_dir_all(spool);
    if let Some(parent) = spool.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Run the campaign over the fabric. `spool` must not exist yet; it is
/// removed again before returning.
pub fn run(
    eco: &EcosystemConfig,
    workers: usize,
    spool: &Path,
    traced: bool,
) -> Result<FabricRun, String> {
    let result = run_inner(eco, workers, spool, traced);
    remove_spool(spool);
    result
}

fn run_inner(
    eco: &EcosystemConfig,
    workers: usize,
    spool: &Path,
    traced: bool,
) -> Result<FabricRun, String> {
    let t_setup = Instant::now();
    std::fs::create_dir_all(spool).map_err(|e| format!("spool {}: {e}", spool.display()))?;
    let coordinator = Coordinator::bind("127.0.0.1:0", coord_config(eco, spool))
        .map_err(|e| format!("coordinator bind: {e}"))?;
    let addr = coordinator
        .local_addr()
        .map_err(|e| format!("coordinator addr: {e}"))?
        .to_string();
    let mut builder = DatasetIndexBuilder::new(eco.n_sites, eco.crawl_days);
    let mut tally = Tally::default();
    let mut fold = FoldTrace::default();
    let mut wire_err = None;
    let allocs0 = metrics::allocs(CAT_CRAWL);
    metrics::set_counting(traced);

    let outcome = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let wcfg = worker_config(&addr, eco, i);
                scope.spawn(move || {
                    metrics::set_thread_category(CAT_CRAWL);
                    let log = Arc::new(Mutex::new(WireLog::default()));
                    let connector = TimingConnector {
                        inner: TcpConnector::new(wcfg.addr.clone()),
                        log: traced.then(|| log.clone()),
                        first_dial: OnceLock::new(),
                    };
                    let mut stats = WorkerStats::default();
                    let res = run_worker_session(&wcfg, &connector, &mut stats);
                    let log = std::mem::take(&mut *log.lock().expect("wire log"));
                    let ready = connector.first_dial.get().copied();
                    res.map(|()| (stats, log, ready))
                })
            })
            .collect();
        let t0 = Instant::now();
        let coord = coordinator.run(&mut |chunk| {
            let t = Instant::now();
            tally.observe(&chunk);
            fold.bench += t.elapsed();
            let t = Instant::now();
            builder.push_chunk(&chunk);
            if traced {
                fold.fold.push(t.elapsed());
                if tally.chunks % WIRE_SAMPLE_EVERY == 0 && wire_err.is_none() {
                    wire_err = time_wire(&chunk, &mut fold).err();
                }
            }
        });
        let crawl = t0.elapsed();
        let mut sum = WorkerStats::default();
        let mut wire = WireLog::default();
        let mut failure = None;
        // Set-up ends when the last worker has built its universe and
        // dials the coordinator.
        let mut ready = t0;
        for h in handles {
            match h.join() {
                Ok(Ok((s, log, dialed))) => {
                    add_worker_stats(&mut sum, &s);
                    wire.absorb(log);
                    ready = ready.max(dialed.unwrap_or(t0));
                }
                Ok(Err(e)) => failure = Some(format!("worker: {e}")),
                Err(_) => failure = Some("worker panicked".to_string()),
            }
        }
        (ready - t_setup, t0, crawl, coord, sum, wire, failure)
    });
    metrics::set_counting(false);
    let worker_allocs = metrics::allocs(CAT_CRAWL) - allocs0;
    let (setup, t0, crawl, coord, workers_sum, wire, failure) = outcome;
    let coord = coord.map_err(|e| format!("coordinator: {e}"))?;
    if let Some(e) = failure.or(wire_err) {
        return Err(e);
    }
    let t = Instant::now();
    let ix = builder.finish();
    let finish = t.elapsed();
    let t = Instant::now();
    let figures = if traced {
        figures::render_timed(&ix, eco.seed)
    } else {
        figures::render(&ix, eco.seed)
    };
    let render = t.elapsed();
    let wall = t0.elapsed();
    tally.check(eco)?;
    if coord.frames_rejected != 0 || coord.leases_reissued != 0 {
        return Err(format!(
            "fabric recovered from faults on a clean loopback: frames_rejected={} leases_reissued={}",
            coord.frames_rejected, coord.leases_reissued
        ));
    }
    if coord.chunks_folded as u64 != tally.chunks || coord.chunks_folded != coord.blocks_total {
        return Err(format!(
            "folded {} chunks, sink saw {}, schedule has {}",
            coord.chunks_folded, tally.chunks, coord.blocks_total
        ));
    }
    Ok(FabricRun {
        setup,
        crawl,
        wall,
        tally,
        figures,
        latency_ms: figures::hb_latency_ms(&ix),
        coord,
        workers: workers_sum,
        wire,
        fold,
        finish_render: (finish, render),
        worker_allocs,
    })
}

fn add_worker_stats(sum: &mut WorkerStats, s: &WorkerStats) {
    sum.blocks_completed += s.blocks_completed;
    sum.visits += s.visits;
    sum.leases_expired += s.leases_expired;
    sum.duplicates += s.duplicates;
    sum.reconnects += s.reconnects;
    sum.conn_breaks += s.conn_breaks;
    sum.connect_failures += s.connect_failures;
    sum.wire_rejected += s.wire_rejected;
    sum.leases_abandoned += s.leases_abandoned;
}

/// Frame timings of one or more worker sessions.
#[derive(Default)]
pub struct WireLog {
    /// `RequestLease` → `Lease`.
    pub lease_rtt: Vec<Duration>,
    /// `SubmitChunk` → `SubmitAck` (includes the coordinator's fsync).
    pub submit_ack: Vec<Duration>,
    /// `Heartbeat` → `HeartbeatAck`/`Expired`.
    pub heartbeat_rtt: Vec<Duration>,
    /// Handshakes and other round trips.
    pub other_rtt: Duration,
    /// `Wait` replies to lease requests.
    pub wait_replies: u64,
    /// Time from a `Wait` reply to the next request.
    pub worker_wait: Duration,
    /// Time from any other reply to the next request: the worker's own
    /// work (crawl, seal, encode).
    pub local: Duration,
    /// Bytes sent plus received.
    pub bytes: u64,
    /// First dial to the last frame, summed over sessions.
    pub session: Duration,
    /// Worker sessions logged.
    pub sessions: u64,
}

impl WireLog {
    fn absorb(&mut self, o: WireLog) {
        self.lease_rtt.extend(o.lease_rtt);
        self.submit_ack.extend(o.submit_ack);
        self.heartbeat_rtt.extend(o.heartbeat_rtt);
        self.other_rtt += o.other_rtt;
        self.wait_replies += o.wait_replies;
        self.worker_wait += o.worker_wait;
        self.local += o.local;
        self.bytes += o.bytes;
        self.session += o.session;
        self.sessions += o.sessions;
    }

    /// Round-trip time summed over every kind.
    pub fn rtt_total(&self) -> Duration {
        self.lease_rtt
            .iter()
            .chain(&self.submit_ack)
            .chain(&self.heartbeat_rtt)
            .sum::<Duration>()
            + self.other_rtt
    }
}

/// `TcpConnector` with every frame stamped and classified; `log: None`
/// passes frames straight through.
struct TimingConnector {
    inner: TcpConnector,
    log: Option<Arc<Mutex<WireLog>>>,
    /// When the worker first dialed, i.e. finished its set-up.
    first_dial: OnceLock<Instant>,
}

impl Connector for TimingConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, DistdError> {
        let dialed = Instant::now();
        self.first_dial.get_or_init(|| dialed);
        let inner = self.inner.connect()?;
        Ok(match &self.log {
            None => inner,
            Some(log) => {
                log.lock().expect("wire log").sessions += 1;
                Box::new(TimingTransport {
                    inner,
                    log: log.clone(),
                    dialed,
                    pending: Pending::None,
                    sent_at: dialed,
                    replied_at: None,
                    waiting: false,
                })
            }
        })
    }
}

/// The request a reply is awaited for.
#[derive(Clone, Copy, PartialEq)]
enum Pending {
    None,
    Lease,
    Submit,
    Heartbeat,
    Other,
}

struct TimingTransport {
    inner: Box<dyn Transport>,
    log: Arc<Mutex<WireLog>>,
    dialed: Instant,
    pending: Pending,
    sent_at: Instant,
    replied_at: Option<Instant>,
    waiting: bool,
}

/// Decode a frame for classification without charging its allocations to
/// the worker's crawl.
fn classify(frame: &[u8]) -> Option<Msg> {
    metrics::set_thread_category(CAT_OTHER);
    let msg = Msg::decode(frame).ok();
    metrics::set_thread_category(CAT_CRAWL);
    msg
}

impl Transport for TimingTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), DistdError> {
        let now = Instant::now();
        self.pending = match classify(frame) {
            Some(Msg::RequestLease { .. }) => Pending::Lease,
            Some(Msg::SubmitChunk { .. }) => Pending::Submit,
            Some(Msg::Heartbeat { .. }) => Pending::Heartbeat,
            _ => Pending::Other,
        };
        {
            let mut log = self.log.lock().expect("wire log");
            if let Some(replied) = self.replied_at.take() {
                if self.waiting {
                    log.worker_wait += now - replied;
                } else {
                    log.local += now - replied;
                }
            }
            log.bytes += frame.len() as u64;
        }
        self.waiting = false;
        self.sent_at = Instant::now();
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, DistdError> {
        let frame = self.inner.recv_frame()?;
        let now = Instant::now();
        let rtt = now - self.sent_at;
        let reply = classify(&frame);
        let mut log = self.log.lock().expect("wire log");
        log.bytes += frame.len() as u64;
        match (self.pending, reply) {
            (Pending::Lease, Some(Msg::Lease { .. })) => log.lease_rtt.push(rtt),
            (Pending::Lease, Some(Msg::Wait { .. })) => {
                log.wait_replies += 1;
                log.other_rtt += rtt;
                self.waiting = true;
            }
            (Pending::Submit, _) => log.submit_ack.push(rtt),
            (Pending::Heartbeat, _) => log.heartbeat_rtt.push(rtt),
            _ => log.other_rtt += rtt,
        }
        self.pending = Pending::None;
        self.replied_at = Some(now);
        Ok(frame)
    }

    fn set_recv_deadline(&mut self, deadline: Option<Duration>) -> Result<(), DistdError> {
        self.inner.set_recv_deadline(deadline)
    }
}

impl Drop for TimingTransport {
    fn drop(&mut self) {
        let end = self.replied_at.unwrap_or(self.sent_at);
        if let Ok(mut log) = self.log.lock() {
            log.session += end - self.dialed;
        }
    }
}

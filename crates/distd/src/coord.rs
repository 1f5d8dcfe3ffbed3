//! The lease coordinator: schedule, lease table, ordered fold, spool.
//!
//! ## Protocol invariants
//!
//! * **The schedule is the fold order.** Blocks are numbered globally in
//!   `(day, seq)` order — exactly the order
//!   `hb_crawler::run_campaign_streamed` seals chunks in — and the
//!   coordinator folds completed chunks to its sink strictly in that
//!   order, buffering at most `reorder_window` out-of-order arrivals.
//!   Downstream consumers (`DatasetIndexBuilder`, figure rendering)
//!   therefore see a byte-identical chunk stream whether the campaign ran
//!   in one process or across a fabric of crashing workers.
//! * **Leases bound the buffer.** A block is only leased while its index
//!   is within `reorder_window` of the next fold point, so the reorder
//!   buffer can never grow past the window no matter how workers race
//!   (beside it, the fold thread holds at most the one run it took and
//!   is sinking). One lease may carry up to `lease_blocks` blocks (all within the
//!   window), so a fast worker is not bound by one request round-trip
//!   per block.
//! * **Completion is idempotent.** Campaign visits are pure functions of
//!   `(seed, rank, day)`, so a block crawled twice (lease expired, then
//!   the original worker submitted anyway) yields byte-identical chunks;
//!   the second arrival is detected by its `(day, seq)` key and
//!   dropped, counted in `chunks_duplicate_dropped`.
//! * **Ack implies durable.** With a spool configured, a submission's
//!   fresh frames are appended to the spool log and synced *before* the
//!   worker is acked; a coordinator restarted on the same spool replays
//!   every acked chunk and re-leases only the unfinished blocks. A
//!   handler appends *outside* the state lock: the first handler to find
//!   no sync running writes and syncs every frame queued meanwhile at
//!   once, and the rest wait for the sync that covers theirs
//!   (leader/follower group commit) — disk latency never blocks the
//!   fabric.
//! * **Rows match the lease.** A chunk is admitted only if its key names
//!   a scheduled block and its rows are exactly that block's visits (the
//!   block's day, its ranks in order). Anything else is refused and
//!   counted in `frames_rejected`, together with every other chunk of
//!   its submission; the blocks stay leasable.
//! * **Nothing on the wire is trusted.** Frames (worker submissions and
//!   spool log frames alike) are checksum-verified before parsing and
//!   structurally validated during it; failures are counted in
//!   `frames_rejected` and the block stays leasable.
//!
//! ## Event-driven serving
//!
//! There is no polling tick anywhere on the steady path. Connection
//! handlers block on their sockets (with a lease-deadline-derived idle
//! timeout as the only backstop). One condvar carries every state
//! change: admission and fold progress signal it. The fold thread sleeps
//! on it until a chunk is admitted; a lease request that finds nothing
//! leasable long-polls on it, waking early only when the earliest lease
//! deadline falls due, and answers `Wait` only at its hold cap. The one
//! exception is a request from a connection that still holds an
//! unfinished lease: its worker is prefetching with that lease's chunks
//! unsent, so it is answered at once. The fold thread runs the sink with
//! the state lock released, so it never stalls admission or leasing.
//! Campaign completion wakes the accept loop with a self-connection so
//! the listener can close without being polled.
//!
//! ## Schedule construction
//!
//! The schedule is a [`CampaignPlan`] — the same one
//! `hb_crawler::run_campaign_streamed` drives in process. Day-0 blocks
//! are known upfront (the full toplist, in rank order). Blocks for
//! days ≥ 1 revisit the HB sites *detected* on day 0, so they are
//! appended only once every day-0 chunk has folded: each folded chunk is
//! shown to [`CampaignPlan::observe`] in fold order, which reproduces the
//! in-process campaign's rank lists exactly.

use crate::proto::{recv_msg, send_msg, DistdError, Msg};
use crate::spool::{spool_load, SpoolLog};
use crate::transport::{is_timeout, TcpTransport, Transport};
use hb_crawler::{CampaignPlan, PlanBlock, SessionConfig, VisitChunk};
use hb_ecosystem::EcosystemConfig;
use std::collections::{BTreeMap, HashMap};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Coordinator tuning.
#[derive(Clone, Debug)]
pub struct CoordConfig {
    /// The campaign universe (shared verbatim with every worker; the
    /// handshake fingerprint commits to it).
    pub eco: EcosystemConfig,
    /// Visits per block / sealed chunk.
    pub chunk_visits: usize,
    /// Session policy (fingerprinted; workers crawl with their own copy).
    pub session: SessionConfig,
    /// A lease not heartbeat within this window is re-issued.
    pub lease_timeout: Duration,
    /// How many blocks past the fold point may be leased at once (bounds
    /// the reorder buffer).
    pub reorder_window: usize,
    /// Maximum blocks one lease carries (≥ 1); batching amortizes the
    /// request round-trip for fast workers.
    pub lease_blocks: usize,
    /// Chunk spool for crash-safe restarts; `None` disables durability.
    pub spool_dir: Option<PathBuf>,
    /// Roll the spool log to a new file after this many chunks (0: one
    /// file per run). The field keeps its pre-log name only because the
    /// benchmark sets it; renaming it waits for a benchmark change.
    pub compact_every: usize,
}

impl CoordConfig {
    /// Sensible defaults for a local fabric over `eco`.
    pub fn new(eco: EcosystemConfig) -> CoordConfig {
        CoordConfig {
            eco,
            chunk_visits: 256,
            session: SessionConfig::default(),
            lease_timeout: Duration::from_secs(10),
            reorder_window: 16,
            lease_blocks: 4,
            spool_dir: None,
            compact_every: 0,
        }
    }
}

/// Observable outcome of one coordinator run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordStats {
    /// Total blocks in the final schedule.
    pub blocks_total: usize,
    /// Chunks folded to the sink (equals `blocks_total` on success).
    pub chunks_folded: usize,
    /// Chunks recovered from the spool instead of a worker.
    pub chunks_replayed: usize,
    /// Leases handed out (first issues and re-issues).
    pub leases_issued: u64,
    /// Leases that lapsed and were made leasable again.
    pub leases_reissued: u64,
    /// Redundant submissions dropped by key.
    pub chunks_duplicate_dropped: u64,
    /// Frames (worker or spool) that failed validation.
    pub frames_rejected: u64,
    /// Distinct handshakes accepted.
    pub workers_seen: u32,
    /// Spool log files created. (Named for the segment files the log
    /// replaced; the benchmark reads it under this name.)
    pub segments_written: u64,
    /// Chunk frames appended to the spool log. (Named for the compaction
    /// the log replaced; the benchmark reads it under this name.)
    pub chunks_compacted: u64,
    /// Spool `sync_data` calls that made frames durable: one per group
    /// commit batch per log file it touched.
    pub frame_syncs: u64,
    /// Spool `sync_data` calls that made a log file's preallocated zeros
    /// durable: one per MiB of frames a file reaches.
    pub extension_syncs: u64,
}

struct Lease {
    /// Remaining block indices this lease covers; admitting a block's
    /// chunk retires it from the lease.
    blocks: Vec<usize>,
    deadline: Instant,
    /// The worker id the requesting connection got at `Hello` (`None`
    /// for a connection that never shook hands).
    owner: Option<u32>,
}

struct State {
    /// The campaign's schedule; sees every folded chunk.
    plan: CampaignPlan,
    schedule: Vec<PlanBlock>,
    /// Block index by chunk key; grows with the schedule.
    key_index: HashMap<(u32, u32), usize>,
    /// A chunk for this block has been accepted (buffered or folded).
    complete: Vec<bool>,
    /// How many entries of `complete` are true.
    complete_count: usize,
    /// Accepted chunks awaiting their turn to fold, by block index.
    buffered: BTreeMap<usize, VisitChunk>,
    /// Next block index to fold.
    folded: usize,
    /// Number of day-0 blocks (the upfront schedule).
    day0_blocks: usize,
    /// Days ≥ 1 have been appended.
    schedule_final: bool,
    leases: HashMap<u64, Lease>,
    /// Reverse index: which lease currently owns a block.
    leased_block: HashMap<usize, u64>,
    next_lease_id: u64,
    next_worker_id: u32,
    /// Connections that completed a handshake and are still attached.
    /// Grants cap a lease's batch at `ceil(remaining / live_workers)` so
    /// a big `lease_blocks` can't starve the rest of a small fleet on a
    /// short campaign.
    live_workers: u32,
    done: bool,
    stats: CoordStats,
}

/// Everything a connection handler shares with the fold thread.
struct Shared {
    state: Mutex<State>,
    /// Signaled by admission (the fold may advance) and by fold progress
    /// (the window may open, the schedule may grow, the campaign may be
    /// done). The fold thread and long-polling lease requests wait on it.
    changed: Condvar,
    /// Campaign complete — lets blocked handlers and the accept loop
    /// wind down without polling the state.
    done: AtomicBool,
}

impl Shared {
    /// Lock the state. The lock is poisoned only if a thread panicked
    /// while holding it, and no peer can cause that: frames are decoded
    /// before the lock is taken, and what runs under it (`admit`,
    /// `grant`, `expire_lapsed`, `take_ready`, the counters) looks peer
    /// keys up with `get` and never indexes or unwraps on peer input. A
    /// poisoned lock therefore means a bug here, and the panic must
    /// propagate: unlike the derivation memo, `State` is updated across
    /// several fields under one lock (`complete` with `complete_count`,
    /// `leases` with `leased_block`, `buffered` with `folded`), so a
    /// recovered guard could serve a half-updated schedule.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("coordinator state")
    }
}

fn push_blocks(st: &mut State, blocks: Vec<PlanBlock>) {
    for block in blocks {
        st.key_index.insert(block.key(), st.schedule.len());
        st.schedule.push(block);
        st.complete.push(false);
    }
    st.stats.blocks_total = st.schedule.len();
}

fn initial_state(cfg: &CoordConfig) -> State {
    let plan = CampaignPlan::new(cfg.eco.n_sites, cfg.eco.crawl_days, cfg.chunk_visits);
    let day0 = plan.day0_blocks();
    let mut st = State {
        plan,
        schedule: Vec::new(),
        key_index: HashMap::new(),
        complete: Vec::new(),
        complete_count: 0,
        buffered: BTreeMap::new(),
        folded: 0,
        day0_blocks: day0.len(),
        schedule_final: false,
        leases: HashMap::new(),
        leased_block: HashMap::new(),
        next_lease_id: 1,
        next_worker_id: 1,
        live_workers: 0,
        done: false,
        stats: CoordStats::default(),
    };
    push_blocks(&mut st, day0);
    if st.day0_blocks == 0 {
        // Degenerate universe: nothing to crawl on day 0, so nothing can
        // be detected either — the schedule is final and empty.
        st.schedule_final = true;
        st.done = true;
    }
    st
}

/// Append the revisit blocks for days 1..=crawl_days. Call exactly once,
/// after every day-0 chunk has folded (the plan has seen every detection).
fn finalize_schedule(st: &mut State) {
    debug_assert!(!st.schedule_final);
    let revisits = st.plan.revisit_blocks();
    push_blocks(st, revisits);
    st.schedule_final = true;
}

/// Take every ready chunk off the reorder buffer, in schedule order, for
/// the sink. Extends the schedule once day 0 completes and flips `done`
/// when everything folded.
fn take_ready(st: &mut State) -> Vec<VisitChunk> {
    let mut ready = Vec::new();
    while let Some(chunk) = st.buffered.remove(&st.folded) {
        // The same plan the in-process campaign drives: day-0 detections
        // in fold order shape the revisit days.
        st.plan.observe(&chunk);
        ready.push(chunk);
        st.folded += 1;
        st.stats.chunks_folded += 1;
        if st.folded == st.day0_blocks && !st.schedule_final {
            finalize_schedule(st);
        }
    }
    if st.schedule_final && st.folded == st.schedule.len() {
        st.done = true;
    }
    ready
}

/// [`take_ready`], then run the sink with the state still in hand (spool
/// replay, before any handler exists).
fn fold_ready(st: &mut State, sink: &mut dyn FnMut(VisitChunk)) {
    for chunk in take_ready(st) {
        sink(chunk);
    }
}

/// Release every lapsed lease; their blocks become leasable again. A
/// lease with any incomplete block counts once in `leases_reissued`.
fn expire_lapsed(st: &mut State, now: Instant) {
    let lapsed: Vec<u64> = st
        .leases
        .iter()
        .filter(|(_, l)| l.deadline <= now)
        .map(|(&id, _)| id)
        .collect();
    for id in lapsed {
        let lease = st.leases.remove(&id).expect("collected above");
        let mut unfinished = false;
        for block in lease.blocks {
            st.leased_block.remove(&block);
            unfinished |= !st.complete[block];
        }
        if unfinished {
            st.stats.leases_reissued += 1;
        }
    }
}

/// All blocks complete (the last ack can tell its worker the campaign is
/// over even before the final fold runs).
fn all_complete(st: &State) -> bool {
    st.schedule_final && st.complete_count == st.schedule.len()
}

/// Answer a lease request: up to `lease_blocks` of the lowest
/// incomplete, unleased blocks within the reorder window, or `Done`, or
/// `Wait` when nothing is leasable right now.
///
/// The batch is additionally capped at `ceil(remaining / live_workers)`
/// — a fair share of the incomplete blocks — so on a short campaign a
/// 4-block lease can't hand one worker half the schedule while its
/// peers idle on `Wait` (a measured regression: 8 blocks, 3 workers,
/// 4-block grants left two workers starved).
fn grant(st: &mut State, cfg: &CoordConfig, owner: Option<u32>) -> Msg {
    expire_lapsed(st, Instant::now());
    if st.done || all_complete(st) {
        return Msg::Done;
    }
    let window_end = st
        .folded
        .saturating_add(cfg.reorder_window.max(1))
        .min(st.schedule.len());
    let remaining = st.schedule.len() - st.complete_count;
    let fair_share = remaining.div_ceil(st.live_workers.max(1) as usize).max(1);
    let batch = cfg.lease_blocks.max(1).min(fair_share);
    let mut picked = Vec::new();
    for i in st.folded..window_end {
        if st.complete[i] || st.leased_block.contains_key(&i) {
            continue;
        }
        picked.push(i);
        if picked.len() >= batch {
            break;
        }
    }
    if picked.is_empty() {
        return Msg::Wait;
    }
    let lease_id = st.next_lease_id;
    st.next_lease_id += 1;
    for &i in &picked {
        st.leased_block.insert(i, lease_id);
    }
    let blocks = picked.iter().map(|&i| st.schedule[i].clone()).collect();
    st.leases.insert(
        lease_id,
        Lease {
            blocks: picked,
            deadline: Instant::now() + cfg.lease_timeout,
            owner,
        },
    );
    st.stats.leases_issued += 1;
    Msg::Lease { lease_id, blocks }
}

/// How long a connection may sit idle before its handler suspects the
/// peer: longer than any live lease could go without a heartbeat.
fn idle_backstop(cfg: &CoordConfig) -> Duration {
    cfg.lease_timeout.max(Duration::from_millis(250))
}

/// Does `worker` still hold a lease with an unfinished block? (A lease
/// leaves the table once its last block is admitted or it lapses.)
fn holds_lease(st: &State, worker: Option<u32>) -> bool {
    worker.is_some() && st.leases.values().any(|l| l.owner == worker)
}

/// Answer `worker`'s lease request, long-polling: while nothing is
/// leasable the handler sleeps on `changed`, waking at the earliest lease
/// deadline so a lapsed lease is re-issued promptly. Past half the idle
/// backstop (below a worker's `io_timeout` at the defaults) it gives up
/// with `Wait` and the worker asks again at once.
///
/// A worker that still holds an unfinished lease is prefetching its next
/// one with that lease's chunks unsent, and the fold may be waiting on
/// exactly those blocks; its request is answered at once, `Wait`
/// included.
fn lease_or_wait(shared: &Shared, cfg: &CoordConfig, worker: Option<u32>) -> Msg {
    let hold_until = Instant::now() + idle_backstop(cfg) / 2;
    let mut st = shared.lock();
    loop {
        let reply = grant(&mut st, cfg, worker);
        let now = Instant::now();
        if reply != Msg::Wait || now >= hold_until || holds_lease(&st, worker) {
            return reply;
        }
        let wake = st
            .leases
            .values()
            .map(|l| l.deadline)
            .min()
            .map_or(hold_until, |d| d.min(hold_until));
        st = shared
            .changed
            .wait_timeout(st, wake.saturating_duration_since(now))
            // Poisoned only by a bug, never by a peer (see `Shared::lock`).
            .expect("coordinator state")
            .0;
    }
}

/// What the schedule makes of a decoded chunk.
enum Verdict {
    /// No block of this schedule, or rows that are not its block's.
    Refused,
    /// Its block is already complete.
    Duplicate,
    /// The first chunk for block `idx`.
    Fresh(usize),
}

/// Judge `chunk` against the schedule without booking anything. Its key
/// must name a block, and its rows must be exactly that block's visits:
/// the block's day on every row and the block's ranks, in order.
fn judge(st: &State, chunk: &VisitChunk) -> Verdict {
    let Some(&idx) = st.key_index.get(&chunk.key()) else {
        // A block this schedule never issued: a stale worker from some
        // other campaign.
        return Verdict::Refused;
    };
    let block = &st.schedule[idx];
    let rows_match = chunk.len() == block.ranks.len()
        && chunk
            .visits
            .iter()
            .zip(&block.ranks)
            .all(|(v, &rank)| v.day == block.day && v.rank == rank);
    if !rows_match {
        // The right key over the wrong visits would fold into the
        // figures as if it were the block.
        Verdict::Refused
    } else if st.complete[idx] {
        Verdict::Duplicate
    } else {
        Verdict::Fresh(idx)
    }
}

/// Judge a submission's chunks without booking anything: how many the
/// schedule refuses, and the positions of the fresh ones (a block named
/// twice in one submission is fresh once).
fn judge_all(st: &State, chunks: &[VisitChunk]) -> (u64, Vec<usize>) {
    let mut refused = 0;
    let mut fresh: Vec<(usize, usize)> = Vec::new();
    for (at, chunk) in chunks.iter().enumerate() {
        match judge(st, chunk) {
            Verdict::Refused => refused += 1,
            Verdict::Fresh(idx) if !fresh.iter().any(|&(b, _)| b == idx) => fresh.push((idx, at)),
            _ => {}
        }
    }
    (refused, fresh.into_iter().map(|(_, at)| at).collect())
}

/// The ack of a refused submission: nothing of it was taken.
fn refusal(done: bool) -> Msg {
    Msg::SubmitAck {
        accepted: false,
        duplicates: 0,
        done,
    }
}

/// Admit one decoded chunk, booking the counter its verdict calls for;
/// a fresh chunk completes its block and waits in the reorder buffer.
fn admit_one(st: &mut State, chunk: VisitChunk) -> Verdict {
    let verdict = judge(st, &chunk);
    match verdict {
        Verdict::Refused => st.stats.frames_rejected += 1,
        Verdict::Duplicate => st.stats.chunks_duplicate_dropped += 1,
        Verdict::Fresh(idx) => {
            st.complete[idx] = true;
            st.complete_count += 1;
            st.buffered.insert(idx, chunk);
            if let Some(lease_id) = st.leased_block.remove(&idx) {
                // Retire just this block; the lease lives on for its
                // others.
                if let Some(lease) = st.leases.get_mut(&lease_id) {
                    lease.blocks.retain(|&b| b != idx);
                    if lease.blocks.is_empty() {
                        st.leases.remove(&lease_id);
                    }
                }
            }
        }
    }
    verdict
}

/// Admit a submission's decoded chunks (already durable if a spool is
/// configured — the caller appends them to the spool *before* taking
/// the state lock) and return the ack. If the schedule refuses any
/// chunk, none is taken and each refused one counts in
/// `frames_rejected`.
fn admit(st: &mut State, chunks: Vec<VisitChunk>) -> Msg {
    let (refused, _) = judge_all(st, &chunks);
    if refused > 0 {
        st.stats.frames_rejected += refused;
        return refusal(all_complete(st));
    }
    let mut duplicates = 0;
    for chunk in chunks {
        if let Verdict::Duplicate = admit_one(st, chunk) {
            duplicates += 1;
        }
    }
    Msg::SubmitAck {
        accepted: true,
        duplicates,
        done: all_complete(st),
    }
}

/// One submission — a lease's sealed chunks — end to end. Every frame is
/// decoded and judged before anything touches disk: one corrupt or
/// refused frame refuses the whole submission, and each such frame
/// counts in `frames_rejected`. The fresh frames then go to the spool as
/// one group-commit entry *outside* the state lock (this handler syncs
/// the log itself or waits for the sync that covers them), and the
/// chunks are admitted under one lock with one wake-up of the fold
/// thread.
fn handle_submit(frames: Vec<Vec<u8>>, shared: &Shared, spool: Option<&SpoolLog>) -> Msg {
    let mut chunks = Vec::with_capacity(frames.len());
    let mut corrupt = 0;
    for frame in &frames {
        match VisitChunk::decode(frame) {
            Ok(chunk) => chunks.push(chunk),
            Err(_) => corrupt += 1,
        }
    }
    let fresh = {
        let mut st = shared.lock();
        let (refused, fresh) = judge_all(&st, &chunks);
        if corrupt + refused > 0 {
            st.stats.frames_rejected += corrupt + refused;
            return refusal(all_complete(&st));
        }
        if fresh.is_empty() {
            // All duplicates: answered without touching disk.
            return admit(&mut st, chunks);
        }
        fresh
    };
    if let Some(spool) = spool {
        // Every frame decoded, so positions in `chunks` are positions in
        // `frames`.
        let mut fresh = fresh.into_iter().peekable();
        let fresh_frames = frames
            .into_iter()
            .enumerate()
            .filter(|&(at, _)| fresh.next_if_eq(&at).is_some())
            .map(|(_, frame)| frame)
            .collect();
        if spool.append(fresh_frames).is_err() {
            // Durability could not be guaranteed; do not ack, leave the
            // blocks leasable so a later submit can retry.
            return refusal(false);
        }
    }
    let mut st = shared.lock();
    // Two handlers can race the same key past the pre-check; both frames
    // are byte-identical and durable, and `admit` drops the loser by key.
    let ack = admit(&mut st, chunks);
    drop(st);
    shared.changed.notify_all();
    ack
}

/// Keeps the live-worker count honest across every `serve_conn` exit
/// path: armed when a handshake is accepted, decrements on drop (clean
/// close, wire error, idle strikes, or panic alike).
struct LiveGuard<'a> {
    shared: &'a Shared,
    armed: bool,
}

impl LiveGuard<'_> {
    fn arm(&mut self, st: &mut State) {
        if !self.armed {
            st.live_workers += 1;
            self.armed = true;
        }
    }
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut st) = self.shared.state.lock() {
                st.live_workers = st.live_workers.saturating_sub(1);
            }
        }
    }
}

/// One worker connection, served until close / error / campaign end.
/// The only timeout is the lease-deadline-derived idle backstop — the
/// handler otherwise sleeps in the kernel until bytes arrive.
fn serve_conn(
    t: &mut dyn Transport,
    shared: &Shared,
    cfg: &CoordConfig,
    fingerprint: u64,
    spool: Option<&SpoolLog>,
) {
    if t.set_recv_deadline(Some(idle_backstop(cfg))).is_err() {
        return;
    }
    let mut live = LiveGuard {
        shared,
        armed: false,
    };
    // The id this connection got at `Hello`: lease ownership follows the
    // connection, not the id a frame claims.
    let mut worker = None;
    let mut idle_strikes = 0u32;
    loop {
        let msg = match recv_msg(t) {
            Ok(m) => {
                idle_strikes = 0;
                m
            }
            Err(ref e) if is_timeout(e) => {
                // Idle longer than any live lease could be: either the
                // campaign ended, or the peer is wedged past the point
                // where its leases survive — two strikes and out.
                if shared.done.load(Ordering::Acquire) {
                    return;
                }
                idle_strikes += 1;
                if idle_strikes >= 2 {
                    return;
                }
                continue;
            }
            Err(DistdError::Wire(_)) => {
                // A corrupt or truncated frame on the doorstep: count it
                // and drop the conn (the stream can no longer be framed).
                let mut st = shared.lock();
                st.stats.frames_rejected += 1;
                return;
            }
            // Clean close or a broken socket: the worker is gone; its
            // leases expire on their own.
            Err(_) => return,
        };
        let reply = match msg {
            Msg::Hello { fingerprint: fp } => {
                if fp == fingerprint {
                    let mut st = shared.lock();
                    let id = st.next_worker_id;
                    st.next_worker_id += 1;
                    st.stats.workers_seen += 1;
                    live.arm(&mut st);
                    worker = Some(id);
                    Msg::Welcome { worker_id: id }
                } else {
                    Msg::Reject {
                        reason: "config fingerprint mismatch".into(),
                    }
                }
            }
            Msg::RequestLease { .. } => lease_or_wait(shared, cfg, worker),
            Msg::Heartbeat { lease_id, .. } => {
                let mut st = shared.lock();
                expire_lapsed(&mut st, Instant::now());
                match st.leases.get_mut(&lease_id) {
                    Some(lease) => {
                        lease.deadline = Instant::now() + cfg.lease_timeout;
                        Msg::HeartbeatAck
                    }
                    None => Msg::Expired,
                }
            }
            Msg::SubmitChunk { frames, .. } => handle_submit(frames, shared, spool),
            // Anything else is a peer speaking the wrong side of the
            // protocol; drop it.
            _ => return,
        };
        if send_msg(t, &reply).is_err() {
            return;
        }
    }
}

/// A bound, not-yet-running coordinator.
pub struct Coordinator {
    listener: TcpListener,
    cfg: CoordConfig,
}

impl Coordinator {
    /// Bind the coordinator socket (use port 0 for an ephemeral port and
    /// read it back with [`Coordinator::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: CoordConfig) -> std::io::Result<Coordinator> {
        Ok(Coordinator {
            listener: TcpListener::bind(addr)?,
            cfg,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the campaign to completion: replay the spool, serve workers,
    /// fold every chunk to `sink` in `(day, seq)` order. Returns
    /// the run's counters. (`sink` runs on the fold thread, hence the
    /// `Send` bound.)
    pub fn run(self, sink: &mut (dyn FnMut(VisitChunk) + Send)) -> Result<CoordStats, DistdError> {
        let cfg = &self.cfg;
        let fingerprint =
            crate::proto::config_fingerprint(&cfg.eco, cfg.chunk_visits, &cfg.session);
        let mut st = initial_state(cfg);

        // --- Spool replay -------------------------------------------------
        if let Some(dir) = &cfg.spool_dir {
            let replay = spool_load(dir)?;
            st.stats.frames_rejected += replay.rejected as u64;
            // Chunks arrive key-sorted, so day 0 admits and folds first;
            // folding day 0 finalizes the schedule, which lets the later
            // days' keys resolve. Loop until a pass makes no progress so
            // replay order never depends on that subtlety.
            let mut pending = replay.chunks;
            loop {
                let before = pending.len();
                let mut rest = Vec::new();
                for chunk in pending {
                    if st.key_index.contains_key(&chunk.key()) {
                        if let Verdict::Fresh(_) = admit_one(&mut st, chunk) {
                            st.stats.chunks_replayed += 1;
                        }
                    } else {
                        rest.push(chunk);
                    }
                }
                fold_ready(&mut st, &mut *sink);
                if rest.is_empty() || rest.len() == before {
                    // Leftovers belong to no block of this schedule:
                    // refuse them like any unknown submission.
                    st.stats.frames_rejected += rest.len() as u64;
                    break;
                }
                pending = rest;
            }
        }
        if st.done {
            return Ok(st.stats);
        }
        // A new log file, after replay: a restart never appends to an old
        // one, and `bind` alone creates nothing.
        let log = cfg
            .spool_dir
            .as_deref()
            .map(|dir| SpoolLog::create(dir, cfg.compact_every))
            .transpose()?;

        // --- Serve --------------------------------------------------------
        let wake_addr = self.listener.local_addr()?;
        let shared = Shared {
            state: Mutex::new(st),
            changed: Condvar::new(),
            done: AtomicBool::new(false),
        };
        std::thread::scope(|scope| {
            let (shared, spool) = (&shared, log.as_ref());
            // The fold thread owns the sink: it sleeps on `changed` until
            // a chunk is admitted, takes the ready run under the lock and
            // folds it with the lock released.
            scope.spawn(move || {
                let mut st = shared.lock();
                loop {
                    let ready = take_ready(&mut st);
                    if !ready.is_empty() {
                        drop(st);
                        // The window moved (or the campaign ended): wake
                        // any lease request held on it.
                        shared.changed.notify_all();
                        for chunk in ready {
                            sink(chunk);
                        }
                        st = shared.lock();
                        continue;
                    }
                    if st.done {
                        break;
                    }
                    // Poisoned only by a bug (see `Shared::lock`).
                    st = shared.changed.wait(st).expect("coordinator state");
                }
                drop(st);
                shared.done.store(true, Ordering::Release);
                // Wake the (blocking) accept loop so it can observe done.
                let _ = TcpStream::connect(wake_addr);
            });
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if shared.done.load(Ordering::Acquire) {
                            break;
                        }
                        if let Ok(mut t) = TcpTransport::new(stream) {
                            scope
                                .spawn(move || serve_conn(&mut t, shared, cfg, fingerprint, spool));
                        }
                    }
                    Err(_) => {
                        if shared.done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                }
            }
            // The handlers see `done` on their next idle timeout (workers
            // normally hang up first); the scope joins them all.
        });
        // Every thread has been joined, and the scope re-raised any
        // panic, so no thread can have poisoned the lock, and no handler
        // is still appending to the log.
        let mut st = shared.state.into_inner().expect("coordinator state");
        if let Some(log) = log {
            let counts = log.finish();
            st.stats.segments_written = counts.files_created;
            st.stats.chunks_compacted = counts.frames_appended;
            st.stats.frame_syncs = counts.frame_syncs;
            st.stats.extension_syncs = counts.extension_syncs;
        }
        Ok(st.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_crawler::{run_campaign_streamed, CampaignConfig};
    use hb_ecosystem::SiteFactory;

    fn tiny_cfg() -> CoordConfig {
        CoordConfig {
            chunk_visits: 64,
            ..CoordConfig::new(EcosystemConfig::tiny_scale())
        }
    }

    /// The chunks an in-process campaign over `cfg`'s universe and layout
    /// emits, in emission order.
    fn campaign_chunks(cfg: &CoordConfig) -> Vec<VisitChunk> {
        let eco = SiteFactory::new(cfg.eco.clone());
        let campaign = CampaignConfig {
            chunk_visits: cfg.chunk_visits,
            ..CampaignConfig::default()
        };
        let mut chunks = Vec::new();
        run_campaign_streamed(&eco, &campaign, &mut |c| chunks.push(c));
        chunks
    }

    /// Drive the state machine with `chunks` in fold order (admit, then
    /// fold) and return the keys of its final schedule.
    fn schedule_keys_after(cfg: &CoordConfig, chunks: &[VisitChunk]) -> Vec<(u32, u32)> {
        let mut st = initial_state(cfg);
        for chunk in chunks {
            admit(&mut st, vec![chunk.clone()]);
            fold_ready(&mut st, &mut |_| {});
        }
        assert!(st.done && st.schedule_final);
        st.schedule.iter().map(PlanBlock::key).collect()
    }

    /// One plan, two drivers: the coordinator's schedule names exactly
    /// the chunks `run_campaign_streamed` emits, in the same order — with
    /// a block size that leaves ragged tails.
    #[test]
    fn schedule_keys_match_the_streamed_campaign() {
        let cfg = CoordConfig {
            chunk_visits: 23,
            ..tiny_cfg()
        };
        let chunks = campaign_chunks(&cfg);
        let emitted: Vec<_> = chunks.iter().map(VisitChunk::key).collect();
        assert!(emitted.iter().any(|k| k.0 > 0), "revisit days present");
        assert_eq!(schedule_keys_after(&cfg, &chunks), emitted);
    }

    #[test]
    fn empty_universe_is_final_and_done_at_once() {
        let st = initial_state(&CoordConfig::new(
            EcosystemConfig::tiny_scale().with_sites(0),
        ));
        assert!(st.done && st.schedule_final);
        assert!(st.schedule.is_empty());
    }

    /// Drive the schedule/fold state machine directly, no sockets: feed
    /// it the chunks a real crawl produces and check the fold order.
    #[test]
    fn state_machine_folds_in_campaign_order() {
        let cfg = tiny_cfg();
        let chunks = campaign_chunks(&cfg);
        let mut st = initial_state(&cfg);
        // Submit out of order within the window: reverse each day's run.
        let mut folded_keys = Vec::new();
        let mut sink = |c: VisitChunk| folded_keys.push(c.key());
        let mut queue: Vec<VisitChunk> = chunks.clone();
        while !queue.is_empty() {
            // Admit whatever the current schedule recognizes, in reverse.
            let mut rest = Vec::new();
            for chunk in queue.into_iter().rev() {
                if st.key_index.contains_key(&chunk.key()) {
                    let ack = admit(&mut st, vec![chunk]);
                    assert!(matches!(
                        ack,
                        Msg::SubmitAck {
                            accepted: true,
                            duplicates: 0,
                            ..
                        }
                    ));
                } else {
                    rest.push(chunk);
                }
            }
            fold_ready(&mut st, &mut sink);
            queue = rest;
        }
        assert!(st.done);
        let want: Vec<_> = chunks.iter().map(VisitChunk::key).collect();
        assert_eq!(folded_keys, want, "fold order is the campaign order");
        assert_eq!(st.stats.chunks_folded, chunks.len());
    }

    #[test]
    fn duplicate_chunks_are_dropped_idempotently() {
        let cfg = tiny_cfg();
        let chunks = campaign_chunks(&cfg);
        let mut st = initial_state(&cfg);
        let mut n = 0usize;
        let mut sink = |_c: VisitChunk| n += 1;
        let first = chunks[0].clone();
        assert!(matches!(
            admit(&mut st, vec![first.clone()]),
            Msg::SubmitAck {
                accepted: true,
                duplicates: 0,
                ..
            }
        ));
        // The re-crawl of an expired lease arrives late: same key, and a
        // submission naming one block twice takes it once.
        assert!(matches!(
            admit(&mut st, vec![first]),
            Msg::SubmitAck {
                accepted: true,
                duplicates: 1,
                ..
            }
        ));
        assert!(matches!(
            admit(&mut st, vec![chunks[1].clone(), chunks[1].clone()]),
            Msg::SubmitAck {
                accepted: true,
                duplicates: 1,
                ..
            }
        ));
        fold_ready(&mut st, &mut sink);
        assert_eq!(n, 2);
        assert_eq!(st.stats.chunks_duplicate_dropped, 2);
    }

    #[test]
    fn lapsed_leases_are_reissued_and_window_bounds_grants() {
        let cfg = CoordConfig {
            lease_timeout: Duration::from_millis(1),
            reorder_window: 2,
            lease_blocks: 1,
            ..tiny_cfg()
        };
        let mut st = initial_state(&cfg);
        // Window of 2, one block per lease: exactly two grants, then Wait.
        let a = grant(&mut st, &cfg, None);
        let b = grant(&mut st, &cfg, None);
        assert!(matches!(a, Msg::Lease { .. }));
        assert!(matches!(b, Msg::Lease { .. }));
        assert_eq!(grant(&mut st, &cfg, None), Msg::Wait);
        // Let both lapse; the same two blocks are granted again.
        std::thread::sleep(Duration::from_millis(5));
        let c = grant(&mut st, &cfg, None);
        assert!(matches!(c, Msg::Lease { .. }));
        assert_eq!(st.stats.leases_reissued, 2);
        assert_eq!(st.stats.leases_issued, 3);
        if let (Msg::Lease { blocks: b0, .. }, Msg::Lease { blocks: b2, .. }) = (a, c) {
            assert_eq!(
                b0[0].seq, b2[0].seq,
                "the re-issued lease names the same block"
            );
        }
    }

    fn shared_over(cfg: &CoordConfig) -> Shared {
        Shared {
            state: Mutex::new(initial_state(cfg)),
            changed: Condvar::new(),
            done: AtomicBool::new(false),
        }
    }

    /// Long-poll: a request that finds the window full is held, not
    /// answered `Wait`, and gets a `Lease` as soon as the blocking chunk
    /// folds.
    #[test]
    fn full_window_request_is_held_until_the_fold_opens_it() {
        let cfg = CoordConfig {
            reorder_window: 2,
            lease_blocks: 1,
            ..tiny_cfg()
        };
        let chunks = campaign_chunks(&cfg);
        assert!(chunks.len() >= 3, "need a third day-0 block");
        let shared = shared_over(&cfg);
        for w in 1..=2 {
            assert!(matches!(
                lease_or_wait(&shared, &cfg, Some(w)),
                Msg::Lease { .. }
            ));
        }
        assert_eq!(grant(&mut shared.lock(), &cfg, None), Msg::Wait);
        let started = AtomicBool::new(false);
        let (reply, held_for) = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                started.store(true, Ordering::Release);
                lease_or_wait(&shared, &cfg, Some(3))
            });
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(50));
            // Block 0 lands and folds: the window moves on to block 2.
            let folded_at = Instant::now();
            let mut st = shared.lock();
            admit(&mut st, vec![chunks[0].clone()]);
            assert_eq!(take_ready(&mut st).len(), 1);
            drop(st);
            shared.changed.notify_all();
            let reply = waiter.join().expect("waiter");
            (reply, folded_at.elapsed())
        });
        let Msg::Lease { blocks, .. } = reply else {
            panic!("a held request gets a lease, got {reply:?}");
        };
        assert_eq!(blocks[0].seq, chunks[2].key().1);
        assert!(
            held_for < idle_backstop(&cfg) / 2,
            "answered by the fold ({held_for:?}), not by the hold cap"
        );
    }

    /// With nothing leasable and no lease lapsing, the reply is
    /// `Wait`, and only once the hold cap has passed; a
    /// lease lapsing inside the hold is re-issued at its deadline.
    #[test]
    fn nothing_leasable_waits_out_the_hold_cap_or_a_lease_deadline() {
        let cfg = CoordConfig {
            reorder_window: 2,
            lease_blocks: 1,
            lease_timeout: Duration::from_millis(1000),
            ..tiny_cfg()
        };
        let cap = idle_backstop(&cfg) / 2;
        assert_eq!(cap, Duration::from_millis(500));
        let shared = shared_over(&cfg);
        for w in 1..=2 {
            assert!(matches!(
                lease_or_wait(&shared, &cfg, Some(w)),
                Msg::Lease { .. }
            ));
        }
        let t = Instant::now();
        assert_eq!(lease_or_wait(&shared, &cfg, Some(3)), Msg::Wait);
        assert!(t.elapsed() >= cap, "Wait came after {:?}", t.elapsed());
        // Both leases lapse ~300 ms into the next hold: the request is
        // answered by the re-issue, before its own cap.
        std::thread::sleep(Duration::from_millis(200));
        let t = Instant::now();
        assert!(matches!(
            lease_or_wait(&shared, &cfg, Some(3)),
            Msg::Lease { .. }
        ));
        assert!(t.elapsed() < cap, "re-issue came after {:?}", t.elapsed());
        assert_eq!(shared.lock().stats.leases_reissued, 2);
    }

    /// A request from a connection that still holds an unfinished lease
    /// is a prefetch: with nothing leasable it is answered at once, since
    /// the fold may be waiting on that lease's own unsent block.
    #[test]
    fn nothing_leasable_answers_a_lease_holder_at_once() {
        let cfg = CoordConfig {
            reorder_window: 2,
            lease_blocks: 1,
            ..tiny_cfg()
        };
        let cap = idle_backstop(&cfg) / 2;
        let shared = shared_over(&cfg);
        for w in 1..=2 {
            assert!(matches!(
                lease_or_wait(&shared, &cfg, Some(w)),
                Msg::Lease { .. }
            ));
        }
        let t = Instant::now();
        assert_eq!(lease_or_wait(&shared, &cfg, Some(1)), Msg::Wait);
        assert!(
            t.elapsed() < cap / 10,
            "the holder waited {:?} against a {cap:?} cap",
            t.elapsed()
        );
    }

    /// The right key over the wrong visits is refused and counted, and
    /// its block stays leasable, as does the honest chunk submitted with
    /// it; the honest chunk alone is then admitted.
    #[test]
    fn rows_that_are_not_their_blocks_are_refused() {
        let cfg = tiny_cfg();
        let chunks = campaign_chunks(&cfg);
        let mut liar = chunks[1].clone();
        (liar.day, liar.seq) = (chunks[0].day, chunks[0].seq);
        let mut st = initial_state(&cfg);
        assert!(matches!(
            admit(&mut st, vec![chunks[1].clone(), liar]),
            Msg::SubmitAck {
                accepted: false,
                duplicates: 0,
                ..
            }
        ));
        assert_eq!(st.stats.frames_rejected, 1);
        assert!(!st.complete[0], "the block stays leasable");
        assert!(!st.complete[1], "nothing of the submission is taken");
        assert!(matches!(
            admit(&mut st, vec![chunks[0].clone()]),
            Msg::SubmitAck {
                accepted: true,
                duplicates: 0,
                ..
            }
        ));
    }

    #[test]
    fn batched_leases_retire_block_by_block() {
        let cfg = CoordConfig {
            reorder_window: 8,
            lease_blocks: 3,
            lease_timeout: Duration::from_millis(1),
            ..tiny_cfg()
        };
        let chunks = campaign_chunks(&cfg);
        assert!(chunks.len() >= 3, "need ≥ 3 day-0 blocks for a batch");
        let mut st = initial_state(&cfg);
        let Msg::Lease { lease_id, blocks } = grant(&mut st, &cfg, None) else {
            panic!("first grant must lease");
        };
        assert_eq!(blocks.len(), 3, "the lease batches up to lease_blocks");
        assert_eq!(st.stats.leases_issued, 1, "one round-trip, three blocks");
        // Submitting the first block retires it but keeps the lease.
        assert!(matches!(
            admit(&mut st, vec![chunks[0].clone()]),
            Msg::SubmitAck {
                accepted: true,
                duplicates: 0,
                ..
            }
        ));
        assert!(st.leases.contains_key(&lease_id), "lease survives");
        assert_eq!(st.leases[&lease_id].blocks.len(), 2);
        // Let it lapse with two blocks unfinished: one re-issue, and the
        // completed block is never granted again.
        std::thread::sleep(Duration::from_millis(5));
        expire_lapsed(&mut st, Instant::now());
        assert_eq!(st.stats.leases_reissued, 1, "a lapsed batch counts once");
        let Msg::Lease { blocks: again, .. } = grant(&mut st, &cfg, None) else {
            panic!("re-grant must lease");
        };
        assert!(
            again.iter().all(|b| b.seq != chunks[0].key().1),
            "the completed block is not re-leased"
        );
    }

    /// The starvation shape: 8 day-0 blocks, 3 live workers,
    /// 4-block leases. Uncapped grants hand out 4+4 and starve the third
    /// worker; the fair-share cap (`ceil(remaining / live_workers)`)
    /// spreads the schedule 3+3+2 so every live worker crawls.
    #[test]
    fn batched_grants_leave_fair_shares_for_live_peers() {
        let cfg = CoordConfig {
            chunk_visits: 64,
            lease_blocks: 4,
            ..CoordConfig::new(EcosystemConfig::tiny_scale().with_sites(512))
        };
        let mut st = initial_state(&cfg);
        assert_eq!(st.schedule.len(), 8, "8 day-0 blocks");
        st.live_workers = 3;
        let mut granted = Vec::new();
        for _ in 0..3 {
            match grant(&mut st, &cfg, None) {
                Msg::Lease { blocks, .. } => granted.push(blocks.len()),
                other => panic!("every live worker gets a lease, got {other:?}"),
            }
        }
        assert_eq!(granted, vec![3, 3, 2], "fair shares, nobody starved");
        // A lone worker still gets the full batch — the cap only bites
        // when peers are attached.
        let mut solo = initial_state(&cfg);
        solo.live_workers = 1;
        let Msg::Lease { blocks, .. } = grant(&mut solo, &cfg, None) else {
            panic!("solo grant must lease");
        };
        assert_eq!(blocks.len(), 4, "solo worker keeps full batching");
    }

    #[test]
    fn unknown_blocks_are_refused() {
        let cfg = tiny_cfg();
        let mut chunk = campaign_chunks(&cfg)[0].clone();
        chunk.seq = 9_999; // no such block on day 0 of this schedule
        let mut st = initial_state(&cfg);
        assert!(matches!(
            admit(&mut st, vec![chunk]),
            Msg::SubmitAck {
                accepted: false,
                duplicates: 0,
                ..
            }
        ));
        assert_eq!(st.stats.frames_rejected, 1);
    }
}

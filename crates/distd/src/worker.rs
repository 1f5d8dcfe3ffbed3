//! The crash-safe crawl worker: lease, crawl, heartbeat, submit.
//!
//! A worker owns no schedule state. It derives its universe from the same
//! `EcosystemConfig` the coordinator holds (the handshake fingerprint
//! proves it), asks for a lease — up to `lease_blocks` blocks per
//! round-trip — crawls each block with the exact in-process machinery
//! (`hb_crawler::crawl_block_until` — same block-local interner, same
//! direct-to-column sessions, same pooled scratch), and ships each sealed
//! chunk back. Because visits are pure functions of `(seed, rank, day)`,
//! a worker can be SIGKILLed at any instant and the re-issued lease
//! produces a byte-identical chunk on another worker.
//!
//! Failure posture mirrors the ad-stack's `RobustnessPolicy`: every
//! remote interaction has a deadline, heartbeat replies get a *tighter*
//! deadline (`hb_deadline`) so a half-open connection is detected as a
//! stall and the wedged lease abandoned mid-block instead of heartbeated
//! forever; reconnects back off with deterministic jitter (pure in
//! `(session, attempt)` — see [`reconnect_backoff`]) under a total time
//! budget, and when the budget is spent the worker exits cleanly with
//! [`DistdError::CoordinatorLost`] rather than hanging.

use crate::proto::{config_fingerprint, recv_msg, send_msg, DistdError, Msg};
use crate::transport::{Connector, TcpConnector, Transport};
use hb_crawler::{crawl_block_until, SessionConfig, VisitScratch};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use std::time::{Duration, Instant};

/// Worker tuning.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// The campaign universe — must match the coordinator's (checked by
    /// fingerprint at handshake).
    pub eco: EcosystemConfig,
    /// Shard count (fingerprint input).
    pub shards: u32,
    /// Block size (fingerprint input).
    pub chunk_visits: usize,
    /// Session policy used for every visit.
    pub session: SessionConfig,
    /// Lease renewal cadence; keep well under the coordinator's
    /// `lease_timeout`.
    pub heartbeat_every: Duration,
    /// Artificial per-visit delay — fault-injection aid so tests can
    /// reliably SIGKILL a worker mid-lease. Zero in production.
    pub visit_delay: Duration,
    /// Connection attempts before declaring the coordinator lost.
    pub connect_attempts: u32,
    /// First retry backoff; doubles per attempt with deterministic
    /// jitter (see [`reconnect_backoff`]).
    pub backoff_base: Duration,
    /// Per-read socket deadline; a coordinator silent this long counts as
    /// a broken connection.
    pub io_timeout: Duration,
    /// Tighter deadline for heartbeat replies: a renewal slower than
    /// this marks the connection half-open and the lease is abandoned
    /// mid-block (stall detection).
    pub hb_deadline: Duration,
    /// Hard cap on the total time one reconnect incident may spend
    /// backing off before the worker exits with `CoordinatorLost`.
    pub reconnect_budget: Duration,
    /// Instance discriminator for the jitter schedule — respawns of a
    /// crashed worker should use distinct instances so their backoff
    /// never marches in lockstep.
    pub instance: u64,
}

impl WorkerConfig {
    /// Sensible defaults for a worker of `addr`'s fabric.
    pub fn new(addr: String, eco: EcosystemConfig) -> WorkerConfig {
        WorkerConfig {
            addr,
            eco,
            shards: 1,
            chunk_visits: 256,
            session: SessionConfig::default(),
            heartbeat_every: Duration::from_secs(2),
            visit_delay: Duration::ZERO,
            connect_attempts: 5,
            backoff_base: Duration::from_millis(100),
            io_timeout: Duration::from_secs(10),
            hb_deadline: Duration::from_secs(1),
            reconnect_budget: Duration::from_secs(10),
            instance: 0,
        }
    }
}

/// What one worker accomplished.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// Last worker id the coordinator assigned (changes on reconnect).
    pub worker_id: u32,
    /// Blocks crawled, submitted and acked as fresh.
    pub blocks_completed: u64,
    /// Visits crawled (including blocks later dropped as duplicates and
    /// blocks abandoned mid-crawl).
    pub visits: u64,
    /// Leases the coordinator declared expired under this worker.
    pub leases_expired: u64,
    /// Submissions acked as duplicates of an already-complete block.
    pub duplicates: u64,
    /// Times the connection was re-established mid-campaign.
    pub reconnects: u64,
    /// Established connections that broke (reset, timeout, stall,
    /// rejected frame) before the campaign ended.
    pub conn_breaks: u64,
    /// Dial attempts that failed (refused, unreachable, handshake i/o).
    pub connect_failures: u64,
    /// Inbound frames that failed integrity/structural validation.
    pub wire_rejected: u64,
    /// Leases walked away from (wedged connection or unackable submit).
    pub leases_abandoned: u64,
}

/// The reconnect backoff schedule: pure in `(session, attempt)`.
/// Exponential (doubling, capped at 64×) plus a deterministic jitter in
/// `[0, base)` drawn by hashing the coordinates — two workers that died
/// together (same crash, same attempt counter) still dial back at
/// different instants, without any RNG state to make the schedule
/// unreproducible.
pub fn reconnect_backoff(base: Duration, session: u64, attempt: u32) -> Duration {
    let base = base.max(Duration::from_millis(1));
    let exp = base.saturating_mul(1u32 << attempt.min(6));
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&session.to_le_bytes());
    bytes[8..].copy_from_slice(&u64::from(attempt).to_le_bytes());
    let jitter_ns = hb_core::xxh64(&bytes) % (base.as_nanos() as u64).max(1);
    exp + Duration::from_nanos(jitter_ns)
}

/// Connect + handshake, with jittered deterministic backoff under a
/// total time budget.
fn connect(
    cfg: &WorkerConfig,
    connector: &dyn Connector,
    fingerprint: u64,
    session_id: u64,
    stats: &mut WorkerStats,
) -> Result<(Box<dyn Transport>, u32), DistdError> {
    let attempts = cfg.connect_attempts.max(1);
    let started = Instant::now();
    for attempt in 0..attempts {
        match try_connect(cfg, connector, fingerprint) {
            Ok(ok) => return Ok(ok),
            Err(DistdError::Rejected(reason)) => return Err(DistdError::Rejected(reason)),
            Err(_) => {
                stats.connect_failures += 1;
                if attempt + 1 >= attempts {
                    break;
                }
                let backoff = reconnect_backoff(cfg.backoff_base, session_id, attempt);
                if started.elapsed() + backoff > cfg.reconnect_budget {
                    // The budget would be blown sleeping; give up now,
                    // cleanly, rather than half-sleep and give up later.
                    break;
                }
                std::thread::sleep(backoff);
            }
        }
    }
    Err(DistdError::CoordinatorLost)
}

fn try_connect(
    cfg: &WorkerConfig,
    connector: &dyn Connector,
    fingerprint: u64,
) -> Result<(Box<dyn Transport>, u32), DistdError> {
    let mut t = connector.connect()?;
    t.set_recv_deadline(Some(cfg.io_timeout))?;
    send_msg(&mut *t, &Msg::Hello { fingerprint })?;
    match recv_msg(&mut *t)? {
        Msg::Welcome { worker_id } => Ok((t, worker_id)),
        Msg::Reject { reason } => Err(DistdError::Rejected(reason)),
        _ => Err(DistdError::Protocol("expected Welcome or Reject")),
    }
}

/// Send one heartbeat; `Ok(true)` = renewed, `Ok(false)` = expired. The
/// reply is awaited under the tight `hb_deadline` — a coordinator that
/// cannot renew a lease within it is treated as a wedged connection.
fn heartbeat(
    t: &mut dyn Transport,
    cfg: &WorkerConfig,
    worker_id: u32,
    lease_id: u64,
) -> Result<bool, DistdError> {
    send_msg(
        t,
        &Msg::Heartbeat {
            worker_id,
            lease_id,
        },
    )?;
    t.set_recv_deadline(Some(cfg.hb_deadline))?;
    let reply = recv_msg(t);
    let _ = t.set_recv_deadline(Some(cfg.io_timeout));
    match reply? {
        Msg::HeartbeatAck => Ok(true),
        Msg::Expired => Ok(false),
        _ => Err(DistdError::Protocol("expected HeartbeatAck or Expired")),
    }
}

/// One live connection to the coordinator, plus what it takes to dial a
/// replacement.
struct Link<'a> {
    cfg: &'a WorkerConfig,
    connector: &'a dyn Connector,
    fingerprint: u64,
    /// The jitter session (see [`reconnect_backoff`]).
    session_id: u64,
    t: Box<dyn Transport>,
    worker_id: u32,
}

impl Link<'_> {
    /// Count a broken conversation and re-establish the connection (one
    /// bounded reconnect cycle; campaign-level retries are the
    /// `connect()` budget, applied afresh per incident).
    fn reconnect(&mut self, e: &DistdError, stats: &mut WorkerStats) -> Result<(), DistdError> {
        if matches!(e, DistdError::Wire(_)) {
            stats.wire_rejected += 1;
        }
        stats.conn_breaks += 1;
        let (t, id) = connect(
            self.cfg,
            self.connector,
            self.fingerprint,
            self.session_id,
            stats,
        )?;
        self.t = t;
        self.worker_id = id;
        stats.worker_id = id;
        stats.reconnects += 1;
        Ok(())
    }
}

/// A sent `SubmitChunk` whose ack has not been read yet. `msg` is the
/// encoded message, kept for the one idempotent re-send; `sent` is how
/// the first send went.
struct InFlight {
    msg: Vec<u8>,
    sent: Result<(), DistdError>,
}

/// What reading an in-flight submit's ack decided.
enum Settled {
    /// Acked (fresh or duplicate); carry on with the lease.
    Next,
    /// The ack said the campaign is complete.
    Done,
    /// Two failed attempts; the rest of the lease is abandoned.
    Abandon,
}

/// Read the ack of the in-flight submit. A rejected ack or a lost
/// connection gets one re-send of the same bytes (idempotent: duplicate-
/// dropped if the first submit landed); a second failure abandons the
/// rest of the lease to the lease-expiry path.
fn settle(link: &mut Link, stats: &mut WorkerStats, sub: InFlight) -> Result<Settled, DistdError> {
    let mut reply = sub.sent.and_then(|()| recv_msg(&mut *link.t));
    let mut resent = false;
    loop {
        let retry = match reply {
            Ok(Msg::SubmitAck {
                accepted: true,
                duplicate,
                done,
            }) => {
                if duplicate {
                    stats.duplicates += 1;
                } else {
                    stats.blocks_completed += 1;
                }
                // Completion piggybacks on the ack: no final request
                // round-trip.
                return Ok(if done { Settled::Done } else { Settled::Next });
            }
            Ok(Msg::SubmitAck {
                accepted: false, ..
            }) => true,
            Ok(_) => false,
            Err(e) => {
                // The ack was lost with the connection.
                link.reconnect(&e, stats)?;
                true
            }
        };
        if !retry || resent {
            stats.leases_abandoned += 1;
            return Ok(Settled::Abandon);
        }
        resent = true;
        reply = link
            .t
            .send_frame(&sub.msg)
            .and_then(|()| recv_msg(&mut *link.t));
    }
}

/// Run one worker over plain TCP until the coordinator reports the
/// campaign done.
///
/// Crash-safety contract: the worker never holds campaign state the
/// coordinator cannot reconstruct — killing it at any point costs at most
/// one lease timeout. Coordinator loss (connection refused/broken through
/// the whole retry budget) returns [`DistdError::CoordinatorLost`].
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerStats, DistdError> {
    let connector = TcpConnector::new(cfg.addr.clone());
    let mut stats = WorkerStats::default();
    run_worker_session(cfg, &connector, &mut stats)?;
    Ok(stats)
}

/// [`run_worker`] over an explicit [`Connector`] (the chaos soak dials
/// through a fault schedule) and caller-owned stats — the counters
/// survive an error exit, so a harness respawning crashed workers can
/// still account for everything this session saw.
///
/// Submits are pipelined: block N's `SubmitChunk` goes out, block N+1 is
/// crawled while the coordinator spools N, and N's ack is read before
/// N+1 is sent. A pending ack is also read before any heartbeat and at
/// the end of every lease, so a connection never carries more than one
/// unanswered frame.
pub fn run_worker_session(
    cfg: &WorkerConfig,
    connector: &dyn Connector,
    stats: &mut WorkerStats,
) -> Result<(), DistdError> {
    let factory = SiteFactory::new(cfg.eco.clone());
    let fingerprint =
        config_fingerprint(&cfg.eco, cfg.shards.max(1), cfg.chunk_visits, &cfg.session);
    // The jitter session: the campaign identity plus this instance, so
    // respawns never share a backoff schedule.
    let session_id = fingerprint ^ cfg.instance.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut scratch = VisitScratch::new(factory.partner_list());
    let (t, worker_id) = connect(cfg, connector, fingerprint, session_id, stats)?;
    stats.worker_id = worker_id;
    let mut link = Link {
        cfg,
        connector,
        fingerprint,
        session_id,
        t,
        worker_id,
    };

    loop {
        let reply = send_msg(
            &mut *link.t,
            &Msg::RequestLease {
                worker_id: link.worker_id,
            },
        )
        .and_then(|()| recv_msg(&mut *link.t));
        let (lease_id, blocks) = match reply {
            Ok(Msg::Lease { lease_id, blocks }) => (lease_id, blocks),
            Ok(Msg::Done) => return Ok(()),
            Ok(Msg::Wait { millis }) => {
                std::thread::sleep(Duration::from_millis(u64::from(millis)));
                continue;
            }
            Ok(_) => return Err(DistdError::Protocol("unexpected lease reply")),
            Err(e) => {
                link.reconnect(&e, stats)?;
                continue;
            }
        };
        // The whole batch rides one lease: a heartbeat renews every
        // remaining block, each submit retires one, and expiry/wedging
        // abandons whatever is left.
        let mut in_flight: Option<InFlight> = None;
        for block in blocks {
            let net = factory.net_for_day(block.day);
            let mut expired = false;
            let mut wedged = None;
            // An in-flight ack read at a heartbeat that ended the lease.
            let mut settled_early = None;
            let mut crawled = 0u64;
            let mut last_hb = Instant::now();
            let chunk = crawl_block_until(
                &factory,
                &block.ranks,
                block.day,
                block.shard,
                block.seq,
                &cfg.session,
                &mut scratch,
                &net,
                &mut |i| {
                    crawled = i as u64;
                    if !cfg.visit_delay.is_zero() {
                        std::thread::sleep(cfg.visit_delay);
                    }
                    if last_hb.elapsed() >= cfg.heartbeat_every {
                        if let Some(sub) = in_flight.take() {
                            match settle(&mut link, stats, sub) {
                                Ok(Settled::Next) => {}
                                other => {
                                    settled_early = Some(other);
                                    return false;
                                }
                            }
                        }
                        match heartbeat(&mut *link.t, cfg, link.worker_id, lease_id) {
                            Ok(true) => {}
                            Ok(false) => expired = true,
                            Err(e) => wedged = Some(e),
                        }
                        last_hb = Instant::now();
                    }
                    // Abandon mid-block the moment the lease is gone or
                    // the connection wedges — the block will be
                    // re-crawled elsewhere, identically.
                    !expired && wedged.is_none()
                },
            );
            stats.visits += crawled;
            match settled_early.transpose()? {
                Some(Settled::Done) => return Ok(()),
                Some(_) => break,
                None => {}
            }
            if expired {
                // The batch was re-issued to someone else; drop
                // everything (submitting would only be dropped as
                // duplicates anyway) and move on.
                stats.leases_expired += 1;
                break;
            }
            if let Some(e) = wedged {
                // Half-open connection: no renewals are landing, so the
                // lease is as good as lapsed. Walk away and start clean
                // instead of heartbeating a black hole.
                stats.leases_abandoned += 1;
                link.reconnect(&e, stats)?;
                break;
            }
            let chunk = chunk.expect("not abandoned");
            // Encoded once; a re-send reuses these bytes.
            let msg = Msg::SubmitChunk {
                lease_id,
                frame: chunk.encode(),
            }
            .encode();
            if let Some(sub) = in_flight.take() {
                match settle(&mut link, stats, sub)? {
                    Settled::Next => {}
                    Settled::Done => return Ok(()),
                    Settled::Abandon => break,
                }
            }
            let sent = link.t.send_frame(&msg);
            in_flight = Some(InFlight { msg, sent });
        }
        // Nothing stays unanswered past the lease: the next frame on this
        // connection is a `RequestLease`.
        if let Some(sub) = in_flight.take() {
            if let Settled::Done = settle(&mut link, stats, sub)? {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_in_session_and_attempt() {
        let base = Duration::from_millis(100);
        for session in [0u64, 7, u64::MAX] {
            for attempt in 0..10 {
                assert_eq!(
                    reconnect_backoff(base, session, attempt),
                    reconnect_backoff(base, session, attempt),
                    "same coordinates, same backoff"
                );
            }
        }
    }

    #[test]
    fn backoff_doubles_then_caps_with_bounded_jitter() {
        let base = Duration::from_millis(100);
        let session = 42u64;
        for attempt in 0..12u32 {
            let d = reconnect_backoff(base, session, attempt);
            let exp = base * (1 << attempt.min(6));
            assert!(d >= exp, "attempt {attempt}: jitter only adds");
            assert!(
                d < exp + base,
                "attempt {attempt}: jitter stays under one base"
            );
        }
        // The exponential part stops growing at the cap.
        let capped = reconnect_backoff(base, session, 6);
        let beyond = reconnect_backoff(base, session, 11);
        assert!(beyond < capped + 2 * base, "cap holds past attempt 6");
    }

    #[test]
    fn backoff_jitter_separates_sessions() {
        let base = Duration::from_millis(100);
        let differs = (0..8u32).any(|attempt| {
            reconnect_backoff(base, 1, attempt) != reconnect_backoff(base, 2, attempt)
        });
        assert!(differs, "two sessions must not march in lockstep");
    }
}

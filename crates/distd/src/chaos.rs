//! Deterministic chaos: a seeded fault-injection transport.
//!
//! [`ChaosTransport`] wraps the real TCP transport and injects faults
//! from a *pure* schedule: every decision is a function of `(seed,
//! domain, connection, frame_index)` hashed through XXH64 — no clocks,
//! no RNG state, no thread interleaving. The same seed therefore always
//! injects the same fault sequence onto the same connection/frame
//! coordinates, which is what makes a chaos soak debuggable: a failing
//! seed is a reproducible adversary, not a flake.
//!
//! ## Fault kinds
//!
//! Outbound (worker → coordinator), decided per sent frame:
//!
//! * **Corrupt** — one deterministic bit flipped in the frame copy; the
//!   coordinator's checksum rejects it (`frames_rejected`).
//! * **Truncate** — a prefix is sent and the socket is shut down; the
//!   coordinator reads EOF mid-frame (`frames_rejected`).
//! * **Reset** — the frame is dropped and the socket is shut down: a
//!   connection reset mid-conversation.
//! * **Duplicate** — a `SubmitChunk` is sent twice back-to-back; the
//!   coordinator drops the second by key (`chunks_duplicate_dropped`).
//! * **Replay** — a `SubmitChunk` is stashed and re-sent before the
//!   *next* outbound frame: a delayed duplicate arriving out of order.
//! * **Blackout** — a `Heartbeat` is silently swallowed and the reply
//!   read times out: a half-open connection around the heartbeat path.
//!
//! Inbound (coordinator → worker), decided per received frame:
//!
//! * **Corrupt** — one bit flipped in the received frame; the worker's
//!   checksum rejects it and the connection is abandoned.
//! * **Stall** — the read blocks for the configured stall and then times
//!   out: a wedged peer, exercising the worker's stall detection.
//!
//! Dial-time, decided per connection attempt:
//!
//! * **Refuse** — the connection is never made (a handshake partition).
//!
//! ## Liveness
//!
//! Every fourth connection (`conn % 4 == 3`) is *quiet* — no faults on
//! any frame. A worker that keeps reconnecting is therefore guaranteed
//! periodic clean conversations, so a soak at any hostility level always
//! terminates: the adversary can delay the campaign but never wedge it.
//!
//! ## The ledger
//!
//! Every injected fault is counted in a shared [`ChaosLedger`] *at the
//! moment it is actually injected* (a stashed replay that dies with its
//! connection is never counted), so a soak can reconcile coordinator and
//! worker counters against the ledger and prove nothing was silently
//! swallowed.

use crate::proto::{frame_tag, DistdError, TAG_HEARTBEAT, TAG_SUBMIT_ACK, TAG_SUBMIT_CHUNK};
use crate::transport::{Connector, TcpTransport, Transport};
use hb_core::xxh64;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Chaos tuning: the seed, the hostility level, and the stall length.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Schedule seed; same seed ⇒ same fault sequence.
    pub seed: u64,
    /// Hostility 0..=8: each level adds ~3% fault probability per frame
    /// (0 disables injection entirely).
    pub level: u32,
    /// How long an injected stall blocks before timing out.
    pub stall: Duration,
}

impl ChaosConfig {
    /// A schedule at `level` over `seed`, with a short default stall.
    pub fn new(seed: u64, level: u32) -> ChaosConfig {
        ChaosConfig {
            seed,
            level,
            stall: Duration::from_millis(50),
        }
    }
}

/// An outbound fault decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxFault {
    /// Flip one bit of the sent frame.
    Corrupt,
    /// Send a prefix, then cut the stream.
    Truncate,
    /// Drop the frame and cut the stream.
    Reset,
    /// Send the frame twice (submissions only).
    Duplicate,
    /// Re-send the frame before the next outbound frame (submissions
    /// only).
    Replay,
    /// Swallow the frame and time out the reply (heartbeats only).
    Blackout,
}

/// An inbound fault decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxFault {
    /// Flip one bit of the received frame.
    Corrupt,
    /// Block for the stall length, then time out.
    Stall,
}

// Decision domains: disjoint hash streams per direction.
const DOMAIN_TX: u64 = 1;
const DOMAIN_RX: u64 = 2;
const DOMAIN_CONNECT: u64 = 3;
const DOMAIN_BIT: u64 = 4;

/// Per-mille fault probability per hostility level.
const PER_LEVEL_PERMILLE: u64 = 30;

/// The pure schedule: every fault decision as a function of its
/// coordinates. Public so tests can enumerate the schedule directly and
/// prove replay determinism.
#[derive(Clone, Copy, Debug)]
pub struct ChaosSchedule {
    cfg: ChaosConfig,
}

impl ChaosSchedule {
    /// Schedule over `cfg`.
    pub fn new(cfg: ChaosConfig) -> ChaosSchedule {
        ChaosSchedule { cfg }
    }

    /// The config this schedule was built from.
    pub fn config(&self) -> ChaosConfig {
        self.cfg
    }

    /// True when `conn` is a fault-free liveness connection.
    pub fn is_quiet(&self, conn: u32) -> bool {
        conn % 4 == 3
    }

    fn roll(&self, domain: u64, conn: u32, idx: u64) -> u64 {
        let mut bytes = [0u8; 32];
        bytes[0..8].copy_from_slice(&self.cfg.seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&domain.to_le_bytes());
        bytes[16..24].copy_from_slice(&u64::from(conn).to_le_bytes());
        bytes[24..32].copy_from_slice(&idx.to_le_bytes());
        xxh64(&bytes)
    }

    fn fires(&self, domain: u64, conn: u32, idx: u64) -> Option<u64> {
        if self.cfg.level == 0 || self.is_quiet(conn) {
            return None;
        }
        let h = self.roll(domain, conn, idx);
        let threshold = u64::from(self.cfg.level) * PER_LEVEL_PERMILLE;
        if h % 1000 < threshold {
            Some(h >> 10) // independent selector bits
        } else {
            None
        }
    }

    /// Outbound fault for frame `idx` of `conn` (a submission iff
    /// `is_submit`, a heartbeat iff `is_heartbeat`).
    pub fn tx_fault(
        &self,
        conn: u32,
        idx: u64,
        is_submit: bool,
        is_heartbeat: bool,
    ) -> Option<TxFault> {
        let sel = self.fires(DOMAIN_TX, conn, idx)?;
        // Submissions draw from the full fault set; other messages only
        // from the kinds that keep request/reply pairing analyzable.
        let fault = if is_submit {
            match sel % 5 {
                0 => TxFault::Corrupt,
                1 => TxFault::Truncate,
                2 => TxFault::Reset,
                3 => TxFault::Duplicate,
                _ => TxFault::Replay,
            }
        } else if is_heartbeat {
            match sel % 3 {
                0 => TxFault::Corrupt,
                1 => TxFault::Reset,
                _ => TxFault::Blackout,
            }
        } else {
            match sel % 3 {
                0 => TxFault::Corrupt,
                1 => TxFault::Truncate,
                _ => TxFault::Reset,
            }
        };
        Some(fault)
    }

    /// Inbound fault for frame `idx` of `conn`.
    pub fn rx_fault(&self, conn: u32, idx: u64) -> Option<RxFault> {
        let sel = self.fires(DOMAIN_RX, conn, idx)?;
        Some(match sel % 2 {
            0 => RxFault::Corrupt,
            _ => RxFault::Stall,
        })
    }

    /// True when dial attempt `conn` is refused (handshake partition).
    pub fn refuse_connect(&self, conn: u32) -> bool {
        self.fires(DOMAIN_CONNECT, conn, 0).is_some()
    }

    /// Deterministic bit position to flip in an `n_bytes` frame.
    pub fn corrupt_bit(&self, conn: u32, idx: u64, n_bytes: usize) -> usize {
        (self.roll(DOMAIN_BIT, conn, idx) as usize) % (n_bytes * 8).max(1)
    }

    /// Deterministic truncation point for an `n_bytes` frame: at least
    /// one byte is sent, at least one withheld.
    pub fn truncate_at(&self, conn: u32, idx: u64, n_bytes: usize) -> usize {
        if n_bytes <= 1 {
            return n_bytes;
        }
        1 + (self.roll(DOMAIN_BIT, conn, idx) as usize) % (n_bytes - 1)
    }
}

/// Shared count of every injected fault, by kind. All counters are
/// incremented at actual injection time.
#[derive(Debug, Default)]
pub struct ChaosLedger {
    /// Outbound frames with a flipped bit.
    pub corrupt_tx: AtomicU64,
    /// Outbound frames cut mid-send.
    pub truncate_tx: AtomicU64,
    /// Connections reset instead of sending.
    pub reset_tx: AtomicU64,
    /// Submissions sent twice.
    pub duplicate_tx: AtomicU64,
    /// Submissions replayed out of order.
    pub replay_tx: AtomicU64,
    /// Heartbeats swallowed into a blackout.
    pub blackout_tx: AtomicU64,
    /// Inbound frames with a flipped bit.
    pub corrupt_rx: AtomicU64,
    /// Inbound reads stalled into a timeout.
    pub stall_rx: AtomicU64,
    /// Dial attempts refused.
    pub refused_connects: AtomicU64,
}

impl ChaosLedger {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.corrupt_tx.load(Ordering::Relaxed)
            + self.truncate_tx.load(Ordering::Relaxed)
            + self.reset_tx.load(Ordering::Relaxed)
            + self.duplicate_tx.load(Ordering::Relaxed)
            + self.replay_tx.load(Ordering::Relaxed)
            + self.blackout_tx.load(Ordering::Relaxed)
            + self.corrupt_rx.load(Ordering::Relaxed)
            + self.stall_rx.load(Ordering::Relaxed)
            + self.refused_connects.load(Ordering::Relaxed)
    }

    /// Faults the coordinator must surface in `frames_rejected` (a
    /// corrupt or truncated frame on its doorstep).
    pub fn coordinator_rejectable(&self) -> u64 {
        self.corrupt_tx.load(Ordering::Relaxed) + self.truncate_tx.load(Ordering::Relaxed)
    }

    /// Faults that must surface as duplicate-dropped chunks.
    pub fn duplicate_like(&self) -> u64 {
        self.duplicate_tx.load(Ordering::Relaxed) + self.replay_tx.load(Ordering::Relaxed)
    }

    /// Faults that must surface as worker-side connection breaks.
    pub fn break_like(&self) -> u64 {
        self.reset_tx.load(Ordering::Relaxed)
            + self.blackout_tx.load(Ordering::Relaxed)
            + self.corrupt_rx.load(Ordering::Relaxed)
            + self.stall_rx.load(Ordering::Relaxed)
    }

    /// Dial attempts refused (must surface as worker connect failures).
    pub fn refused(&self) -> u64 {
        self.refused_connects.load(Ordering::Relaxed)
    }
}

/// A [`Connector`] that dials through the chaos schedule: connection ids
/// are assigned in dial order (shared across worker respawns so the
/// schedule keeps advancing), dial attempts may be refused, and every
/// established connection is wrapped in a [`ChaosTransport`].
pub struct ChaosConnector {
    addr: String,
    schedule: ChaosSchedule,
    next_conn: AtomicU32,
    ledger: Arc<ChaosLedger>,
}

impl ChaosConnector {
    /// Chaos dialer for `addr` under `cfg`.
    pub fn new(addr: String, cfg: ChaosConfig) -> ChaosConnector {
        ChaosConnector {
            addr,
            schedule: ChaosSchedule::new(cfg),
            next_conn: AtomicU32::new(0),
            ledger: Arc::new(ChaosLedger::default()),
        }
    }

    /// The shared fault ledger.
    pub fn ledger(&self) -> Arc<ChaosLedger> {
        Arc::clone(&self.ledger)
    }
}

impl Connector for ChaosConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, DistdError> {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        if self.schedule.refuse_connect(conn) {
            self.ledger.refused_connects.fetch_add(1, Ordering::Relaxed);
            return Err(DistdError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "chaos: connection refused",
            )));
        }
        let stream = TcpStream::connect(&self.addr)?;
        Ok(Box::new(ChaosTransport {
            inner: TcpTransport::new(stream)?,
            schedule: self.schedule,
            ledger: Arc::clone(&self.ledger),
            conn,
            tx_i: 0,
            rx_i: 0,
            swallow_acks: 0,
            pending_replay: None,
            blackout: false,
            dead: false,
        }))
    }
}

/// A transport that injects the schedule's faults around a real TCP
/// transport. See the module docs for the fault catalogue.
pub struct ChaosTransport {
    inner: TcpTransport,
    schedule: ChaosSchedule,
    ledger: Arc<ChaosLedger>,
    conn: u32,
    tx_i: u64,
    rx_i: u64,
    /// Extra submit-acks in flight from injected duplicates/replays;
    /// drained on receive to keep request/reply pairing intact.
    swallow_acks: u32,
    /// A stashed submission to re-send before the next outbound frame.
    pending_replay: Option<Vec<u8>>,
    /// A heartbeat was swallowed; the next receive times out.
    blackout: bool,
    /// An injected reset/truncation killed this connection.
    dead: bool,
}

impl ChaosTransport {
    fn cut(&mut self) {
        let _ = self.inner.stream().shutdown(std::net::Shutdown::Both);
        self.dead = true;
    }

    fn dead_err() -> DistdError {
        DistdError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "chaos: connection reset",
        ))
    }
}

impl Transport for ChaosTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), DistdError> {
        if self.dead {
            return Err(Self::dead_err());
        }
        // A stashed replay fires first: the duplicate arrives *before*
        // this frame, i.e. delayed and out of order relative to its
        // original send.
        if let Some(replayed) = self.pending_replay.take() {
            self.inner.send_frame(&replayed)?;
            self.swallow_acks += 1;
            self.ledger.replay_tx.fetch_add(1, Ordering::Relaxed);
        }
        let idx = self.tx_i;
        self.tx_i += 1;
        let tag = frame_tag(frame);
        let fault = self.schedule.tx_fault(
            self.conn,
            idx,
            tag == Some(TAG_SUBMIT_CHUNK),
            tag == Some(TAG_HEARTBEAT),
        );
        match fault {
            None => self.inner.send_frame(frame),
            Some(TxFault::Corrupt) => {
                let mut bad = frame.to_vec();
                let bit = self.schedule.corrupt_bit(self.conn, idx, bad.len());
                bad[bit / 8] ^= 1 << (bit % 8);
                self.ledger.corrupt_tx.fetch_add(1, Ordering::Relaxed);
                // The send "succeeds"; the receiver rejects the frame
                // and hangs up, which this side discovers on receive.
                self.inner.send_frame(&bad)
            }
            Some(TxFault::Truncate) => {
                let cut = self.schedule.truncate_at(self.conn, idx, frame.len());
                self.ledger.truncate_tx.fetch_add(1, Ordering::Relaxed);
                let sent = self.inner.send_frame(&frame[..cut]);
                self.cut();
                sent
            }
            Some(TxFault::Reset) => {
                self.ledger.reset_tx.fetch_add(1, Ordering::Relaxed);
                self.cut();
                Err(Self::dead_err())
            }
            Some(TxFault::Duplicate) => {
                self.inner.send_frame(frame)?;
                self.ledger.duplicate_tx.fetch_add(1, Ordering::Relaxed);
                self.swallow_acks += 1;
                self.inner.send_frame(frame)
            }
            Some(TxFault::Replay) => {
                self.inner.send_frame(frame)?;
                // Counted when (and only when) it is actually re-sent.
                self.pending_replay = Some(frame.to_vec());
                Ok(())
            }
            Some(TxFault::Blackout) => {
                self.ledger.blackout_tx.fetch_add(1, Ordering::Relaxed);
                self.blackout = true;
                Ok(())
            }
        }
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, DistdError> {
        if self.dead {
            return Err(Self::dead_err());
        }
        if self.blackout {
            // The swallowed heartbeat has no reply coming; surface the
            // half-open connection as a read timeout.
            self.blackout = false;
            std::thread::sleep(self.schedule.config().stall);
            return Err(DistdError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "chaos: heartbeat blackout",
            )));
        }
        let idx = self.rx_i;
        self.rx_i += 1;
        if let Some(fault) = self.schedule.rx_fault(self.conn, idx) {
            match fault {
                RxFault::Stall => {
                    self.ledger.stall_rx.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.schedule.config().stall);
                    return Err(DistdError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "chaos: stalled read",
                    )));
                }
                RxFault::Corrupt => {
                    let mut frame = self.recv_real()?;
                    let bit = self.schedule.corrupt_bit(self.conn, idx, frame.len());
                    frame[bit / 8] ^= 1 << (bit % 8);
                    self.ledger.corrupt_rx.fetch_add(1, Ordering::Relaxed);
                    return Ok(frame);
                }
            }
        }
        self.recv_real()
    }

    fn set_recv_deadline(&mut self, deadline: Option<Duration>) -> Result<(), DistdError> {
        self.inner.set_recv_deadline(deadline)
    }
}

impl ChaosTransport {
    /// One real receive, draining the acks owed to injected duplicate
    /// submissions first (FIFO: the stale acks arrive before the reply
    /// to anything sent after them).
    fn recv_real(&mut self) -> Result<Vec<u8>, DistdError> {
        loop {
            let frame = self.inner.recv_frame()?;
            if self.swallow_acks > 0 && frame_tag(&frame) == Some(TAG_SUBMIT_ACK) {
                self.swallow_acks -= 1;
                continue;
            }
            return Ok(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decision surface of one schedule over a coordinate grid, as a
    /// comparable value.
    fn surface(
        s: &ChaosSchedule,
    ) -> Vec<(Option<TxFault>, Option<TxFault>, Option<RxFault>, bool)> {
        let mut out = Vec::new();
        for conn in 0..16u32 {
            for idx in 0..64u64 {
                out.push((
                    s.tx_fault(conn, idx, true, false),
                    s.tx_fault(conn, idx, false, true),
                    s.rx_fault(conn, idx),
                    s.refuse_connect(conn),
                ));
            }
        }
        out
    }

    #[test]
    fn same_seed_same_schedule() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = ChaosSchedule::new(ChaosConfig::new(seed, 6));
            let b = ChaosSchedule::new(ChaosConfig::new(seed, 6));
            assert_eq!(surface(&a), surface(&b));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosSchedule::new(ChaosConfig::new(1, 6));
        let b = ChaosSchedule::new(ChaosConfig::new(2, 6));
        assert_ne!(surface(&a), surface(&b), "seeds must matter");
    }

    #[test]
    fn quiet_connections_are_fault_free_at_any_level() {
        let s = ChaosSchedule::new(ChaosConfig::new(9, 8));
        for conn in (3..1024u32).step_by(4) {
            assert!(s.is_quiet(conn));
            assert!(s.refuse_connect(conn) == false);
            for idx in 0..256u64 {
                assert_eq!(s.tx_fault(conn, idx, true, false), None);
                assert_eq!(s.rx_fault(conn, idx), None);
            }
        }
    }

    #[test]
    fn level_zero_injects_nothing_and_levels_escalate() {
        let quietest = ChaosSchedule::new(ChaosConfig::new(7, 0));
        let count = |s: &ChaosSchedule| {
            surface(s)
                .iter()
                .filter(|(a, b, c, d)| a.is_some() || b.is_some() || c.is_some() || *d)
                .count()
        };
        assert_eq!(count(&quietest), 0);
        let low = count(&ChaosSchedule::new(ChaosConfig::new(7, 1)));
        let high = count(&ChaosSchedule::new(ChaosConfig::new(7, 8)));
        assert!(low > 0, "level 1 must inject something over 1024 frames");
        assert!(high > low, "hostility must escalate with level");
    }
}

//! The lease protocol: message types and framed transport.
//!
//! Every message travels as one sealed wire frame (`hb_core`'s
//! `columns::wire` framing: magic, version, length, payload, XXH64
//! checksum), so transport corruption and protocol corruption are caught
//! by the same integrity machinery the chunk files use. The conversation
//! is strictly request/reply, worker-initiated:
//!
//! ```text
//! worker                          coordinator
//!   Hello{fingerprint}       -->
//!                            <--  Welcome{worker_id} | Reject{reason}
//!   RequestLease{worker_id}  -->
//!                            <--  Lease{lease_id, blocks} | Wait{millis} | Done
//!   Heartbeat{lease_id}      -->
//!                            <--  HeartbeatAck | Expired
//!   SubmitChunk{lease_id,..} -->
//!                            <--  SubmitAck{accepted, duplicate, done}
//! ```
//!
//! A lease names up to `lease_blocks` of the campaign plan's blocks —
//! each a `(day, shard, seq)` key plus the explicit rank list — so a
//! worker needs no schedule state of its own and a fast worker is not
//! bound by one request round-trip per block. Campaign visits are pure functions of
//! `(seed, rank, day)`, which is what makes lease re-issue after a crash
//! idempotent (any two workers crawling the same block produce
//! byte-identical chunks).

use crate::transport::Transport;
use hb_core::{open_frame, seal_frame, WireError, WireReader, WireWriter};
use hb_crawler::PlanBlock;

/// Upper bound on one frame's payload; a corrupt or hostile length header
/// is refused before any allocation. Chunks at paper scale are a few MiB;
/// 64 MiB leaves an order of magnitude of headroom.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Everything that can go wrong on the fabric.
#[derive(Debug)]
pub enum DistdError {
    /// Socket-level failure (connect, read, write, accept).
    Io(std::io::Error),
    /// A frame failed integrity or structural validation.
    Wire(WireError),
    /// The peer hung up cleanly at a frame boundary (EOF between
    /// messages) — a protocol ending, not a wire fault.
    Closed,
    /// The peer answered with a message the protocol does not allow here.
    Protocol(&'static str),
    /// The coordinator refused the handshake (config fingerprint
    /// mismatch, usually).
    Rejected(String),
    /// The coordinator went away and the reconnect budget ran out.
    CoordinatorLost,
}

impl std::fmt::Display for DistdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistdError::Io(e) => write!(f, "i/o: {e}"),
            DistdError::Wire(e) => write!(f, "wire: {e}"),
            DistdError::Closed => write!(f, "connection closed"),
            DistdError::Protocol(what) => write!(f, "protocol violation: {what}"),
            DistdError::Rejected(reason) => write!(f, "handshake rejected: {reason}"),
            DistdError::CoordinatorLost => write!(f, "coordinator lost"),
        }
    }
}

impl std::error::Error for DistdError {}

impl From<std::io::Error> for DistdError {
    fn from(e: std::io::Error) -> DistdError {
        DistdError::Io(e)
    }
}

impl From<WireError> for DistdError {
    fn from(e: WireError) -> DistdError {
        DistdError::Wire(e)
    }
}

/// Encode one leased block: its chunk key, then the explicit 1-based
/// ranks to crawl, in order.
fn encode_block(w: &mut WireWriter, block: &PlanBlock) {
    w.u32(block.day);
    w.u32(block.shard);
    w.u32(block.seq);
    w.len(block.ranks.len());
    for &r in &block.ranks {
        w.u32(r);
    }
}

fn decode_block(r: &mut WireReader<'_>) -> Result<PlanBlock, WireError> {
    let day = r.u32()?;
    let shard = r.u32()?;
    let seq = r.u32()?;
    let n = r.bounded_len(4)?;
    let mut ranks = Vec::with_capacity(n);
    for _ in 0..n {
        ranks.push(r.u32()?);
    }
    Ok(PlanBlock {
        day,
        shard,
        seq,
        ranks,
    })
}

/// One protocol message (see the module docs for the conversation).
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Worker handshake; `fingerprint` commits to the full campaign
    /// configuration so a mis-deployed worker is turned away instead of
    /// silently producing chunks from a different universe.
    Hello {
        /// Campaign config fingerprint (see [`config_fingerprint`]).
        fingerprint: u64,
    },
    /// Handshake accepted; the id tags this worker's leases.
    Welcome {
        /// Coordinator-assigned worker id.
        worker_id: u32,
    },
    /// Handshake refused.
    Reject {
        /// Human-readable reason.
        reason: String,
    },
    /// Ask for the next block lease.
    RequestLease {
        /// Id from [`Msg::Welcome`].
        worker_id: u32,
    },
    /// A batched block lease: crawl every block in `blocks` and submit
    /// each sealed chunk before the lease deadline lapses (heartbeats
    /// renew the whole batch; each submitted chunk retires its block).
    Lease {
        /// Lease identity, echoed in heartbeats and every submit.
        lease_id: u64,
        /// The leased blocks, in schedule (fold) order; never empty.
        blocks: Vec<PlanBlock>,
    },
    /// Nothing became leasable (reorder window full, or the schedule
    /// tail not yet known) while the coordinator held the request; ask
    /// again after `millis` (the coordinator sends 0).
    Wait {
        /// Suggested back-off before the next request.
        millis: u32,
    },
    /// Campaign complete; the worker should exit.
    Done,
    /// Renew a held lease (all of its remaining blocks).
    Heartbeat {
        /// Id from [`Msg::Welcome`].
        worker_id: u32,
        /// The lease being renewed.
        lease_id: u64,
    },
    /// Lease renewed.
    HeartbeatAck,
    /// The lease lapsed and was re-issued; abandon its blocks.
    Expired,
    /// Deliver a finished block: the sealed chunk frame, verbatim.
    SubmitChunk {
        /// The lease this chunk fulfills.
        lease_id: u64,
        /// Sealed chunk frame ([`hb_crawler::VisitChunk::encode`] bytes).
        frame: Vec<u8>,
    },
    /// Submit outcome. `accepted && duplicate` means another worker beat
    /// this one to the block (normal after a lease re-issue) — the chunk
    /// was dropped but the worker is square. `done` piggybacks campaign
    /// completion on the final ack so the submitting worker can exit
    /// without another request round-trip.
    SubmitAck {
        /// False only when the frame failed validation.
        accepted: bool,
        /// The block was already complete.
        duplicate: bool,
        /// This submit completed the campaign.
        done: bool,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_REJECT: u8 = 3;
const TAG_REQUEST_LEASE: u8 = 4;
const TAG_LEASE: u8 = 5;
const TAG_WAIT: u8 = 6;
const TAG_DONE: u8 = 7;
pub(crate) const TAG_HEARTBEAT: u8 = 8;
const TAG_HEARTBEAT_ACK: u8 = 9;
const TAG_EXPIRED: u8 = 10;
pub(crate) const TAG_SUBMIT_CHUNK: u8 = 11;
pub(crate) const TAG_SUBMIT_ACK: u8 = 12;

/// Message tag of a sealed frame, without decoding it (the chaos layer
/// keys some fault kinds on the message kind; a frame too short to carry
/// a tag yields `None`).
pub(crate) fn frame_tag(frame: &[u8]) -> Option<u8> {
    frame.get(hb_core::FRAME_HEADER).copied()
}

/// Smallest on-wire footprint of one leased [`PlanBlock`]: its three key
/// words plus the length word of an empty rank list.
const LEASE_BLOCK_MIN: usize = 4 + 4 + 4 + 4;

impl Msg {
    /// Encode as a sealed frame ready for the socket.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Msg::Hello { fingerprint } => {
                w.u8(TAG_HELLO);
                w.u64(*fingerprint);
            }
            Msg::Welcome { worker_id } => {
                w.u8(TAG_WELCOME);
                w.u32(*worker_id);
            }
            Msg::Reject { reason } => {
                w.u8(TAG_REJECT);
                w.str(reason);
            }
            Msg::RequestLease { worker_id } => {
                w.u8(TAG_REQUEST_LEASE);
                w.u32(*worker_id);
            }
            Msg::Lease { lease_id, blocks } => {
                w.u8(TAG_LEASE);
                w.u64(*lease_id);
                w.len(blocks.len());
                for b in blocks {
                    encode_block(&mut w, b);
                }
            }
            Msg::Wait { millis } => {
                w.u8(TAG_WAIT);
                w.u32(*millis);
            }
            Msg::Done => w.u8(TAG_DONE),
            Msg::Heartbeat {
                worker_id,
                lease_id,
            } => {
                w.u8(TAG_HEARTBEAT);
                w.u32(*worker_id);
                w.u64(*lease_id);
            }
            Msg::HeartbeatAck => w.u8(TAG_HEARTBEAT_ACK),
            Msg::Expired => w.u8(TAG_EXPIRED),
            Msg::SubmitChunk { lease_id, frame } => {
                w.u8(TAG_SUBMIT_CHUNK);
                w.u64(*lease_id);
                w.bytes(frame);
            }
            Msg::SubmitAck {
                accepted,
                duplicate,
                done,
            } => {
                w.u8(TAG_SUBMIT_ACK);
                w.bool(*accepted);
                w.bool(*duplicate);
                w.bool(*done);
            }
        }
        seal_frame(&w.into_bytes())
    }

    /// Decode one sealed frame (integrity first, structure second).
    pub fn decode(frame: &[u8]) -> Result<Msg, WireError> {
        let payload = open_frame(frame)?;
        let mut r = WireReader::new(payload);
        let msg = match r.u8()? {
            TAG_HELLO => Msg::Hello {
                fingerprint: r.u64()?,
            },
            TAG_WELCOME => Msg::Welcome {
                worker_id: r.u32()?,
            },
            TAG_REJECT => Msg::Reject {
                reason: r.str()?.to_string(),
            },
            TAG_REQUEST_LEASE => Msg::RequestLease {
                worker_id: r.u32()?,
            },
            TAG_LEASE => {
                let lease_id = r.u64()?;
                let n = r.bounded_len(LEASE_BLOCK_MIN)?;
                if n == 0 {
                    return Err(WireError::Corrupt("empty lease"));
                }
                let mut blocks = Vec::with_capacity(n);
                for _ in 0..n {
                    blocks.push(decode_block(&mut r)?);
                }
                Msg::Lease { lease_id, blocks }
            }
            TAG_WAIT => Msg::Wait { millis: r.u32()? },
            TAG_DONE => Msg::Done,
            TAG_HEARTBEAT => Msg::Heartbeat {
                worker_id: r.u32()?,
                lease_id: r.u64()?,
            },
            TAG_HEARTBEAT_ACK => Msg::HeartbeatAck,
            TAG_EXPIRED => Msg::Expired,
            TAG_SUBMIT_CHUNK => Msg::SubmitChunk {
                lease_id: r.u64()?,
                frame: r.bytes()?.to_vec(),
            },
            TAG_SUBMIT_ACK => Msg::SubmitAck {
                accepted: r.bool()?,
                duplicate: r.bool()?,
                done: r.bool()?,
            },
            _ => return Err(WireError::Corrupt("message tag")),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Send one message over a transport.
pub fn send_msg(t: &mut dyn Transport, msg: &Msg) -> Result<(), DistdError> {
    t.send_frame(&msg.encode())
}

/// Receive and decode one message from a transport. Integrity (checksum)
/// and structure are both verified before the message is trusted.
pub fn recv_msg(t: &mut dyn Transport) -> Result<Msg, DistdError> {
    let frame = t.recv_frame()?;
    Ok(Msg::decode(&frame)?)
}

/// Fingerprint of everything both sides must agree on for chunks to be
/// interchangeable: the full ecosystem config (seed, universe shape,
/// fault scenario — all of it, via its `Debug` form), the shard count,
/// the block size and the session policy. Workers whose fingerprint
/// differs are rejected at handshake; a fabric quietly mixing configs
/// would otherwise produce a corrupt dataset with valid checksums.
pub fn config_fingerprint(
    eco: &hb_ecosystem::EcosystemConfig,
    shards: u32,
    chunk_visits: usize,
    session: &hb_crawler::SessionConfig,
) -> u64 {
    let text = format!("v1|{eco:?}|shards={shards}|chunk_visits={chunk_visits}|{session:?}");
    hb_core::xxh64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_round_trip() {
        let msgs = [
            Msg::Hello { fingerprint: 42 },
            Msg::Welcome { worker_id: 7 },
            Msg::Reject {
                reason: "config fingerprint mismatch".into(),
            },
            Msg::RequestLease { worker_id: 7 },
            Msg::Lease {
                lease_id: 99,
                blocks: vec![
                    PlanBlock {
                        day: 2,
                        shard: 1,
                        seq: 3,
                        ranks: vec![10, 11, 12],
                    },
                    PlanBlock {
                        day: 2,
                        shard: 1,
                        seq: 4,
                        ranks: vec![13],
                    },
                ],
            },
            Msg::Wait { millis: 50 },
            Msg::Done,
            Msg::Heartbeat {
                worker_id: 7,
                lease_id: 99,
            },
            Msg::HeartbeatAck,
            Msg::Expired,
            Msg::SubmitChunk {
                lease_id: 99,
                frame: vec![1, 2, 3, 4, 5],
            },
            Msg::SubmitAck {
                accepted: true,
                duplicate: false,
                done: true,
            },
        ];
        for msg in msgs {
            let frame = msg.encode();
            assert_eq!(Msg::decode(&frame).expect("round trip"), msg);
            // Any single corrupt byte is rejected.
            let mut bad = frame.clone();
            bad[frame.len() / 2] ^= 0x40;
            assert!(Msg::decode(&bad).is_err(), "corruption detected: {msg:?}");
        }
    }

    #[test]
    fn empty_lease_is_structural_corruption() {
        let msg = Msg::Lease {
            lease_id: 1,
            blocks: vec![PlanBlock {
                day: 0,
                shard: 0,
                seq: 0,
                ranks: vec![1],
            }],
        };
        let mut frame = msg.encode();
        // Splice the block count down to zero and re-seal, so the frame
        // passes integrity but fails structure.
        let payload_start = hb_core::FRAME_HEADER;
        let payload_end = frame.len() - 8;
        let mut payload = frame[payload_start..payload_end].to_vec();
        payload[9..13].copy_from_slice(&0u32.to_le_bytes());
        frame = hb_core::seal_frame(&payload);
        assert!(matches!(
            Msg::decode(&frame),
            Err(WireError::Corrupt("empty lease"))
        ));
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        use hb_crawler::SessionConfig;
        use hb_ecosystem::EcosystemConfig;
        let base = EcosystemConfig::tiny_scale();
        let session = SessionConfig::default();
        let f = config_fingerprint(&base, 2, 64, &session);
        assert_eq!(f, config_fingerprint(&base.clone(), 2, 64, &session));
        assert_ne!(
            f,
            config_fingerprint(&base.clone().with_seed(1), 2, 64, &session)
        );
        assert_ne!(f, config_fingerprint(&base, 3, 64, &session));
        assert_ne!(f, config_fingerprint(&base, 2, 65, &session));
    }
}

//! Property coverage for everything new on the wire and in the chaos
//! layer:
//!
//! - every protocol message — batched leases with arbitrary block lists
//!   included — round-trips its sealed frame exactly, and any single-bit
//!   corruption or truncation is detected;
//! - the chaos schedule is a pure function of `(seed, connection,
//!   frame index)`: two schedules built from the same config agree on
//!   every decision, so a failing storm replays exactly from its seed,
//!   and the designated liveness connections never fault at any level;
//! - a chunk frame whose payload a peer rewrote and re-sealed (so it
//!   passes the checksum) either fails to decode or decodes to a chunk
//!   that folds and renders every indexed and fault report without a
//!   panic.

use hb_analysis::{fault_reports, indexed_reports, DatasetIndexBuilder};
use hb_core::{open_frame, seal_frame, WireError};
use hb_crawler::{run_campaign_streamed, CampaignConfig, PlanBlock, VisitChunk};
use hb_distd::{ChaosConfig, ChaosSchedule, Msg, RxFault, TxFault};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The tiny campaign's sealed chunk frames, crawled once per process.
fn chunk_frames() -> &'static [Vec<u8>] {
    static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let mut frames = Vec::new();
        run_campaign_streamed(
            &SiteFactory::new(EcosystemConfig::tiny_scale()),
            &CampaignConfig::default(),
            &mut |chunk| frames.push(chunk.encode()),
        );
        frames
    })
}

/// A byte a hostile peer writes: the extremes of every length and
/// count field, or anything at all.
fn arb_hostile_byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(0xff), Just(0x7f), Just(0x80), any::<u8>()]
}

fn arb_block() -> impl Strategy<Value = PlanBlock> {
    (
        0u32..40,
        0u32..64,
        proptest::collection::vec(1u32..10_000, 0..24),
    )
        .prop_map(|(day, seq, ranks)| PlanBlock { day, seq, ranks })
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        any::<u64>().prop_map(|fingerprint| Msg::Hello { fingerprint }),
        any::<u32>().prop_map(|worker_id| Msg::Welcome { worker_id }),
        proptest::string::string_regex("[a-z ]{0,40}")
            .unwrap()
            .prop_map(|reason| Msg::Reject { reason }),
        any::<u32>().prop_map(|worker_id| Msg::RequestLease { worker_id }),
        (any::<u64>(), proptest::collection::vec(arb_block(), 1..6))
            .prop_map(|(lease_id, blocks)| Msg::Lease { lease_id, blocks }),
        Just(Msg::Wait),
        Just(Msg::Done),
        (any::<u32>(), any::<u64>()).prop_map(|(worker_id, lease_id)| Msg::Heartbeat {
            worker_id,
            lease_id
        }),
        Just(Msg::HeartbeatAck),
        Just(Msg::Expired),
        (
            any::<u64>(),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..5)
        )
            .prop_map(|(lease_id, frames)| Msg::SubmitChunk { lease_id, frames }),
        (any::<bool>(), any::<u32>(), any::<bool>()).prop_map(|(accepted, duplicates, done)| {
            Msg::SubmitAck {
                accepted,
                duplicates,
                done,
            }
        }),
    ]
}

/// The payload of a sealed message frame.
fn payload(msg: &Msg) -> Vec<u8> {
    open_frame(&msg.encode()).expect("clean frame").to_vec()
}

/// A lease's submit carries every frame of the lease, in order, and
/// nothing else decodes as one: an empty frame list, a frame count no
/// payload could hold (refused by its bound before anything is
/// allocated for it), and a one-frame submit under the retired tag.
#[test]
fn multi_frame_submit_round_trips_and_malformed_ones_are_refused() {
    let frames = chunk_frames().to_vec();
    assert!(frames.len() >= 2, "a multi-frame submit");
    let msg = Msg::SubmitChunk {
        lease_id: 7,
        frames: frames.clone(),
    };
    let Ok(Msg::SubmitChunk {
        lease_id: 7,
        frames: back,
    }) = Msg::decode(&msg.encode())
    else {
        panic!("a multi-frame submit decodes");
    };
    assert_eq!(back, frames);
    for chunk in &back {
        VisitChunk::decode(chunk).expect("each carried frame is a sealed chunk");
    }

    let empty = Msg::SubmitChunk {
        lease_id: 7,
        frames: Vec::new(),
    };
    assert!(matches!(
        Msg::decode(&empty.encode()),
        Err(WireError::Corrupt("empty submit"))
    ));

    // Tag, lease id, then the frame count.
    let mut hostile = payload(&empty);
    hostile[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Msg::decode(&seal_frame(&hostile)),
        Err(WireError::Corrupt("length exceeds payload"))
    ));

    // The one-frame submit: tag 11, lease id, one length-prefixed frame.
    let mut old = vec![11u8];
    old.extend_from_slice(&7u64.to_le_bytes());
    old.extend_from_slice(&(frames[0].len() as u32).to_le_bytes());
    old.extend_from_slice(&frames[0]);
    assert!(matches!(
        Msg::decode(&seal_frame(&old)),
        Err(WireError::Corrupt("message tag"))
    ));
}

proptest! {
    #[test]
    fn any_message_round_trips(msg in arb_msg()) {
        let frame = msg.encode();
        let back = Msg::decode(&frame).expect("clean frame decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn message_bit_corruption_is_always_detected(
        msg in arb_msg(),
        pos_seed in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let frame = msg.encode();
        let pos = pos_seed % frame.len();
        let mut bad = frame.clone();
        bad[pos] ^= 1 << bit;
        prop_assert!(
            Msg::decode(&bad).is_err(),
            "bit {} of byte {} (frame len {}) went undetected",
            bit, pos, frame.len()
        );
    }

    #[test]
    fn message_truncation_is_always_detected(
        msg in arb_msg(),
        cut_seed in 0usize..1_000_000,
    ) {
        let frame = msg.encode();
        let keep = cut_seed % frame.len();
        prop_assert!(
            Msg::decode(&frame[..keep]).is_err(),
            "truncation to {} of {} went undetected",
            keep, frame.len()
        );
    }

    #[test]
    fn chaos_schedule_is_replay_deterministic(
        (seed, level) in (any::<u64>(), 0u32..10),
        (conn, idx) in (0u32..64, 0u64..256),
        (is_submit, is_heartbeat) in (any::<bool>(), any::<bool>()),
        n_bytes in 22usize..4096,
    ) {
        let a = ChaosSchedule::new(ChaosConfig::new(seed, level));
        let b = ChaosSchedule::new(ChaosConfig::new(seed, level));
        let (is_submit, is_heartbeat) = (is_submit && !is_heartbeat, is_heartbeat && !is_submit);
        prop_assert_eq!(
            a.tx_fault(conn, idx, is_submit, is_heartbeat),
            b.tx_fault(conn, idx, is_submit, is_heartbeat)
        );
        prop_assert_eq!(a.rx_fault(conn, idx), b.rx_fault(conn, idx));
        prop_assert_eq!(a.refuse_connect(conn), b.refuse_connect(conn));
        prop_assert_eq!(
            a.corrupt_bit(conn, idx, n_bytes),
            b.corrupt_bit(conn, idx, n_bytes)
        );
        prop_assert_eq!(
            a.truncate_at(conn, idx, n_bytes),
            b.truncate_at(conn, idx, n_bytes)
        );
        // Decisions within bounds.
        prop_assert!(a.corrupt_bit(conn, idx, n_bytes) < n_bytes * 8);
        let cut = a.truncate_at(conn, idx, n_bytes);
        prop_assert!(cut >= 1 && cut < n_bytes, "cut {} of {}", cut, n_bytes);
        // Liveness guarantee: quiet connections never fault.
        if a.is_quiet(conn) {
            prop_assert_eq!(a.tx_fault(conn, idx, is_submit, is_heartbeat), None::<TxFault>);
            prop_assert_eq!(a.rx_fault(conn, idx), None::<RxFault>);
            prop_assert!(!a.refuse_connect(conn));
        }
    }

    #[test]
    fn different_seeds_eventually_disagree(seed in any::<u64>()) {
        let a = ChaosSchedule::new(ChaosConfig::new(seed, 8));
        let b = ChaosSchedule::new(ChaosConfig::new(seed.wrapping_add(1), 8));
        let differs = (0..64u32).any(|conn| {
            (0..64u64).any(|idx| {
                a.tx_fault(conn, idx, true, false) != b.tx_fault(conn, idx, true, false)
            })
        });
        prop_assert!(differs, "adjacent seeds produced identical storms");
    }

    #[test]
    fn resealed_hostile_chunk_never_panics_the_fold(
        pick in any::<u64>(),
        writes in proptest::collection::vec((any::<u64>(), arb_hostile_byte()), 1..8),
    ) {
        let frames = chunk_frames();
        let frame = &frames[(pick % frames.len() as u64) as usize];
        let mut payload = open_frame(frame).expect("campaign frame opens").to_vec();
        for (at, byte) in writes {
            let at = (at % payload.len() as u64) as usize;
            payload[at] = byte;
        }
        let Ok(chunk) = VisitChunk::decode(&seal_frame(&payload)) else {
            return Ok(());
        };
        let eco = EcosystemConfig::tiny_scale();
        let mut builder = DatasetIndexBuilder::new(eco.n_sites, eco.crawl_days);
        builder.push_chunk(&chunk);
        let ix = builder.finish();
        for report in indexed_reports(&ix).into_iter().chain(fault_reports(&ix)) {
            prop_assert!(!report.render().is_empty(), "{} rendered nothing", report.id);
            let _ = report.to_csv();
        }
    }
}

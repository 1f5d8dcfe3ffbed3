//! Property coverage for everything new on the wire and in the chaos
//! layer:
//!
//! - every protocol message — batched leases with arbitrary block lists
//!   included — round-trips its sealed frame exactly, and any single-bit
//!   corruption or truncation is detected;
//! - the chaos schedule is a pure function of `(seed, connection,
//!   frame index)`: two schedules built from the same config agree on
//!   every decision, so a failing storm replays exactly from its seed,
//!   and the designated liveness connections never fault at any level.

use hb_crawler::PlanBlock;
use hb_distd::{ChaosConfig, ChaosSchedule, Msg, RxFault, TxFault};
use proptest::prelude::*;

fn arb_block() -> impl Strategy<Value = PlanBlock> {
    (
        0u32..40,
        0u32..8,
        0u32..64,
        proptest::collection::vec(1u32..10_000, 0..24),
    )
        .prop_map(|(day, shard, seq, ranks)| PlanBlock {
            day,
            shard,
            seq,
            ranks,
        })
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
        (1u32..60_000).prop_map(|millis| Msg::Wait { millis }),
        Just(Msg::Done),
        (any::<u32>(), any::<u64>()).prop_map(|(worker_id, lease_id)| Msg::Heartbeat {
            worker_id,
            lease_id
        }),
        Just(Msg::HeartbeatAck),
        Just(Msg::Expired),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(lease_id, frame)| Msg::SubmitChunk { lease_id, frame }),
        (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(accepted, duplicate, done)| {
            Msg::SubmitAck {
                accepted,
                duplicate,
                done,
            }
        }),
    ]
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
}

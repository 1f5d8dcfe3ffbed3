//! Wire-format properties: any encodable chunk payload — arbitrary
//! [`VisitColumns`] including the fault-truth columns (dropped bids,
//! retries, timed-out partners, passbacks) plus its interner — round
//! trips the sealed frame exactly, and a single flipped bit anywhere in
//! the frame is always rejected (checksum for the payload, header
//! validation for the envelope). Nothing a frame says about itself is
//! trusted until the checksum passes.

use hb_core::{
    decode_columns, decode_interner, encode_columns, encode_interner, open_frame, seal_frame,
    BidSource, DetectedBid, DetectedFacet, DetectedSlot, Interner, PartnerLatency, VisitColumns,
    VisitRecord, WireReader, WireWriter,
};
use proptest::prelude::*;

/// Small-integer recipe for one synthetic visit row (the interner symbols
/// derive from these values, so equal specs intern equal strings).
#[derive(Clone, Debug)]
struct RowSpec {
    rank: u32,
    day: u32,
    hb: bool,
    facet: u8,
    n_partners: usize,
    n_bids: usize,
    n_lats: usize,
    n_slots: usize,
    n_events: usize,
    latency: Option<f64>,
    page_ms: Option<f64>,
}

fn arb_row() -> impl Strategy<Value = RowSpec> {
    (
        (1u32..5000, 0u32..10, any::<bool>(), 0u8..4),
        (0usize..5, 0usize..6, 0usize..4, 0usize..4, 0usize..3),
        (
            (any::<bool>(), 0.0f64..5000.0),
            (any::<bool>(), 0.0f64..9000.0),
        ),
    )
        .prop_map(
            |(
                (rank, day, hb, facet),
                (n_partners, n_bids, n_lats, n_slots, n_events),
                ((lat_some, lat), (pm_some, pm)),
            )| RowSpec {
                rank,
                day,
                hb,
                facet,
                n_partners,
                n_bids,
                n_lats,
                n_slots,
                n_events,
                latency: lat_some.then_some(lat),
                page_ms: pm_some.then_some(pm),
            },
        )
}

fn record_for(spec: &RowSpec, strings: &mut Interner) -> VisitRecord {
    let sym = |s: &mut Interner, tag: &str, i: usize| s.intern(&format!("{tag}-{}-{i}", spec.rank));
    VisitRecord {
        domain: strings.intern(&format!("pub{}.example", spec.rank)),
        rank: spec.rank,
        day: spec.day,
        hb_detected: spec.hb,
        facet: match spec.facet {
            0 => None,
            1 => Some(DetectedFacet::Client),
            2 => Some(DetectedFacet::Server),
            _ => Some(DetectedFacet::Hybrid),
        },
        partners: (0..spec.n_partners).map(|i| sym(strings, "p", i)).collect(),
        slots_auctioned: spec.n_slots as u32,
        hb_latency_ms: spec.latency,
        bids: (0..spec.n_bids)
            .map(|i| DetectedBid {
                bidder_code: sym(strings, "bc", i),
                partner_name: sym(strings, "pn", i),
                slot: sym(strings, "s", i % 3),
                cpm: 0.05 * (i + 1) as f64,
                size: sym(strings, "sz", i % 2),
                late: i % 2 == 1,
                latency_ms: (i % 3 != 0).then_some(50.0 + i as f64),
                source: if i % 4 == 0 {
                    BidSource::ServerReported
                } else {
                    BidSource::ClientVisible
                },
            })
            .collect(),
        partner_latencies: (0..spec.n_lats)
            .map(|i| PartnerLatency {
                partner_name: sym(strings, "pn", i),
                bidder_code: sym(strings, "bc", i),
                latency_ms: 10.0 * (i + 1) as f64,
                late: i % 2 == 0,
            })
            .collect(),
        slots: (0..spec.n_slots)
            .map(|i| DetectedSlot {
                slot: sym(strings, "s", i),
                size: sym(strings, "sz", i % 2),
                winner: sym(strings, "w", i),
                price: 0.1 * i as f64,
                channel: sym(strings, "ch", i % 2),
            })
            .collect(),
        event_counts: (0..spec.n_events)
            .map(|i| (sym(strings, "ev", i), (i + 1) as u32))
            .collect(),
        page_load_ms: spec.page_ms,
        // The fault-truth columns.
        bids_dropped: spec.rank % 3,
        retries: spec.day % 2,
        timed_out_partners: spec.rank % 2,
        passback_served: spec.rank.is_multiple_of(5),
    }
}

/// Build `(interner, columns)` from specs and seal them as one frame.
fn sealed_frame(specs: &[RowSpec]) -> (Interner, VisitColumns, Vec<u8>) {
    let mut strings = Interner::new();
    let mut cols = VisitColumns::with_capacity(specs.len());
    for spec in specs {
        let rec = record_for(spec, &mut strings);
        cols.push(rec);
    }
    let mut w = WireWriter::new();
    encode_interner(&strings, &mut w);
    encode_columns(&cols, &mut w);
    (strings.clone(), cols, seal_frame(&w.into_bytes()))
}

fn decode_frame(frame: &[u8]) -> Result<(Interner, VisitColumns), hb_core::WireError> {
    let payload = open_frame(frame)?;
    let mut r = WireReader::new(payload);
    let strings = decode_interner(&mut r)?;
    let cols = decode_columns(&mut r, strings.len())?;
    r.finish()?;
    Ok((strings, cols))
}

proptest! {
    #[test]
    fn arbitrary_columns_round_trip(specs in proptest::collection::vec(arb_row(), 0..12)) {
        let (strings, cols, frame) = sealed_frame(&specs);
        let (strings2, cols2) = decode_frame(&frame).expect("clean frame decodes");
        prop_assert_eq!(strings.len(), strings2.len());
        for ((sa, ta), (sb, tb)) in strings.iter().zip(strings2.iter()) {
            prop_assert_eq!(sa, sb);
            prop_assert_eq!(ta, tb);
        }
        prop_assert_eq!(cols.len(), cols2.len());
        for i in 0..cols.len() {
            // Debug form covers every field including raw symbol ids, so
            // this checks numbering identity, not just resolved text.
            let a = format!("{:?}", cols.get(i).to_record());
            let b = format!("{:?}", cols2.get(i).to_record());
            prop_assert_eq!(a, b, "row {} differs", i);
        }
    }

    #[test]
    fn one_bit_corruption_is_always_detected(
        specs in proptest::collection::vec(arb_row(), 0..6),
        pos_seed in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let (_, _, frame) = sealed_frame(&specs);
        let pos = pos_seed % frame.len();
        let mut bad = frame.clone();
        bad[pos] ^= 1 << bit;
        // Whatever byte was hit — magic, version, length, payload or the
        // checksum itself — the decode must fail; a flipped bit can never
        // yield a chunk that quietly parses.
        prop_assert!(
            decode_frame(&bad).is_err(),
            "bit {} of byte {} (frame len {}) went undetected",
            bit, pos, frame.len()
        );
    }

    #[test]
    fn truncation_is_always_detected(
        specs in proptest::collection::vec(arb_row(), 0..6),
        cut_seed in 0usize..1_000_000,
    ) {
        let (_, _, frame) = sealed_frame(&specs);
        // Any strict prefix, including an empty one.
        let keep = cut_seed % frame.len();
        prop_assert!(
            decode_frame(&frame[..keep]).is_err(),
            "truncation to {} of {} went undetected",
            keep, frame.len()
        );
    }
}

/// Ranks are 1-based and reports bin by `rank - 1`: a well-sealed frame
/// whose row says rank 0 is refused instead of reaching the fold.
#[test]
fn rank_zero_is_rejected() {
    let row = |rank| RowSpec {
        rank,
        day: 1,
        hb: true,
        facet: 1,
        n_partners: 1,
        n_bids: 1,
        n_lats: 1,
        n_slots: 1,
        n_events: 1,
        latency: Some(500.0),
        page_ms: None,
    };
    assert!(decode_frame(&sealed_frame(&[row(1)]).2).is_ok());
    assert!(matches!(
        decode_frame(&sealed_frame(&[row(1), row(0)]).2),
        Err(hb_core::WireError::Corrupt("rank 0"))
    ));
}

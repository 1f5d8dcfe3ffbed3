//! Builder-equivalence property: streaming a visit into [`VisitColumns`]
//! through a [`VisitBuilder`] row produces exactly the same columnar data
//! as materializing a [`VisitRecord`] and `push`ing it — row for row,
//! child table for child table — including when abandoned (dropped,
//! uncommitted) builders are interleaved between rows.

use hb_core::{
    BidSource, DetectedBid, DetectedFacet, DetectedSlot, Interner, PartnerLatency, VisitColumns,
    VisitRecord, VisitScalars,
};
use proptest::prelude::*;

/// Everything needed to build one synthetic visit row from small integers
/// (symbols come from a shared interner keyed by these values).
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

fn facet_of(spec: &RowSpec) -> Option<DetectedFacet> {
    match spec.facet {
        0 => None,
        1 => Some(DetectedFacet::Client),
        2 => Some(DetectedFacet::Server),
        _ => Some(DetectedFacet::Hybrid),
    }
}

fn record_for(spec: &RowSpec, strings: &mut Interner) -> VisitRecord {
    let sym = |s: &mut Interner, tag: &str, i: usize| s.intern(&format!("{tag}-{}-{i}", spec.rank));
    VisitRecord {
        domain: strings.intern(&format!("pub{}.example", spec.rank)),
        rank: spec.rank,
        day: spec.day,
        hb_detected: spec.hb,
        facet: facet_of(spec),
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
                latency_ms: (i % 3 != 0).then(|| 50.0 + i as f64),
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
        bids_dropped: (spec.rank % 3) as u32,
        retries: (spec.day % 2) as u32,
        timed_out_partners: (spec.rank % 2) as u32,
        passback_served: spec.rank % 5 == 0,
    }
}

/// Stream `rec` through a builder row, interleaving the child types the
/// way a detector would (latencies between bids, slots after winners…).
fn build_row(cols: &mut VisitColumns, rec: &VisitRecord) {
    let mut row = cols.begin_visit();
    // Child-type interleaving differs from push()'s order on purpose —
    // only within-type order must be preserved.
    for p in &rec.partners {
        row.push_partner(*p);
    }
    let mut bids = rec.bids.iter();
    for l in &rec.partner_latencies {
        if let Some(b) = bids.next() {
            row.push_bid(*b);
        }
        row.push_partner_latency(*l);
    }
    for b in bids {
        row.push_bid(*b);
    }
    for s in &rec.slots {
        row.push_slot(*s);
    }
    for (label, n) in &rec.event_counts {
        row.push_event_count(*label, *n);
    }
    assert_eq!(row.bids().len(), rec.bids.len());
    assert_eq!(row.slots_len(), rec.slots.len());
    row.finish_row(VisitScalars {
        domain: rec.domain,
        rank: rec.rank,
        day: rec.day,
        hb_detected: rec.hb_detected,
        facet: rec.facet,
        slots_auctioned: rec.slots_auctioned,
        hb_latency_ms: rec.hb_latency_ms,
        page_load_ms: rec.page_load_ms,
        bids_dropped: rec.bids_dropped,
        retries: rec.retries,
        timed_out_partners: rec.timed_out_partners,
        passback_served: rec.passback_served,
    });
}

proptest! {
    /// Builder output equals `push(record)` row-for-row, with abandoned
    /// builders rolling back cleanly between rows.
    #[test]
    fn builder_equals_push(
        specs in proptest::collection::vec(arb_row(), 0..12),
        abandon_every in 1usize..4,
    ) {
        let mut strings = Interner::new();
        let records: Vec<VisitRecord> =
            specs.iter().map(|s| record_for(s, &mut strings)).collect();

        let mut pushed = VisitColumns::new();
        for r in &records {
            pushed.push(r.clone());
        }

        let mut built = VisitColumns::with_capacity(records.len());
        for (i, r) in records.iter().enumerate() {
            if i % abandon_every == 0 {
                // An abandoned (dropped, unfinished) row must leave no
                // trace in the columns.
                let mut dead = built.begin_visit();
                dead.push_partner(r.domain);
                if let Some(b) = r.bids.first() {
                    dead.push_bid(*b);
                }
                drop(dead);
            }
            build_row(&mut built, r);
        }

        prop_assert_eq!(pushed.len(), built.len());
        for i in 0..pushed.len() {
            let a = pushed.get(i).to_record();
            let b = built.get(i).to_record();
            // VisitRecord doesn't implement PartialEq; its Debug output
            // covers every field.
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    /// `clear` keeps no rows and reuses cleanly.
    #[test]
    fn clear_then_reuse(specs in proptest::collection::vec(arb_row(), 1..6)) {
        let mut strings = Interner::new();
        let mut cols = VisitColumns::new();
        for s in &specs {
            cols.push(record_for(s, &mut strings));
        }
        prop_assert_eq!(cols.len(), specs.len());
        cols.clear();
        prop_assert!(cols.is_empty());
        prop_assert_eq!(cols.iter().count(), 0);
        // Reuse after clear behaves like a fresh column set.
        let rec = record_for(&specs[0], &mut strings);
        build_row(&mut cols, &rec);
        prop_assert_eq!(cols.len(), 1);
        prop_assert_eq!(
            format!("{:?}", cols.get(0).to_record()),
            format!("{rec:?}")
        );
    }
}

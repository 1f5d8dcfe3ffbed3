//! Columnar storage for finished visit records.
//!
//! A [`VisitRecord`] is a row: scalar fields plus five nested vectors, so
//! holding a campaign's worth of them means six heap allocations per visit
//! and pointer-chasing scans. [`VisitColumns`] stores the same data
//! struct-of-arrays: scalars in parallel columns, child rows (partners,
//! bids, latency observations, slot decisions, event counts) flattened
//! into shared arrays indexed by per-visit offset ranges. The crawl
//! pipeline streams finished visits into per-shard columnar chunks built
//! on this type, and the analysis layer's incremental index builder reads
//! the columns directly — rows are only re-materialized when a caller
//! explicitly asks for one ([`VisitView::to_record`]).

use crate::intern::Symbol;
use crate::record::{DetectedBid, DetectedFacet, DetectedSlot, PartnerLatency, VisitRecord};

pub mod wire;

/// Struct-of-arrays storage for visit records. Append-only; offsets keep
/// child rows in visit order.
#[derive(Clone, Debug, Default)]
pub struct VisitColumns {
    domain: Vec<Symbol>,
    rank: Vec<u32>,
    day: Vec<u32>,
    hb_detected: Vec<bool>,
    facet: Vec<Option<DetectedFacet>>,
    slots_auctioned: Vec<u32>,
    hb_latency_ms: Vec<Option<f64>>,
    page_load_ms: Vec<Option<f64>>,
    bids_dropped: Vec<u32>,
    retries: Vec<u32>,
    timed_out_partners: Vec<u32>,
    passback_served: Vec<bool>,
    partners: Vec<Symbol>,
    partners_off: Vec<u32>,
    bids: Vec<DetectedBid>,
    bids_off: Vec<u32>,
    partner_latencies: Vec<PartnerLatency>,
    latencies_off: Vec<u32>,
    slots: Vec<DetectedSlot>,
    slots_off: Vec<u32>,
    event_counts: Vec<(Symbol, u32)>,
    events_off: Vec<u32>,
}

/// Borrowed view of one visit row inside a [`VisitColumns`].
#[derive(Clone, Copy, Debug)]
pub struct VisitView<'a> {
    /// Site hostname.
    pub domain: Symbol,
    /// Site rank (1-based).
    pub rank: u32,
    /// Crawl day (0-based).
    pub day: u32,
    /// Did the visit exhibit HB activity?
    pub hb_detected: bool,
    /// Facet classification, when HB was detected.
    pub facet: Option<DetectedFacet>,
    /// Number of ad slots auctioned.
    pub slots_auctioned: u32,
    /// Total HB latency, ms.
    pub hb_latency_ms: Option<f64>,
    /// Page load time, ms.
    pub page_load_ms: Option<f64>,
    /// Bid requests that never completed (dropped/timed out on the wire).
    pub bids_dropped: u32,
    /// Bid requests that were deterministic retries of a failed attempt.
    pub retries: u32,
    /// Distinct partners with at least one uncompleted bid request.
    pub timed_out_partners: u32,
    /// Did a passback / house ad fill the slots?
    pub passback_served: bool,
    /// Unique partner display names participating.
    pub partners: &'a [Symbol],
    /// All bids observed.
    pub bids: &'a [DetectedBid],
    /// Per-partner latency observations.
    pub partner_latencies: &'a [PartnerLatency],
    /// Slot decisions observed.
    pub slots: &'a [DetectedSlot],
    /// HB DOM event counts per kind label.
    pub event_counts: &'a [(Symbol, u32)],
}

impl VisitView<'_> {
    /// Bids that arrived late.
    pub fn late_bids(&self) -> usize {
        self.bids.iter().filter(|b| b.late).count()
    }

    /// Re-materialize this view as an owned row.
    pub fn to_record(&self) -> VisitRecord {
        VisitRecord {
            domain: self.domain,
            rank: self.rank,
            day: self.day,
            hb_detected: self.hb_detected,
            facet: self.facet,
            partners: self.partners.to_vec(),
            slots_auctioned: self.slots_auctioned,
            hb_latency_ms: self.hb_latency_ms,
            bids: self.bids.to_vec(),
            partner_latencies: self.partner_latencies.to_vec(),
            slots: self.slots.to_vec(),
            event_counts: self.event_counts.to_vec(),
            page_load_ms: self.page_load_ms,
            bids_dropped: self.bids_dropped,
            retries: self.retries,
            timed_out_partners: self.timed_out_partners,
            passback_served: self.passback_served,
        }
    }
}

/// Range helper: the `i`-th window of an offsets column.
fn window(off: &[u32], i: usize) -> std::ops::Range<usize> {
    off[i] as usize..off[i + 1] as usize
}

impl VisitColumns {
    /// Empty column set.
    pub fn new() -> VisitColumns {
        VisitColumns::default()
    }

    /// Empty column set with scalar capacity for `n` visits.
    pub fn with_capacity(n: usize) -> VisitColumns {
        VisitColumns {
            domain: Vec::with_capacity(n),
            rank: Vec::with_capacity(n),
            day: Vec::with_capacity(n),
            hb_detected: Vec::with_capacity(n),
            facet: Vec::with_capacity(n),
            slots_auctioned: Vec::with_capacity(n),
            hb_latency_ms: Vec::with_capacity(n),
            page_load_ms: Vec::with_capacity(n),
            bids_dropped: Vec::with_capacity(n),
            retries: Vec::with_capacity(n),
            timed_out_partners: Vec::with_capacity(n),
            passback_served: Vec::with_capacity(n),
            ..VisitColumns::default()
        }
    }

    /// Number of visit rows.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True when no rows were pushed.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// Drop every row while keeping the allocated capacity of all columns
    /// (long-lived per-worker buffers reuse the storage).
    pub fn clear(&mut self) {
        let VisitColumns {
            domain,
            rank,
            day,
            hb_detected,
            facet,
            slots_auctioned,
            hb_latency_ms,
            page_load_ms,
            bids_dropped,
            retries,
            timed_out_partners,
            passback_served,
            partners,
            partners_off,
            bids,
            bids_off,
            partner_latencies,
            latencies_off,
            slots,
            slots_off,
            event_counts,
            events_off,
        } = self;
        domain.clear();
        rank.clear();
        day.clear();
        hb_detected.clear();
        facet.clear();
        slots_auctioned.clear();
        hb_latency_ms.clear();
        page_load_ms.clear();
        bids_dropped.clear();
        retries.clear();
        timed_out_partners.clear();
        passback_served.clear();
        partners.clear();
        partners_off.clear();
        bids.clear();
        bids_off.clear();
        partner_latencies.clear();
        latencies_off.clear();
        slots.clear();
        slots_off.clear();
        event_counts.clear();
        events_off.clear();
    }

    /// Lazily seed the offset columns (they carry one extra leading 0).
    fn ensure_offsets(&mut self) {
        if self.partners_off.is_empty() {
            self.partners_off.push(0);
            self.bids_off.push(0);
            self.latencies_off.push(0);
            self.slots_off.push(0);
            self.events_off.push(0);
        }
    }

    /// Start appending one visit row directly into the columns. Child
    /// rows (partners, bids, latencies, slots, event counts) are pushed
    /// straight into the flattened arrays; [`VisitBuilder::finish_row`]
    /// commits the scalars and offsets. This is the crawl hot path: a
    /// finished visit lands in columnar storage without ever
    /// materializing an owned [`VisitRecord`].
    pub fn begin_visit(&mut self) -> VisitBuilder<'_> {
        self.ensure_offsets();
        VisitBuilder {
            cols: self,
            committed: false,
        }
    }

    /// Append one finished visit, consuming the row (child vectors are
    /// drained into the flattened arrays). Equivalent to streaming the
    /// row through [`VisitColumns::begin_visit`] — enforced row-for-row
    /// by the builder-equivalence proptest.
    pub fn push(&mut self, v: VisitRecord) {
        let mut b = self.begin_visit();
        for p in v.partners {
            b.push_partner(p);
        }
        for bid in v.bids {
            b.push_bid(bid);
        }
        for l in v.partner_latencies {
            b.push_partner_latency(l);
        }
        for s in v.slots {
            b.push_slot(s);
        }
        for (label, n) in v.event_counts {
            b.push_event_count(label, n);
        }
        b.finish_row(VisitScalars {
            domain: v.domain,
            rank: v.rank,
            day: v.day,
            hb_detected: v.hb_detected,
            facet: v.facet,
            slots_auctioned: v.slots_auctioned,
            hb_latency_ms: v.hb_latency_ms,
            page_load_ms: v.page_load_ms,
            bids_dropped: v.bids_dropped,
            retries: v.retries,
            timed_out_partners: v.timed_out_partners,
            passback_served: v.passback_served,
        });
    }

    /// Borrowed view of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> VisitView<'_> {
        VisitView {
            domain: self.domain[i],
            rank: self.rank[i],
            day: self.day[i],
            hb_detected: self.hb_detected[i],
            facet: self.facet[i],
            slots_auctioned: self.slots_auctioned[i],
            hb_latency_ms: self.hb_latency_ms[i],
            page_load_ms: self.page_load_ms[i],
            bids_dropped: self.bids_dropped[i],
            retries: self.retries[i],
            timed_out_partners: self.timed_out_partners[i],
            passback_served: self.passback_served[i],
            partners: &self.partners[window(&self.partners_off, i)],
            bids: &self.bids[window(&self.bids_off, i)],
            partner_latencies: &self.partner_latencies[window(&self.latencies_off, i)],
            slots: &self.slots[window(&self.slots_off, i)],
            event_counts: &self.event_counts[window(&self.events_off, i)],
        }
    }

    /// Iterate borrowed row views in push order.
    pub fn iter(&self) -> impl Iterator<Item = VisitView<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// The scalar fields of one visit row, committed together by
/// [`VisitBuilder::finish_row`].
#[derive(Clone, Copy, Debug, Default)]
pub struct VisitScalars {
    /// Site hostname.
    pub domain: Symbol,
    /// Site rank (1-based).
    pub rank: u32,
    /// Crawl day (0-based).
    pub day: u32,
    /// Did the visit exhibit HB activity?
    pub hb_detected: bool,
    /// Facet classification, when HB was detected.
    pub facet: Option<DetectedFacet>,
    /// Number of ad slots auctioned.
    pub slots_auctioned: u32,
    /// Total HB latency, ms.
    pub hb_latency_ms: Option<f64>,
    /// Page load time, ms.
    pub page_load_ms: Option<f64>,
    /// Bid requests that never completed.
    pub bids_dropped: u32,
    /// Deterministic retry attempts observed.
    pub retries: u32,
    /// Distinct partners with an uncompleted bid request.
    pub timed_out_partners: u32,
    /// Did a passback / house ad fill the slots?
    pub passback_served: bool,
}

/// In-progress appender for one visit row inside a [`VisitColumns`].
///
/// Child rows accumulate in the flattened arrays as they are pushed;
/// [`VisitBuilder::finish_row`] commits the row by appending the scalar
/// columns and the offset entries. Dropping an unfinished builder rolls
/// the uncommitted child rows back, leaving the columns exactly as they
/// were before [`VisitColumns::begin_visit`].
pub struct VisitBuilder<'a> {
    cols: &'a mut VisitColumns,
    committed: bool,
}

impl VisitBuilder<'_> {
    /// Append one participating partner (sorted order is the caller's
    /// responsibility, matching [`VisitRecord::partners`]).
    pub fn push_partner(&mut self, p: Symbol) {
        self.cols.partners.push(p);
    }

    /// Append one detected bid.
    pub fn push_bid(&mut self, b: DetectedBid) {
        self.cols.bids.push(b);
    }

    /// Append one per-partner latency observation.
    pub fn push_partner_latency(&mut self, l: PartnerLatency) {
        self.cols.partner_latencies.push(l);
    }

    /// Append one slot decision.
    pub fn push_slot(&mut self, s: DetectedSlot) {
        self.cols.slots.push(s);
    }

    /// Append one DOM-event count.
    pub fn push_event_count(&mut self, label: Symbol, n: u32) {
        self.cols.event_counts.push((label, n));
    }

    /// The bids pushed for *this* row so far (the detector's
    /// double-count check reads them back while reconstructing winners).
    pub fn bids(&self) -> &[DetectedBid] {
        let start = *self.cols.bids_off.last().expect("offsets seeded") as usize;
        &self.cols.bids[start..]
    }

    /// Number of slot decisions pushed for this row so far.
    pub fn slots_len(&self) -> usize {
        let start = *self.cols.slots_off.last().expect("offsets seeded") as usize;
        self.cols.slots.len() - start
    }

    /// Commit the row: append the scalar columns and seal the child
    /// windows.
    pub fn finish_row(mut self, s: VisitScalars) {
        let c = &mut *self.cols;
        c.domain.push(s.domain);
        c.rank.push(s.rank);
        c.day.push(s.day);
        c.hb_detected.push(s.hb_detected);
        c.facet.push(s.facet);
        c.slots_auctioned.push(s.slots_auctioned);
        c.hb_latency_ms.push(s.hb_latency_ms);
        c.page_load_ms.push(s.page_load_ms);
        c.bids_dropped.push(s.bids_dropped);
        c.retries.push(s.retries);
        c.timed_out_partners.push(s.timed_out_partners);
        c.passback_served.push(s.passback_served);
        c.partners_off.push(c.partners.len() as u32);
        c.bids_off.push(c.bids.len() as u32);
        c.latencies_off.push(c.partner_latencies.len() as u32);
        c.slots_off.push(c.slots.len() as u32);
        c.events_off.push(c.event_counts.len() as u32);
        self.committed = true;
    }
}

impl Drop for VisitBuilder<'_> {
    fn drop(&mut self) {
        if !self.committed {
            // Roll back child rows of the abandoned visit.
            let c = &mut *self.cols;
            c.partners
                .truncate(*c.partners_off.last().unwrap_or(&0) as usize);
            c.bids.truncate(*c.bids_off.last().unwrap_or(&0) as usize);
            c.partner_latencies
                .truncate(*c.latencies_off.last().unwrap_or(&0) as usize);
            c.slots.truncate(*c.slots_off.last().unwrap_or(&0) as usize);
            c.event_counts
                .truncate(*c.events_off.last().unwrap_or(&0) as usize);
        }
    }
}

impl FromIterator<VisitRecord> for VisitColumns {
    fn from_iter<T: IntoIterator<Item = VisitRecord>>(iter: T) -> VisitColumns {
        let mut c = VisitColumns::new();
        for v in iter {
            c.push(v);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;
    use crate::record::BidSource;

    fn sample(strings: &mut Interner, rank: u32, n_bids: usize) -> VisitRecord {
        VisitRecord {
            domain: strings.intern(&format!("pub{rank}.example")),
            rank,
            day: 1,
            hb_detected: n_bids > 0,
            facet: (n_bids > 0).then_some(DetectedFacet::Client),
            partners: vec![strings.intern("AppNexus")],
            slots_auctioned: 2,
            hb_latency_ms: Some(320.0),
            bids: (0..n_bids)
                .map(|i| DetectedBid {
                    bidder_code: strings.intern("appnexus"),
                    partner_name: strings.intern("AppNexus"),
                    slot: strings.intern(&format!("s{i}")),
                    cpm: 0.1 * (i + 1) as f64,
                    size: strings.intern("300x250"),
                    late: i % 2 == 1,
                    latency_ms: Some(100.0 + i as f64),
                    source: BidSource::ClientVisible,
                })
                .collect(),
            partner_latencies: vec![PartnerLatency {
                partner_name: strings.intern("AppNexus"),
                bidder_code: strings.intern("appnexus"),
                latency_ms: 210.0,
                late: false,
            }],
            slots: vec![],
            event_counts: vec![(strings.intern("auctionInit"), 1)],
            page_load_ms: Some(900.0),
            bids_dropped: (rank % 2) as u32,
            retries: 0,
            timed_out_partners: 0,
            passback_served: rank == 3,
        }
    }

    #[test]
    fn roundtrip_preserves_rows() {
        let mut strings = Interner::new();
        let rows: Vec<VisitRecord> = (1..=5)
            .map(|r| sample(&mut strings, r, r as usize % 3))
            .collect();
        let cols: VisitColumns = rows.iter().cloned().collect();
        assert_eq!(cols.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            let back = cols.get(i).to_record();
            assert_eq!(back.domain, row.domain);
            assert_eq!(back.rank, row.rank);
            assert_eq!(back.hb_detected, row.hb_detected);
            assert_eq!(back.bids.len(), row.bids.len());
            assert_eq!(back.partners, row.partners);
            assert_eq!(back.event_counts, row.event_counts);
            assert_eq!(back.hb_latency_ms, row.hb_latency_ms);
            assert_eq!(back.bids_dropped, row.bids_dropped);
            assert_eq!(back.passback_served, row.passback_served);
        }
    }

    #[test]
    fn views_window_child_tables() {
        let mut strings = Interner::new();
        let cols: VisitColumns = vec![
            sample(&mut strings, 1, 3),
            sample(&mut strings, 2, 0),
            sample(&mut strings, 3, 2),
        ]
        .into_iter()
        .collect();
        assert_eq!(cols.get(0).bids.len(), 3);
        assert_eq!(cols.get(1).bids.len(), 0);
        assert_eq!(cols.get(2).bids.len(), 2);
        assert_eq!(cols.get(0).late_bids(), 1);
        let total: usize = cols.iter().map(|v| v.bids.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_columns() {
        let cols = VisitColumns::new();
        assert!(cols.is_empty());
        assert_eq!(cols.iter().count(), 0);
    }
}

//! Columnar chunks: the streaming unit between the crawl workers and
//! everything downstream.
//!
//! A chunk holds a contiguous run of finished visits of one day's rank
//! list, stored columnar ([`VisitColumns`]) with the ground truth already
//! flattened to [`TruthRecord`]s and strings interned into a chunk-local
//! [`Interner`]. Chunks are self-contained — they can cross thread (or,
//! serialized, machine) boundaries without referencing any campaign-wide
//! state — and carry a deterministic `(day, seq)` key so any
//! collection of chunks folds into the same dataset regardless of the
//! order it was produced in.

use crate::dataset::TruthRecord;
use hb_core::{
    decode_columns, decode_interner, encode_columns, encode_interner, open_frame, seal_frame_into,
    Interner, VisitColumns, WireError, WireReader, WireWriter,
};

/// One sealed batch of finished visits from one block of a crawl day.
#[derive(Clone, Debug)]
pub struct VisitChunk {
    /// Crawl day the visits belong to (0 = adoption sweep).
    pub day: u32,
    /// Position of this chunk within its day's rank list.
    pub seq: u32,
    /// Columnar visit records (symbols resolve against `strings`).
    pub visits: VisitColumns,
    /// Flattened ground truth, parallel to `visits`.
    pub truths: Vec<TruthRecord>,
    /// Chunk-local interner the visit symbols resolve against.
    pub strings: Interner,
}

impl VisitChunk {
    /// The deterministic fold-order key.
    pub fn key(&self) -> (u32, u32) {
        (self.day, self.seq)
    }

    /// Number of visits in the chunk.
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// True when the chunk holds no visits.
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    /// Encode the chunk as one sealed wire frame (see
    /// `hb_core::columns::wire` for the frame layout): key, columns,
    /// flattened truths and the chunk-local interner, integrity-checked
    /// end to end. The frame is fully self-contained — [`VisitChunk::
    /// decode`] on any machine reproduces the chunk byte-for-byte.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(self.day);
        w.u32(self.seq);
        encode_interner(&self.strings, &mut w);
        encode_columns(&self.visits, &mut w);
        w.len(self.truths.len());
        for t in &self.truths {
            w.u32(t.rank);
            w.u32(t.day);
            w.u8(truth_facet_tag(t.facet));
            w.u32(t.slots);
            w.u32(t.client_bids);
            w.u32(t.late_bids);
            w.opt_f64(t.hb_latency_ms);
            w.opt_f64(t.waterfall_latency_ms);
            w.u32(t.hb_wins);
            w.f64(t.revenue_cpm);
            w.u32(t.bids_dropped);
            w.u32(t.retries);
            w.u32(t.timed_out_partners);
            w.bool(t.passback_served);
        }
        let payload = w.into_bytes();
        let mut frame = Vec::new();
        seal_frame_into(&payload, &mut frame);
        frame
    }

    /// Decode a sealed chunk frame. Magic, version, length and checksum
    /// are verified before any parsing; structural validation (symbol
    /// bounds, offset monotonicity, enum tags) rejects frames that pass
    /// the checksum but violate the format. A corrupt frame is an `Err`,
    /// never a panic and never a half-decoded chunk.
    pub fn decode(frame: &[u8]) -> Result<VisitChunk, WireError> {
        let payload = open_frame(frame)?;
        let mut r = WireReader::new(payload);
        let day = r.u32()?;
        let seq = r.u32()?;
        let strings = decode_interner(&mut r)?;
        let visits = decode_columns(&mut r, strings.len())?;
        let n_truths = r.bounded_len(43)?;
        let mut truths = Vec::with_capacity(n_truths);
        for _ in 0..n_truths {
            truths.push(TruthRecord {
                rank: r.u32()?,
                day: r.u32()?,
                facet: truth_facet_from_tag(r.u8()?)?,
                slots: r.u32()?,
                client_bids: r.u32()?,
                late_bids: r.u32()?,
                hb_latency_ms: r.opt_f64()?,
                waterfall_latency_ms: r.opt_f64()?,
                hb_wins: r.u32()?,
                revenue_cpm: r.f64()?,
                bids_dropped: r.u32()?,
                retries: r.u32()?,
                timed_out_partners: r.u32()?,
                passback_served: r.bool()?,
            });
        }
        r.finish()?;
        Ok(VisitChunk {
            day,
            seq,
            visits,
            truths,
            strings,
        })
    }
}

/// The ground-truth facet label set is closed (`TruthRecord::facet` is a
/// `&'static str` for exactly this reason), so it wires as one tag byte.
fn truth_facet_tag(label: &str) -> u8 {
    match label {
        "none" => 0,
        "client-side" => 1,
        "server-side" => 2,
        "hybrid" => 3,
        _ => unreachable!("closed facet label set: {label}"),
    }
}

fn truth_facet_from_tag(tag: u8) -> Result<&'static str, WireError> {
    Ok(match tag {
        0 => "none",
        1 => "client-side",
        2 => "server-side",
        3 => "hybrid",
        _ => return Err(WireError::Corrupt("truth facet tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign_streamed, CampaignConfig};
    use hb_ecosystem::{EcosystemConfig, SiteFactory};

    /// Chunks from a real tiny crawl survive the wire byte-for-byte:
    /// identical key, interner numbering, visit rows and truths.
    #[test]
    fn real_chunks_round_trip_the_wire() {
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        let cfg = CampaignConfig {
            chunk_visits: 37,
            ..CampaignConfig::default()
        };
        let mut chunks = Vec::new();
        run_campaign_streamed(&eco, &cfg, &mut |c| chunks.push(c));
        assert!(chunks.len() > 1, "want multiple chunks");
        for chunk in &chunks {
            let frame = chunk.encode();
            let back = VisitChunk::decode(&frame).expect("clean frame decodes");
            assert_eq!(back.key(), chunk.key());
            assert_eq!(back.len(), chunk.len());
            assert_eq!(back.strings.len(), chunk.strings.len());
            for ((sa, ta), (sb, tb)) in chunk.strings.iter().zip(back.strings.iter()) {
                assert_eq!(sa, sb);
                assert_eq!(ta, tb);
            }
            for i in 0..chunk.len() {
                let a = chunk.visits.get(i).to_record();
                let b = back.visits.get(i).to_record();
                // Same chunk-local interner numbering, so raw symbol ids
                // (not just resolved text) must agree.
                assert_eq!(a.domain, b.domain);
                assert_eq!(a.rank, b.rank);
                assert_eq!(a.day, b.day);
                assert_eq!(a.hb_detected, b.hb_detected);
                assert_eq!(a.facet, b.facet);
                assert_eq!(a.partners, b.partners);
                assert_eq!(a.slots_auctioned, b.slots_auctioned);
                assert_eq!(a.hb_latency_ms, b.hb_latency_ms);
                assert_eq!(a.page_load_ms, b.page_load_ms);
                assert_eq!(a.bids.len(), b.bids.len());
                for (x, y) in a.bids.iter().zip(b.bids.iter()) {
                    assert_eq!(x.bidder_code, y.bidder_code);
                    assert_eq!(x.cpm, y.cpm);
                    assert_eq!(x.late, y.late);
                    assert_eq!(x.latency_ms, y.latency_ms);
                }
                assert_eq!(a.event_counts, b.event_counts);
            }
            assert_eq!(back.truths.len(), chunk.truths.len());
            for (a, b) in chunk.truths.iter().zip(back.truths.iter()) {
                assert_eq!(a.rank, b.rank);
                assert_eq!(a.day, b.day);
                assert_eq!(a.facet, b.facet);
                assert_eq!(a.hb_latency_ms, b.hb_latency_ms);
                assert_eq!(a.revenue_cpm, b.revenue_cpm);
                assert_eq!(a.passback_served, b.passback_served);
            }
            // A corrupt byte anywhere in the frame is rejected.
            let mut bad = frame.clone();
            bad[frame.len() / 2] ^= 0x10;
            assert!(VisitChunk::decode(&bad).is_err());
        }
    }
}

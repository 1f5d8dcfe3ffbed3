//! The crawl dataset on disk: flattened ground truth plus a CSV writer
//! that streams a campaign's chunks into `visits.csv`, `bids.csv` and
//! `truth.csv`.

use crate::chunk::VisitChunk;
use hb_adtech::{FillChannel, VisitGroundTruth};
use hb_stats::csv_escape;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Flattened ground truth for one visit (thread-transferable, CSV-friendly).
#[derive(Clone, Debug, Default)]
pub struct TruthRecord {
    /// Site rank.
    pub rank: u32,
    /// Crawl day.
    pub day: u32,
    /// Ground-truth facet label (`client-side`/`server-side`/`hybrid`/`none`).
    /// Static: the label set is closed, so flattening a visit's truth
    /// never allocates for it.
    pub facet: &'static str,
    /// Slots auctioned.
    pub slots: u32,
    /// Client-visible bids.
    pub client_bids: u32,
    /// Late bids.
    pub late_bids: u32,
    /// HB latency ms (first bid request → ad-server response).
    pub hb_latency_ms: Option<f64>,
    /// Waterfall fill latency ms (waterfall sites).
    pub waterfall_latency_ms: Option<f64>,
    /// Number of slots filled by an HB bid.
    pub hb_wins: u32,
    /// Revenue proxy: sum of clearing price buckets.
    pub revenue_cpm: f64,
    /// Bid/ad requests lost to network faults (drops, dead hosts).
    pub bids_dropped: u32,
    /// Deadline-triggered retries issued (HB partners + waterfall tiers).
    pub retries: u32,
    /// Demand sources given up on after deadline/retry exhaustion.
    pub timed_out_partners: u32,
    /// Did the wrapper fall back to house ads after total demand failure?
    pub passback_served: bool,
}

impl TruthRecord {
    /// Flatten a visit's ground truth.
    pub fn from_truth(rank: u32, day: u32, t: &VisitGroundTruth) -> TruthRecord {
        TruthRecord {
            rank,
            day,
            facet: t.facet.map(|f| f.label()).unwrap_or("none"),
            slots: t.slots_auctioned as u32,
            client_bids: t.client_bids as u32,
            late_bids: t.late_bids as u32,
            hb_latency_ms: t.hb_latency().map(|d| d.as_millis_f64()),
            waterfall_latency_ms: t.waterfall_latency.map(|d| d.as_millis_f64()),
            hb_wins: t
                .winners
                .iter()
                .filter(|w| w.channel == FillChannel::HeaderBid)
                .count() as u32,
            revenue_cpm: t.winners.iter().map(|w| w.pb.0).sum(),
            bids_dropped: t.bids_dropped as u32,
            retries: t.retries as u32,
            timed_out_partners: t.timed_out_partners as u32,
            passback_served: t.passback_served,
        }
    }
}

/// Header of `visits.csv`.
const VISITS_HEADER: &str =
    "domain,rank,day,hb_detected,facet,partners,slots,hb_latency_ms,n_bids,n_late,page_load_ms\n";
/// Header of `bids.csv`.
const BIDS_HEADER: &str =
    "domain,rank,day,facet,bidder,partner,slot,cpm,size,late,latency_ms,source\n";
/// Header of `truth.csv`.
const TRUTH_HEADER: &str = "rank,day,facet,slots,client_bids,late_bids,hb_latency_ms,waterfall_latency_ms,hb_wins,revenue_cpm,bids_dropped,retries,timed_out_partners,passback_served\n";

/// Streams a campaign's chunks into the three dataset CSV tables.
///
/// Each chunk's symbols are resolved against that chunk's own interner
/// and only text reaches the output, so the bytes depend on the visits
/// and their `(day, seq)` fold order — not on chunk boundaries or
/// parallelism. Feed chunks in the order
/// [`run_campaign_streamed`](crate::run_campaign_streamed) emits them.
pub struct DatasetWriter<W: Write> {
    visits: W,
    bids: W,
    truths: W,
    /// Reused buffer for the `|`-joined partner column.
    partners: String,
}

impl DatasetWriter<BufWriter<File>> {
    /// Create `dir` (and parents) and the three CSV files in it, headers
    /// written.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let open = |name: &str| File::create(dir.join(name)).map(BufWriter::new);
        DatasetWriter::new(open("visits.csv")?, open("bids.csv")?, open("truth.csv")?)
    }
}

impl<W: Write> DatasetWriter<W> {
    /// Wrap three sinks (visits, bids, truths) and write their headers.
    pub fn new(mut visits: W, mut bids: W, mut truths: W) -> io::Result<Self> {
        visits.write_all(VISITS_HEADER.as_bytes())?;
        bids.write_all(BIDS_HEADER.as_bytes())?;
        truths.write_all(TRUTH_HEADER.as_bytes())?;
        Ok(DatasetWriter {
            visits,
            bids,
            truths,
            partners: String::new(),
        })
    }

    /// Append one chunk's visits, bids and truths.
    pub fn write_chunk(&mut self, chunk: &VisitChunk) -> io::Result<()> {
        let s = |sym| chunk.strings.resolve(sym);
        let opt =
            |x: Option<f64>, digits: usize| x.map(|x| format!("{x:.digits$}")).unwrap_or_default();
        for v in chunk.visits.iter() {
            let facet = v.facet.map(|f| f.label()).unwrap_or("none");
            self.partners.clear();
            for (i, p) in v.partners.iter().enumerate() {
                if i > 0 {
                    self.partners.push('|');
                }
                self.partners.push_str(s(*p));
            }
            writeln!(
                self.visits,
                "{},{},{},{},{},{},{},{},{},{},{}",
                csv_escape(s(v.domain)),
                v.rank,
                v.day,
                v.hb_detected,
                facet,
                csv_escape(&self.partners),
                v.slots_auctioned,
                opt(v.hb_latency_ms, 3),
                v.bids.len(),
                v.late_bids(),
                opt(v.page_load_ms, 1),
            )?;
            if !v.hb_detected {
                continue;
            }
            for b in v.bids {
                writeln!(
                    self.bids,
                    "{},{},{},{},{},{},{},{:.6},{},{},{},{}",
                    csv_escape(s(v.domain)),
                    v.rank,
                    v.day,
                    facet,
                    csv_escape(s(b.bidder_code)),
                    csv_escape(s(b.partner_name)),
                    csv_escape(s(b.slot)),
                    b.cpm,
                    s(b.size),
                    b.late,
                    opt(b.latency_ms, 3),
                    match b.source {
                        hb_core::BidSource::ClientVisible => "client",
                        hb_core::BidSource::ServerReported => "server",
                    },
                )?;
            }
        }
        for t in &chunk.truths {
            writeln!(
                self.truths,
                "{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{}",
                t.rank,
                t.day,
                t.facet,
                t.slots,
                t.client_bids,
                t.late_bids,
                opt(t.hb_latency_ms, 3),
                opt(t.waterfall_latency_ms, 3),
                t.hb_wins,
                t.revenue_cpm,
                t.bids_dropped,
                t.retries,
                t.timed_out_partners,
                t.passback_served,
            )?;
        }
        Ok(())
    }

    /// Flush and hand back the sinks as `[visits, bids, truths]`.
    pub fn finish(mut self) -> io::Result<[W; 3]> {
        self.visits.flush()?;
        self.bids.flush()?;
        self.truths.flush()?;
        Ok([self.visits, self.bids, self.truths])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::{BidSource, DetectedBid, DetectedFacet, Interner, VisitColumns, VisitRecord};
    use hb_stats::parse_csv;

    fn chunk(visits: Vec<VisitRecord>, truths: Vec<TruthRecord>, strings: Interner) -> VisitChunk {
        let mut cols = VisitColumns::new();
        for v in visits {
            cols.push(v);
        }
        VisitChunk {
            day: 0,
            seq: 0,
            visits: cols,
            truths,
            strings,
        }
    }

    fn mk_visit(strings: &mut Interner, domain: &str, rank: u32, detected: bool) -> VisitRecord {
        VisitRecord {
            domain: strings.intern(domain),
            rank,
            day: 0,
            hb_detected: detected,
            facet: detected.then_some(DetectedFacet::Client),
            partners: vec![strings.intern("AppNexus"), strings.intern("Criteo, Inc")],
            slots_auctioned: 3,
            hb_latency_ms: Some(512.0),
            bids: vec![DetectedBid {
                bidder_code: strings.intern("appnexus"),
                partner_name: strings.intern("AppNexus"),
                slot: strings.intern("s1"),
                cpm: 0.21,
                size: strings.intern("300x250"),
                late: false,
                latency_ms: Some(230.0),
                source: BidSource::ClientVisible,
            }],
            page_load_ms: Some(1400.0),
            ..VisitRecord::default()
        }
    }

    fn write(chunk: &VisitChunk) -> [String; 3] {
        let mut w = DatasetWriter::new(Vec::new(), Vec::new(), Vec::new()).unwrap();
        w.write_chunk(chunk).unwrap();
        w.finish()
            .unwrap()
            .map(|bytes| String::from_utf8(bytes).unwrap())
    }

    #[test]
    fn csv_roundtrip_truths() {
        let truths = vec![
            TruthRecord {
                rank: 5,
                day: 2,
                facet: "hybrid",
                slots: 4,
                client_bids: 3,
                late_bids: 1,
                hb_latency_ms: Some(612.5),
                waterfall_latency_ms: None,
                hb_wins: 2,
                revenue_cpm: 0.61,
                bids_dropped: 2,
                retries: 1,
                timed_out_partners: 1,
                passback_served: true,
            },
            TruthRecord {
                rank: 9,
                facet: "none",
                slots: 1,
                waterfall_latency_ms: Some(210.0),
                revenue_cpm: 0.02,
                ..TruthRecord::default()
            },
        ];
        let [_, _, csv] = write(&chunk(vec![], truths, Interner::new()));
        let rows = parse_csv(&csv);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), 14, "14 header columns");
        assert_eq!(
            rows[1],
            [
                "5", "2", "hybrid", "4", "3", "1", "612.500", "", "2", "0.610000", "2", "1", "1",
                "true"
            ]
        );
        assert_eq!(
            rows[2],
            [
                "9", "0", "none", "1", "0", "0", "", "210.000", "0", "0.020000", "0", "0", "0",
                "false"
            ]
        );
    }

    #[test]
    fn visit_csv_has_header_and_rows() {
        let mut strings = Interner::new();
        let visits = vec![
            mk_visit(&mut strings, "a.example", 1, true),
            mk_visit(&mut strings, "b.example", 2, false),
        ];
        let [visits, bids, _] = write(&chunk(visits, vec![], strings));
        let lines: Vec<&str> = visits.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], VISITS_HEADER.trim_end());
        assert_eq!(
            lines[1],
            "a.example,1,0,true,client-side,\"AppNexus|Criteo, Inc\",3,512.000,1,0,1400.0"
        );
        // Only HB visits contribute bid rows.
        let bid_lines: Vec<&str> = bids.lines().collect();
        assert_eq!(bid_lines.len(), 2);
        assert_eq!(
            bid_lines[1],
            "a.example,1,0,client-side,appnexus,AppNexus,s1,0.210000,300x250,false,230.000,client"
        );
    }
}

//! Dataset persistence: the streaming CSV writer's tables, their pinned
//! bytes, and file output.

mod common;

use common::campaign;
use hb_repro::core::xxh64;
use hb_repro::crawler::TruthRecord;
use hb_repro::prelude::*;
use hb_repro::stats::parse_csv;

/// `[visits.csv, bids.csv, truth.csv]` of a chunk stream.
fn tables(chunks: &[VisitChunk]) -> [String; 3] {
    let mut w = DatasetWriter::new(Vec::new(), Vec::new(), Vec::new()).expect("headers");
    for c in chunks {
        w.write_chunk(c).expect("in-memory write");
    }
    w.finish()
        .expect("flush")
        .map(|bytes| String::from_utf8(bytes).expect("CSV is UTF-8"))
}

fn tiny_campaign(cfg: &CampaignConfig) -> Vec<VisitChunk> {
    campaign(&SiteFactory::new(EcosystemConfig::tiny_scale()), cfg)
}

#[test]
fn csv_bytes_are_pinned_across_chunk_sizes() {
    // xxh64 of the three tables at tiny scale, as written by the row
    // dataset the streaming writer replaced: the writer must reproduce
    // them byte for byte, and so must any chunk size.
    const PINNED: [u64; 3] = [
        0xdbd5_11ca_4897_8d9b,
        0x364f_5cc0_9fa8_872f,
        0x09ff_ff58_0d9a_2ee3,
    ];
    let digests = |cfg: &CampaignConfig| tables(&tiny_campaign(cfg)).map(|t| xxh64(t.as_bytes()));
    assert_eq!(digests(&CampaignConfig::default()), PINNED);
    let ragged = CampaignConfig {
        chunk_visits: 23,
        ..CampaignConfig::default()
    };
    assert_eq!(digests(&ragged), PINNED);
}

#[test]
fn save_writes_three_csv_files() {
    let chunks = tiny_campaign(&CampaignConfig::default());
    let dir = std::env::temp_dir().join(format!("hb-repro-test-{}", std::process::id()));
    let mut w = DatasetWriter::create(&dir).expect("create dataset files");
    for c in &chunks {
        w.write_chunk(c).expect("write chunk");
    }
    w.finish().expect("flush");
    for (f, want) in ["visits.csv", "bids.csv", "truth.csv"]
        .iter()
        .zip(tables(&chunks))
    {
        let content = std::fs::read_to_string(dir.join(f)).expect("file exists");
        assert!(content.lines().count() > 1, "{f} has data rows");
        assert_eq!(content, want, "{f} on disk matches the in-memory table");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truth_csv_roundtrip_preserves_every_record() {
    let chunks = tiny_campaign(&CampaignConfig::default());
    let [_, _, csv] = tables(&chunks);
    let rows = parse_csv(&csv);
    let truths: Vec<&TruthRecord> = chunks.iter().flat_map(|c| &c.truths).collect();
    assert_eq!(rows.len(), truths.len() + 1);
    let num = |s: &str| -> Option<f64> { (!s.is_empty()).then(|| s.parse().expect("number")) };
    for (t, row) in truths.iter().zip(rows.iter().skip(1)) {
        assert_eq!(row[0], t.rank.to_string());
        assert_eq!(row[1], t.day.to_string());
        assert_eq!(row[2], t.facet);
        assert_eq!(row[3], t.slots.to_string());
        assert_eq!(row[4], t.client_bids.to_string());
        assert_eq!(row[5], t.late_bids.to_string());
        assert_eq!(row[8], t.hb_wins.to_string());
        for (col, want) in [(6, t.hb_latency_ms), (7, t.waterfall_latency_ms)] {
            match (num(&row[col]), want) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 0.01),
                (None, None) => {}
                other => panic!("latency mismatch {other:?}"),
            }
        }
        assert_eq!(row[13], t.passback_served.to_string());
    }
}

#[test]
fn visits_csv_is_well_formed() {
    let chunks = tiny_campaign(&CampaignConfig::default());
    let [csv, _, _] = tables(&chunks);
    let rows = parse_csv(&csv);
    assert_eq!(rows[0].len(), 11, "11 header columns");
    let visits: usize = chunks.iter().map(VisitChunk::len).sum();
    assert_eq!(rows.len(), visits + 1);
    for row in rows.iter().skip(1) {
        assert_eq!(row.len(), 11, "row width");
        assert!(row[1].parse::<u32>().is_ok(), "rank parses");
        assert!(matches!(
            row[4].as_str(),
            "none" | "client-side" | "server-side" | "hybrid"
        ));
    }
}

#[test]
fn bids_csv_rows_match_bid_count() {
    let chunks = tiny_campaign(&CampaignConfig::default());
    let [_, csv, _] = tables(&chunks);
    let bids: usize = chunks
        .iter()
        .flat_map(|c| c.visits.iter())
        .filter(|v| v.hb_detected)
        .map(|v| v.bids.len())
        .sum();
    assert_eq!(parse_csv(&csv).len(), bids + 1);
}

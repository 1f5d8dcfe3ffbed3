//! Crash-safe chunk spool: the coordinator's durability layer.
//!
//! Every accepted chunk frame is written to the spool directory *before*
//! the submitting worker is acked, one file per `(day, shard, seq)` key,
//! via the classic tmp-write + rename dance so a crash mid-write never
//! leaves a half-frame under a final name. On restart the coordinator
//! replays the spool: everything is checksum-verified end to end (each
//! sealed frame carries its own XXH64), corrupt or truncated entries are
//! counted and skipped — never trusted — and only the blocks without a
//! replayed chunk are leased out again.
//!
//! ## Segments
//!
//! A long campaign accumulates one loose `chunk-*.hbwf` file per block,
//! so a million-rank restart would pay one open/read/verify per chunk.
//! [`compact_spool`] folds loose files into *segment* files
//! (`seg-*.hbseg`): a sealed manifest frame listing every member key and
//! frame length, followed by the member chunk frames back-to-back. A
//! restart then replays O(segments) files; the manifest's lengths let
//! the reader walk members without scanning, and a corrupt member
//! rejects only itself (a corrupt manifest rejects its whole segment —
//! lengths from an unverified manifest are never trusted).
//!
//! Compaction is crash-safe the same way writes are: the segment is
//! fsynced under a temp name, renamed, and only then are its members
//! deleted. A crash between rename and deletes leaves chunks present
//! both loose and in the segment; replay dedupes by key.

use crate::proto::MAX_PAYLOAD;
use hb_core::{
    frame_payload_len, open_frame, seal_frame, WireError, WireReader, WireWriter, FRAME_HEADER,
    FRAME_OVERHEAD,
};
use hb_crawler::VisitChunk;
use std::collections::HashSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File name for a chunk key — fixed-width so directory order is key
/// order within a day/shard.
pub fn spool_file_name(day: u32, shard: u32, seq: u32) -> String {
    format!("chunk-d{day:05}-s{shard:05}-q{seq:06}.hbwf")
}

/// File name for segment `n`.
pub fn segment_file_name(n: u64) -> String {
    format!("seg-{n:06}.hbseg")
}

/// Distinguishes concurrent tmp writers (two handlers may race the same
/// key after a lease re-issue; their frames are byte-identical but their
/// tmp files must not collide mid-write).
static TMP_SALT: AtomicU64 = AtomicU64::new(0);

fn write_durably(dir: &Path, final_name: &str, bytes: &[u8]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let salt = TMP_SALT.fetch_add(1, Ordering::Relaxed);
    let tmp_path = dir.join(format!(".tmp-{}-{salt}-{final_name}", std::process::id()));
    let mut f = fs::File::create(&tmp_path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    fs::rename(&tmp_path, dir.join(final_name))?;
    Ok(())
}

/// Durably write one sealed chunk frame under its key. The temp file is
/// flushed and synced before the rename, so after this returns the frame
/// survives a coordinator crash.
pub fn spool_write(dir: &Path, key: (u32, u32, u32), frame: &[u8]) -> std::io::Result<()> {
    write_durably(dir, &spool_file_name(key.0, key.1, key.2), frame)
}

/// One member entry of a segment manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentRecord {
    /// Crawl day of the member chunk.
    pub day: u32,
    /// Shard of the member chunk.
    pub shard: u32,
    /// Sequence of the member chunk.
    pub seq: u32,
    /// Byte length of the member's sealed frame.
    pub frame_len: u64,
}

/// The manifest frame at the head of a segment file: every member key
/// and frame length, in storage order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentManifest {
    /// Member entries, in the order their frames follow the manifest.
    pub records: Vec<SegmentRecord>,
}

/// Smallest on-wire footprint of one manifest record.
const RECORD_MIN: usize = 4 + 4 + 4 + 8;

impl SegmentManifest {
    /// Encode as a sealed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.len(self.records.len());
        for r in &self.records {
            w.u32(r.day);
            w.u32(r.shard);
            w.u32(r.seq);
            w.u64(r.frame_len);
        }
        seal_frame(&w.into_bytes())
    }

    /// Decode one sealed manifest frame (integrity first, structure
    /// second; member frame lengths are bounded so a corrupt-but-sealed
    /// manifest cannot steer the segment walker into huge reads).
    pub fn decode(frame: &[u8]) -> Result<SegmentManifest, WireError> {
        let payload = open_frame(frame)?;
        let mut r = WireReader::new(payload);
        let n = r.bounded_len(RECORD_MIN)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let rec = SegmentRecord {
                day: r.u32()?,
                shard: r.u32()?,
                seq: r.u32()?,
                frame_len: r.u64()?,
            };
            if rec.frame_len as usize > MAX_PAYLOAD + FRAME_OVERHEAD {
                return Err(WireError::Corrupt("oversized segment member"));
            }
            records.push(rec);
        }
        r.finish()?;
        Ok(SegmentManifest { records })
    }
}

/// What one compaction pass accomplished.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactReport {
    /// Segment files written.
    pub segments_written: u64,
    /// Loose chunk files folded into segments (and deleted).
    pub chunks_compacted: u64,
}

/// Fold the directory's loose chunk files into segment files of at most
/// `max_per_segment` members each. Loose files that fail verification
/// are left in place (replay keeps counting them as rejected); a crash
/// at any point loses nothing (see the module docs).
pub fn compact_spool(dir: &Path, max_per_segment: usize) -> std::io::Result<CompactReport> {
    let mut report = CompactReport::default();
    let mut loose: Vec<PathBuf> = Vec::new();
    let mut next_seg = 0u64;
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(err) => return Err(err),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name.starts_with("chunk-") && name.ends_with(".hbwf") {
            loose.push(entry.path());
        } else if let Some(n) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".hbseg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            next_seg = next_seg.max(n + 1);
        }
    }
    // Name order is key order (fixed-width key encoding), so segments
    // store chunks in replay order.
    loose.sort();
    for batch in loose.chunks(max_per_segment.max(1)) {
        let mut records = Vec::new();
        let mut members: Vec<(PathBuf, Vec<u8>)> = Vec::new();
        for path in batch {
            let bytes = fs::read(path)?;
            // Only checksum-verified frames enter a segment; a corrupt
            // loose file stays loose and keeps getting counted by replay.
            // Admission decoded the chunk before spooling it and replay
            // decodes every member, so the key is all that is read here.
            let Some((day, shard, seq)) = frame_key(&bytes) else {
                continue;
            };
            records.push(SegmentRecord {
                day,
                shard,
                seq,
                frame_len: bytes.len() as u64,
            });
            members.push((path.clone(), bytes));
        }
        if members.is_empty() {
            continue;
        }
        let manifest = SegmentManifest { records };
        let mut seg = manifest.encode();
        for (_, bytes) in &members {
            seg.extend_from_slice(bytes);
        }
        write_durably(dir, &segment_file_name(next_seg), &seg)?;
        next_seg += 1;
        report.segments_written += 1;
        for (path, _) in &members {
            // Failure here only leaves a harmless duplicate: the chunk
            // is already durable inside the renamed segment.
            let _ = fs::remove_file(path);
            report.chunks_compacted += 1;
        }
    }
    Ok(report)
}

/// The `(day, shard, seq)` key of a sealed chunk frame — the first 12
/// payload bytes — if the frame passes its integrity check.
fn frame_key(frame: &[u8]) -> Option<(u32, u32, u32)> {
    let mut r = WireReader::new(open_frame(frame).ok()?);
    Some((r.u32().ok()?, r.u32().ok()?, r.u32().ok()?))
}

/// Replay outcome of one spool directory.
pub struct SpoolReplay {
    /// Decoded chunks, deduped by key, sorted by `(day, shard, seq)`.
    pub chunks: Vec<VisitChunk>,
    /// Entries (loose files, segment manifests, segment members) that
    /// failed integrity or structural validation and were skipped (feeds
    /// the coordinator's `frames_rejected` counter).
    pub rejected: usize,
    /// Segment files walked.
    pub segments: usize,
}

/// Load every chunk in `dir` — segments first, then loose files —
/// verifying everything and deduping by key (a chunk present both loose
/// and in a segment replays once). A missing directory replays as empty.
pub fn spool_load(dir: &Path) -> std::io::Result<SpoolReplay> {
    let mut chunks: Vec<VisitChunk> = Vec::new();
    let mut seen: HashSet<(u32, u32, u32)> = HashSet::new();
    let mut rejected = 0usize;
    let mut segments = 0usize;
    let mut seg_paths: Vec<PathBuf> = Vec::new();
    let mut loose_paths: Vec<PathBuf> = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            return Ok(SpoolReplay {
                chunks,
                rejected,
                segments,
            })
        }
        Err(err) => return Err(err),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("seg-") && name.ends_with(".hbseg") {
            seg_paths.push(entry.path());
        } else if name.starts_with("chunk-") && name.ends_with(".hbwf") {
            if entry.metadata()?.len() as usize > MAX_PAYLOAD + FRAME_OVERHEAD {
                rejected += 1;
                continue;
            }
            loose_paths.push(entry.path());
        }
        // Anything else: leftover temp files from a crash mid-write, or
        // foreign files; ignore.
    }
    seg_paths.sort();
    for path in seg_paths {
        segments += 1;
        let bytes = fs::read(&path)?;
        rejected += replay_segment(&bytes, &mut seen, &mut chunks);
    }
    for path in loose_paths {
        let bytes = fs::read(&path)?;
        match VisitChunk::decode(&bytes) {
            Ok(chunk) if seen.insert(chunk.key()) => chunks.push(chunk),
            Ok(_) => {} // already replayed from a segment
            Err(_) => rejected += 1,
        }
    }
    chunks.sort_by_key(VisitChunk::key);
    Ok(SpoolReplay {
        chunks,
        rejected,
        segments,
    })
}

/// Walk one segment's bytes; returns how many entries were rejected.
fn replay_segment(
    bytes: &[u8],
    seen: &mut HashSet<(u32, u32, u32)>,
    chunks: &mut Vec<VisitChunk>,
) -> usize {
    // The manifest frame's own header bounds it; a corrupt manifest
    // rejects the whole segment (its lengths cannot be trusted).
    let Some(manifest_len) = frame_len_at(bytes, 0) else {
        return 1;
    };
    let Ok(manifest) = SegmentManifest::decode(&bytes[..manifest_len]) else {
        return 1;
    };
    let mut rejected = 0usize;
    let mut offset = manifest_len;
    for rec in &manifest.records {
        let end = offset + rec.frame_len as usize;
        if end > bytes.len() {
            // Truncated segment: this and every later member is gone.
            rejected += 1;
            break;
        }
        match VisitChunk::decode(&bytes[offset..end]) {
            Ok(chunk) if chunk.key() == (rec.day, rec.shard, rec.seq) => {
                if seen.insert(chunk.key()) {
                    chunks.push(chunk);
                }
            }
            // Key mismatch (a manifest lying about its member) or a
            // corrupt member frame: reject just this member — the
            // manifest's length still walks us past it.
            _ => rejected += 1,
        }
        offset = end;
    }
    rejected
}

/// Length of the sealed frame starting at `offset`, if its header is
/// intact and the length sane.
fn frame_len_at(bytes: &[u8], offset: usize) -> Option<usize> {
    let head = bytes.get(offset..offset + FRAME_HEADER)?;
    let payload = frame_payload_len(head).ok()?;
    if payload > MAX_PAYLOAD {
        return None;
    }
    let total = FRAME_HEADER + payload + 8;
    (offset + total <= bytes.len()).then_some(total)
}

/// The spool path a key lands at (tests and tooling).
pub fn spool_path(dir: &Path, key: (u32, u32, u32)) -> PathBuf {
    dir.join(spool_file_name(key.0, key.1, key.2))
}

/// The path of segment `n` (tests and tooling).
pub fn segment_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(segment_file_name(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_crawler::{run_campaign_streamed, CampaignConfig};
    use hb_ecosystem::{EcosystemConfig, SiteFactory};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hb-distd-spool-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Every chunk of a tiny campaign cut into `chunk_visits`-visit blocks.
    fn tiny_campaign(chunk_visits: usize) -> Vec<VisitChunk> {
        let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
        let cfg = CampaignConfig {
            chunk_visits,
            ..CampaignConfig::default()
        };
        let mut chunks = Vec::new();
        run_campaign_streamed(&eco, &cfg, &mut |c| chunks.push(c));
        chunks
    }

    fn tiny_chunks() -> Vec<VisitChunk> {
        tiny_campaign(64)
    }

    #[test]
    fn spool_round_trips_and_rejects_corruption() {
        let dir = tmp_dir("rt");
        let chunks = tiny_chunks();
        assert!(chunks.len() >= 2);
        for c in &chunks {
            spool_write(&dir, c.key(), &c.encode()).expect("spool write");
        }
        // Corrupt one file in place: flip a byte in the middle.
        let victim = spool_path(&dir, chunks[1].key());
        let mut bytes = fs::read(&victim).expect("read victim");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        fs::write(&victim, &bytes).expect("re-write victim");
        // And drop a stray temp file, which must be ignored.
        fs::write(dir.join(".tmp-chunk-d00000-s00000-q000009.hbwf"), b"junk").unwrap();

        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.rejected, 1, "the corrupt file is rejected");
        assert_eq!(replay.chunks.len(), chunks.len() - 1);
        let keys: Vec<_> = replay.chunks.iter().map(VisitChunk::key).collect();
        let mut want: Vec<_> = chunks
            .iter()
            .map(VisitChunk::key)
            .filter(|&k| k != chunks[1].key())
            .collect();
        want.sort_unstable();
        assert_eq!(
            keys, want,
            "replay is sorted and complete minus the corrupt file"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_spool_dir_replays_empty() {
        let dir = tmp_dir("missing");
        let replay = spool_load(&dir).expect("missing dir is fine");
        assert!(replay.chunks.is_empty());
        assert_eq!(replay.rejected, 0);
        assert_eq!(replay.segments, 0);
    }

    #[test]
    fn compaction_replays_identically_from_segments_alone() {
        let dir = tmp_dir("compact");
        let chunks = tiny_chunks();
        assert!(
            chunks.len() >= 3,
            "need several chunks to span multiple segments"
        );
        for c in &chunks {
            spool_write(&dir, c.key(), &c.encode()).expect("spool write");
        }
        let before = spool_load(&dir).expect("pre-compaction replay");
        let report = compact_spool(&dir, 2).expect("compact");
        assert_eq!(report.chunks_compacted as usize, chunks.len());
        assert_eq!(
            report.segments_written as usize,
            chunks.len().div_ceil(2),
            "two members per segment"
        );
        // Every loose file is gone; replay comes from segments alone.
        for c in &chunks {
            assert!(!spool_path(&dir, c.key()).exists());
        }
        let after = spool_load(&dir).expect("post-compaction replay");
        assert_eq!(after.segments as u64, report.segments_written);
        assert_eq!(after.rejected, 0);
        assert_eq!(
            before.chunks.len(),
            after.chunks.len(),
            "compaction must not lose chunks"
        );
        for (a, b) in before.chunks.iter().zip(&after.chunks) {
            assert_eq!(a.encode(), b.encode(), "byte-identical replay");
        }
        // A second pass over an already-compacted dir is a no-op.
        let again = compact_spool(&dir, 2).expect("idempotent compact");
        assert_eq!(again.segments_written, 0);
        assert_eq!(again.chunks_compacted, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The acceptance-scale case: a spool of at least a hundred chunks
    /// compacts into `O(n / max_per_segment)` segment files, and a
    /// restart replaying from the segments alone reproduces every chunk
    /// byte-for-byte in key order.
    #[test]
    fn hundred_chunk_spool_compacts_and_restarts_byte_identical() {
        let dir = tmp_dir("hundred");
        let chunks = tiny_campaign(2);
        assert!(
            chunks.len() >= 100,
            "need an acceptance-scale spool, got {} chunks",
            chunks.len()
        );
        for c in &chunks {
            spool_write(&dir, c.key(), &c.encode()).expect("spool write");
        }
        let report = compact_spool(&dir, 16).expect("compact");
        assert_eq!(report.chunks_compacted as usize, chunks.len());
        assert_eq!(
            report.segments_written as usize,
            chunks.len().div_ceil(16),
            "sixteen members per segment"
        );
        for c in &chunks {
            assert!(!spool_path(&dir, c.key()).exists(), "loose files all gone");
        }
        let after = spool_load(&dir).expect("restart replay");
        assert_eq!(after.rejected, 0);
        assert_eq!(after.segments as u64, report.segments_written);
        let mut want: Vec<&VisitChunk> = chunks.iter().collect();
        want.sort_by_key(|c| c.key());
        assert_eq!(after.chunks.len(), want.len());
        for (a, b) in after.chunks.iter().zip(&want) {
            assert_eq!(a.encode(), b.encode(), "byte-identical after restart");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_compaction_leaves_a_dedupable_spool() {
        let dir = tmp_dir("interrupt");
        let chunks = tiny_chunks();
        for c in &chunks {
            spool_write(&dir, c.key(), &c.encode()).expect("spool write");
        }
        compact_spool(&dir, usize::MAX).expect("compact");
        // Simulate the crash window between rename and member deletion:
        // re-write two chunks loose, so they exist in both forms.
        for c in chunks.iter().take(2) {
            spool_write(&dir, c.key(), &c.encode()).expect("re-spool");
        }
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.chunks.len(), chunks.len(), "deduped by key");
        assert_eq!(replay.rejected, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_member_rejects_only_itself() {
        let dir = tmp_dir("segcorrupt");
        let chunks = tiny_chunks();
        assert!(chunks.len() >= 3);
        for c in &chunks {
            spool_write(&dir, c.key(), &c.encode()).expect("spool write");
        }
        compact_spool(&dir, usize::MAX).expect("compact");
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).expect("segment bytes");
        // Flip a bit inside the *last* member's frame, far from the
        // manifest: only that member must be rejected.
        let len = bytes.len();
        bytes[len - 9] ^= 0x10;
        fs::write(&seg, &bytes).expect("re-write segment");
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.rejected, 1);
        assert_eq!(replay.chunks.len(), chunks.len() - 1);
        // A corrupt manifest, in contrast, rejects the whole segment.
        let mut bytes = fs::read(&seg).expect("segment bytes");
        bytes[FRAME_HEADER + 2] ^= 0x01;
        fs::write(&seg, &bytes).expect("re-write segment");
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.rejected, 1, "whole segment counts once");
        assert!(replay.chunks.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Compaction reads only each frame's key: every manifest record must
    /// still name its member's decoded key, and a loose file whose
    /// checksum fails — here one flipped bit in the key bytes themselves —
    /// must stay loose and be counted by replay.
    #[test]
    fn manifests_name_their_members_and_corrupt_loose_files_stay_loose() {
        let dir = tmp_dir("keys");
        let chunks = tiny_chunks();
        assert!(chunks.len() >= 3);
        for c in &chunks {
            spool_write(&dir, c.key(), &c.encode()).expect("spool write");
        }
        let victim = spool_path(&dir, chunks[1].key());
        let mut bytes = fs::read(&victim).expect("read victim");
        bytes[FRAME_HEADER + 4] ^= 0x01; // the shard word of the key
        fs::write(&victim, &bytes).expect("re-write victim");

        let report = compact_spool(&dir, 2).expect("compact");
        assert_eq!(report.chunks_compacted as usize, chunks.len() - 1);
        assert!(victim.exists(), "the corrupt file stays loose");
        let mut members = 0;
        for n in 0..report.segments_written {
            let seg = fs::read(segment_path(&dir, n)).expect("segment bytes");
            let manifest_len = frame_len_at(&seg, 0).expect("manifest frame");
            let manifest = SegmentManifest::decode(&seg[..manifest_len]).expect("manifest");
            let mut offset = manifest_len;
            for rec in &manifest.records {
                let end = offset + rec.frame_len as usize;
                let chunk = VisitChunk::decode(&seg[offset..end]).expect("member decodes");
                assert_eq!(chunk.key(), (rec.day, rec.shard, rec.seq));
                assert_ne!(chunk.key(), chunks[1].key(), "corrupt key in a segment");
                offset = end;
                members += 1;
            }
            assert_eq!(offset, seg.len(), "members fill the segment exactly");
        }
        assert_eq!(members, chunks.len() - 1);

        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.rejected, 1, "replay counts the corrupt loose file");
        assert_eq!(replay.chunks.len(), chunks.len() - 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_with_corruption_detection() {
        let manifest = SegmentManifest {
            records: vec![
                SegmentRecord {
                    day: 0,
                    shard: 1,
                    seq: 2,
                    frame_len: 1234,
                },
                SegmentRecord {
                    day: 3,
                    shard: 0,
                    seq: 9,
                    frame_len: 77,
                },
            ],
        };
        let frame = manifest.encode();
        assert_eq!(SegmentManifest::decode(&frame).expect("round trip"), manifest);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x20;
            assert!(
                SegmentManifest::decode(&bad).is_err(),
                "one corrupt byte at {i} must be detected"
            );
        }
        assert!(
            SegmentManifest::decode(&frame[..frame.len() - 3]).is_err(),
            "truncation must be detected"
        );
    }
}

//! Crash-safe chunk spool: the coordinator's durability layer.
//!
//! The spool is one append-only log of sealed chunk frames — the bytes
//! `VisitChunk::encode` produces, stored back to back with nothing in
//! between — cut into files `log-{n:06}.hbwf`. Every accepted chunk is
//! appended and synced *before* the submitting worker is acked.
//!
//! ## Group commit
//!
//! One writer thread owns the open file. A connection handler sends its
//! frame with a reply channel and waits. The writer blocks for one
//! request, drains every other queued one, writes them all, calls
//! `sync_data` once and answers each; whatever queued during that sync
//! is the next batch. A write or sync error fails the whole batch (no
//! ack, the blocks stay leasable) and closes the file, so the next batch
//! starts a new one and a torn or unsynced tail can only ever be the end
//! of its own file.
//!
//! A file holds at most the roll size's worth of frames (0: no limit).
//! A restarted writer never appends to an old file: it starts a new one
//! numbered after the highest in the directory. After creating a file it
//! fsyncs the directory, so the new name survives an OS crash as well as
//! a killed process.
//!
//! ## Replay
//!
//! [`spool_load`] walks the files in number order and the frames of each
//! file in order, reading one frame at a time. The first frame that fails
//! its length check or `VisitChunk::decode` counts as one rejection and
//! ends its file; later files still replay. Blocks past the cut are
//! simply leased again, which is always safe because visits are pure.

use crate::proto::MAX_PAYLOAD;
use hb_core::{frame_payload_len, FRAME_HEADER, FRAME_OVERHEAD};
use hb_crawler::VisitChunk;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Sender, SyncSender};
use std::thread::{Scope, ScopedJoinHandle};

/// File name of log file `n`.
fn log_file_name(n: u64) -> String {
    format!("log-{n:06}.hbwf")
}

/// The log files in `dir`, in number order. A missing directory has none.
fn log_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err),
    };
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        // Anything else in the directory is foreign; ignore it.
        if let Some(n) = name
            .to_str()
            .and_then(|s| s.strip_prefix("log-"))
            .and_then(|s| s.strip_suffix(".hbwf"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            files.push((n, entry.path()));
        }
    }
    files.sort_unstable();
    Ok(files)
}

/// One append request: a sealed frame and where to answer once the batch
/// holding it is synced (or failed).
type Append = (Vec<u8>, SyncSender<Result<(), io::ErrorKind>>);

/// A connection handler's handle on the log writer.
#[derive(Clone)]
pub(crate) struct LogAppender(Sender<Append>);

impl LogAppender {
    /// Append one sealed frame; returns once the batch holding it is
    /// durable.
    pub(crate) fn append(&self, frame: Vec<u8>) -> io::Result<()> {
        let gone = || io::Error::other("spool writer gone");
        let (done, outcome) = mpsc::sync_channel(1);
        self.0.send((frame, done)).map_err(|_| gone())?;
        outcome.recv().map_err(|_| gone())?.map_err(io::Error::from)
    }
}

/// The log's one writer: owns the open file.
pub(crate) struct SpoolLog {
    dir: PathBuf,
    /// Frames per file before rolling to the next (0: never roll).
    roll_every: usize,
    /// Number of the next file to create.
    next: u64,
    /// The open file and how many frames it holds; `None` after a failed
    /// batch, so the next batch starts a new file.
    file: Option<(File, usize)>,
    /// Log files created.
    pub(crate) files_created: u64,
    /// Frames appended and synced.
    pub(crate) frames_appended: u64,
}

impl SpoolLog {
    /// Open the log on `dir`: create its first file, numbered after the
    /// highest one already there.
    pub(crate) fn create(dir: &Path, roll_every: usize) -> io::Result<SpoolLog> {
        fs::create_dir_all(dir)?;
        let next = log_files(dir)?.last().map_or(0, |&(n, _)| n + 1);
        let mut log = SpoolLog {
            dir: dir.to_path_buf(),
            roll_every,
            next,
            file: None,
            files_created: 0,
            frames_appended: 0,
        };
        log.file = Some((log.start_file()?, 0));
        Ok(log)
    }

    /// Create the next file, then fsync the directory so its name is as
    /// durable as the frames about to be synced into it.
    fn start_file(&mut self) -> io::Result<File> {
        let path = self.dir.join(log_file_name(self.next));
        self.next += 1;
        let file = OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(path)?;
        File::open(&self.dir)?.sync_all()?;
        self.files_created += 1;
        Ok(file)
    }

    /// Write a batch and sync it: once per file it touched.
    fn write_batch(&mut self, batch: &[Append]) -> io::Result<()> {
        // Taken for the batch: an error leaves no file open.
        let mut open = self.file.take();
        for (frame, _) in batch {
            let full = open
                .as_ref()
                .is_none_or(|&(_, n)| self.roll_every > 0 && n >= self.roll_every);
            if full {
                if let Some((file, _)) = &open {
                    file.sync_data()?;
                }
                open = Some((self.start_file()?, 0));
            }
            let (file, n) = open.as_mut().expect("opened above");
            file.write_all(frame)?;
            *n += 1;
        }
        if let Some((file, _)) = &open {
            file.sync_data()?;
        }
        self.file = open;
        self.frames_appended += batch.len() as u64;
        Ok(())
    }

    /// Run the writer on its own thread in `scope` until every appender
    /// is dropped; the thread hands the log back for its counters.
    pub(crate) fn spawn<'scope>(
        mut self,
        scope: &'scope Scope<'scope, '_>,
    ) -> (LogAppender, ScopedJoinHandle<'scope, SpoolLog>) {
        let (tx, rx) = mpsc::channel::<Append>();
        let writer = scope.spawn(move || {
            let mut batch = Vec::new();
            while let Ok(first) = rx.recv() {
                batch.push(first);
                batch.extend(rx.try_iter());
                let outcome = self.write_batch(&batch).map_err(|e| e.kind());
                for (_, done) in batch.drain(..) {
                    let _ = done.send(outcome);
                }
            }
            self
        });
        (LogAppender(tx), writer)
    }
}

/// Replay outcome of one spool directory.
pub struct SpoolReplay {
    /// Decoded chunks, sorted by `(day, seq)`.
    pub chunks: Vec<VisitChunk>,
    /// Log files that ended in a frame failing its length check or
    /// decode (feeds the coordinator's `frames_rejected` counter).
    pub rejected: usize,
    /// Log files walked.
    pub files: usize,
}

/// Load every chunk in `dir`'s log, verifying every frame (see the module
/// docs for the prefix rule). A missing directory replays as empty.
pub fn spool_load(dir: &Path) -> io::Result<SpoolReplay> {
    let mut replay = SpoolReplay {
        chunks: Vec::new(),
        rejected: 0,
        files: 0,
    };
    for (_, path) in log_files(dir)? {
        replay.files += 1;
        if !replay_file(&path, &mut replay.chunks)? {
            replay.rejected += 1;
        }
    }
    replay.chunks.sort_by_key(VisitChunk::key);
    Ok(replay)
}

/// Replay one log file frame by frame; false if a bad frame ended it.
fn replay_file(path: &Path, chunks: &mut Vec<VisitChunk>) -> io::Result<bool> {
    let file = File::open(path)?;
    // Only what the file held when opened: a frame still being appended
    // is a torn tail, not a reason to wait.
    let mut left = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut frame = Vec::new();
    while left > 0 {
        if left < FRAME_HEADER as u64 {
            return Ok(false);
        }
        frame.resize(FRAME_HEADER, 0);
        reader.read_exact(&mut frame)?;
        let Some(len) = frame_len(&frame, left) else {
            return Ok(false);
        };
        frame.resize(len, 0);
        reader.read_exact(&mut frame[FRAME_HEADER..])?;
        left -= len as u64;
        match VisitChunk::decode(&frame) {
            Ok(chunk) => chunks.push(chunk),
            Err(_) => return Ok(false),
        }
    }
    Ok(true)
}

/// Length of the sealed frame whose header is `head`, if the header is
/// intact, the length sane and the frame within the `left` bytes.
fn frame_len(head: &[u8], left: u64) -> Option<usize> {
    let payload = frame_payload_len(head).ok()?;
    if payload > MAX_PAYLOAD {
        return None;
    }
    let total = payload + FRAME_OVERHEAD;
    (total as u64 <= left).then_some(total)
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

    /// Append `chunks` through a writer on `dir`, one at a time; returns
    /// the writer's log for its counters.
    fn write_log(dir: &Path, roll_every: usize, chunks: &[VisitChunk]) -> SpoolLog {
        std::thread::scope(|s| {
            let (appender, writer) = SpoolLog::create(dir, roll_every)
                .expect("create log")
                .spawn(s);
            for c in chunks {
                appender.append(c.encode()).expect("append");
            }
            drop(appender);
            writer.join().expect("writer")
        })
    }

    fn keys(chunks: &[VisitChunk]) -> Vec<(u32, u32)> {
        let mut keys: Vec<_> = chunks.iter().map(VisitChunk::key).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn spool_round_trips_and_rejects_corruption() {
        let dir = tmp_dir("rt");
        let chunks = tiny_campaign(64);
        assert!(chunks.len() >= 3);
        // One frame per file: a corrupt file costs exactly its frame.
        let log = write_log(&dir, 1, &chunks);
        assert_eq!(log.files_created as usize, chunks.len());
        let victim = dir.join(log_file_name(1));
        let mut bytes = fs::read(&victim).expect("read victim");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        fs::write(&victim, &bytes).expect("re-write victim");
        // A foreign file is ignored.
        fs::write(dir.join("chunk-d00000-s00000-q000009.hbwf"), b"junk").unwrap();

        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.rejected, 1, "the corrupt file is rejected");
        assert_eq!(replay.files, chunks.len());
        let mut want = chunks.clone();
        want.remove(1);
        assert_eq!(
            keys(&replay.chunks),
            keys(&want),
            "replay is complete minus the corrupt frame"
        );
        for (a, b) in replay.chunks.iter().zip(&want) {
            assert_eq!(a.encode(), b.encode(), "byte-identical replay");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_spool_dir_replays_empty() {
        let dir = tmp_dir("missing");
        let replay = spool_load(&dir).expect("missing dir is fine");
        assert!(replay.chunks.is_empty());
        assert_eq!(replay.rejected, 0);
        assert_eq!(replay.files, 0);
    }

    /// The naive model of the log: it is the frames, back to back, and
    /// replay after any cut or single bit flip inside the last two frames
    /// returns exactly the frames before the damage. A later file after
    /// a torn one still replays in full.
    #[test]
    fn log_replay_is_exactly_the_fully_written_prefix() {
        let dir = tmp_dir("model");
        let campaign = tiny_campaign(2);
        let (chunks, later) = (&campaign[..5], &campaign[5..8]);
        let frames: Vec<Vec<u8>> = chunks.iter().map(VisitChunk::encode).collect();
        write_log(&dir, 0, chunks);
        let path = dir.join(log_file_name(0));
        let log = fs::read(&path).expect("log bytes");
        assert_eq!(log, frames.concat(), "the log is the frames, back to back");

        // ends[i]: offset just past frame i.
        let ends: Vec<usize> = frames
            .iter()
            .scan(0, |end, f| {
                *end += f.len();
                Some(*end)
            })
            .collect();
        let n = frames.len();
        for offset in ends[n - 3]..log.len() {
            // The frames wholly before `offset`.
            let before = ends.iter().filter(|&&e| e <= offset).count();

            // Cut at `offset`: a cut inside a frame counts once.
            fs::write(&path, &log[..offset]).expect("truncate");
            let replay = spool_load(&dir).expect("replay");
            assert_eq!(
                keys(&replay.chunks),
                keys(&chunks[..before]),
                "cut at {offset}"
            );
            let torn = usize::from(!ends.contains(&offset));
            assert_eq!(replay.rejected, torn, "cut at {offset}");

            // Flip one bit at `offset`: the damaged frame and everything
            // after it are gone, and the damage counts once.
            let mut flipped = log.clone();
            flipped[offset] ^= 1 << (offset % 8);
            fs::write(&path, &flipped).expect("flip");
            let replay = spool_load(&dir).expect("replay");
            assert_eq!(
                keys(&replay.chunks),
                keys(&chunks[..before]),
                "bit flip at {offset}"
            );
            assert_eq!(replay.rejected, 1, "bit flip at {offset}");
        }

        // A torn file followed by a later, whole one.
        fs::write(&path, &log[..log.len() - 1]).expect("tear the last frame");
        write_log(&dir, 0, later);
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.files, 2);
        assert_eq!(replay.rejected, 1);
        let want = [&chunks[..n - 1], later].concat();
        assert_eq!(
            keys(&replay.chunks),
            keys(&want),
            "the later file replays in full"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Group commit under concurrent appends over a campaign of at least
    /// a hundred chunks, then a restart over a junk tail: every acked
    /// frame from both runs replays byte-for-byte.
    #[test]
    fn log_group_commit_survives_restart_byte_identical() {
        let dir = tmp_dir("group");
        let chunks = tiny_campaign(2);
        assert!(chunks.len() >= 100, "got {} chunks", chunks.len());
        let (first, second) = chunks.split_at(chunks.len() / 2);

        // Four threads append concurrently through one writer; every
        // append that returned Ok replays exactly once.
        let acked: Vec<VisitChunk> = std::thread::scope(|s| {
            let (appender, writer) = SpoolLog::create(&dir, 0).expect("create log").spawn(s);
            let threads: Vec<_> = first
                .chunks(first.len().div_ceil(4))
                .map(|share| {
                    let appender = appender.clone();
                    s.spawn(move || {
                        share
                            .iter()
                            .filter(|c| appender.append(c.encode()).is_ok())
                            .cloned()
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            drop(appender);
            let acked = threads
                .into_iter()
                .flat_map(|t| t.join().expect("appender thread"))
                .collect();
            let log = writer.join().expect("writer");
            assert_eq!(log.files_created, 1);
            assert_eq!(log.frames_appended as usize, first.len());
            acked
        });
        assert_eq!(acked.len(), first.len(), "every append was acked");
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(keys(&replay.chunks), keys(&acked), "each acked frame once");
        assert_eq!(replay.rejected, 0);

        // Junk on the newest file, then a restarted writer: it opens a new
        // file, and every acked frame from both runs replays.
        let newest = dir.join(log_file_name(0));
        let mut f = OpenOptions::new().append(true).open(&newest).expect("open");
        f.write_all(b"HBWF\x01junk").expect("junk");
        let log = write_log(&dir, 0, second);
        assert_eq!(log.files_created, 1);
        assert!(dir.join(log_file_name(1)).exists(), "restart starts log 1");
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.files, 2);
        assert_eq!(replay.rejected, 1, "the junk tail counts once");
        assert_eq!(keys(&replay.chunks), keys(&chunks));
        for (a, b) in replay.chunks.iter().zip(&chunks) {
            assert_eq!(a.encode(), b.encode(), "byte-identical after restart");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The roll rule: roll size 4 gives ceil(chunks / 4) files, and
    /// replay from those files alone is byte-identical to what was written.
    #[test]
    fn log_rolls_and_replays_identically_from_its_files() {
        let dir = tmp_dir("roll");
        let chunks = tiny_campaign(2);
        assert!(
            chunks.len() > 8,
            "need several files, got {} chunks",
            chunks.len()
        );
        let log = write_log(&dir, 4, &chunks);
        assert_eq!(log.files_created as usize, chunks.len().div_ceil(4));
        assert_eq!(log.frames_appended as usize, chunks.len());
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.files, chunks.len().div_ceil(4));
        assert_eq!(replay.rejected, 0);
        assert_eq!(keys(&replay.chunks), keys(&chunks));
        for (a, b) in replay.chunks.iter().zip(&chunks) {
            assert_eq!(a.encode(), b.encode(), "byte-identical replay");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

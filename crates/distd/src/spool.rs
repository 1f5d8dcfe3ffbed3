//! Crash-safe chunk spool: the coordinator's durability layer.
//!
//! The spool is one append-only log of sealed chunk frames — the bytes
//! `VisitChunk::encode` produces, stored back to back with nothing in
//! between — cut into files `log-{n:06}.hbwf`. Every accepted chunk is
//! appended and synced *before* the submitting worker is acked.
//!
//! ## Group commit
//!
//! Leader/follower, on the submitting handlers' own threads: there is no
//! writer thread. A connection handler queues its frames (a submitted
//! lease's fresh chunks, next to each other) under the log's one mutex
//! and takes the batch number as its ticket. If no sync is running, it
//! leads: it takes every queued frame, writes them all and calls
//! `sync_data` once with the mutex released, then settles the batch and
//! wakes the rest. Otherwise it waits on a condvar for the sync that
//! covers its ticket; whatever queued during a sync is the next batch,
//! led by the first of its appenders to wake. A write or sync error fails
//! the whole batch (no ack, the blocks stay leasable) and closes the file,
//! so the next batch starts a new one and a torn or unsynced tail can only
//! ever be the end of its own file. A leader that unwinds fails its batch
//! too and hands the log back, so no follower waits forever; an unwind
//! inside the write closes the file like an error.
//!
//! A file holds at most the roll size's worth of frames (0: no limit).
//! A restarted log never appends to an old file: it starts a new one
//! numbered after the highest in the directory. After creating a file it
//! fsyncs the directory, so the new name survives an OS crash as well as
//! a killed process.
//!
//! ## Zeros ahead of the frames
//!
//! An open file is its frames followed by zeros: when a frame would run
//! past the zeros, the leader first writes zeros out to the next MiB
//! (`EXTEND_STEP`) and syncs them. That one extension sync makes the
//! file's length and its blocks durable, so the frames then written over
//! the zeros need a data-only `sync_data`, not a filesystem journal
//! commit. A file is closed when it is full and when the log finishes;
//! closing cuts the zeros off, so a closed file is exactly its frames.
//! Only a file whose coordinator died, or whose batch failed, keeps a
//! tail of zeros.
//!
//! ## Replay
//!
//! [`spool_load`] walks the files in number order and the frames of each
//! file in order, reading one frame at a time. Zeros from a frame
//! boundary to the end of the file end it cleanly. Otherwise the first
//! frame that fails its length check or `VisitChunk::decode` counts as
//! one rejection and ends its file; later files still replay. Blocks past
//! the cut are simply leased again, which is always safe because visits
//! are pure.

use crate::proto::MAX_PAYLOAD;
use hb_core::{frame_payload_len, FRAME_HEADER, FRAME_OVERHEAD};
use hb_crawler::VisitChunk;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// An open file's zeros run out to a multiple of this many bytes.
const EXTEND_STEP: u64 = 1 << 20;

/// The zeros an extension writes, a slice at a time, and that replay
/// compares a file's tail against.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

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

/// The file frames are going into.
struct OpenFile {
    file: File,
    /// Frames it holds.
    frames: usize,
    /// Bytes of frames it holds: where the next frame goes.
    written: u64,
    /// Its length: zeros from `written` to here.
    zeroed: u64,
}

impl OpenFile {
    /// Write zeros from the end of the file out to the first multiple of
    /// [`EXTEND_STEP`] at or past `end`, and sync them: the new length and
    /// blocks are durable before any frame is written over them.
    fn extend(&mut self, end: u64) -> io::Result<()> {
        let to = end.next_multiple_of(EXTEND_STEP);
        self.file.seek(SeekFrom::Start(self.zeroed))?;
        let mut left = to - self.zeroed;
        while left > 0 {
            let n = left.min(ZEROS.len() as u64) as usize;
            self.file.write_all(&ZEROS[..n])?;
            left -= n as u64;
        }
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(self.written))?;
        self.zeroed = to;
        Ok(())
    }

    /// Cut the zeros off, leaving the file exactly its frames.
    fn trim(&self) -> io::Result<()> {
        self.file.set_len(self.written)
    }
}

/// The log file and its counters. Between batches it is parked in
/// [`SpoolLog`]; while a batch is written and synced it belongs to the
/// appender leading that batch.
struct LogFile {
    dir: PathBuf,
    /// Frames per file before rolling to the next (0: never roll).
    roll_every: usize,
    /// Number of the next file to create.
    next: u64,
    /// The open file; `None` once a file is full or after a failed
    /// batch, so the next frame starts a new file.
    open: Option<OpenFile>,
    counts: LogCounts,
}

impl LogFile {
    /// Create the next file, then fsync the directory so its name is as
    /// durable as the frames about to be synced into it.
    fn start_file(&mut self) -> io::Result<OpenFile> {
        let path = self.dir.join(log_file_name(self.next));
        self.next += 1;
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        File::open(&self.dir)?.sync_all()?;
        self.counts.files_created += 1;
        Ok(OpenFile {
            file,
            frames: 0,
            written: 0,
            zeroed: 0,
        })
    }

    /// Write a batch and sync it: once per file it touched, plus once
    /// per extension.
    fn write_batch(&mut self, batch: &[Vec<u8>]) -> io::Result<()> {
        // Taken for the batch: an error, or an unwind, leaves no file open.
        let mut open = self.open.take();
        for frame in batch {
            let mut o = match open.take() {
                Some(o) => o,
                None => self.start_file()?,
            };
            let end = o.written + frame.len() as u64;
            if end > o.zeroed {
                o.extend(end)?;
                self.counts.extension_syncs += 1;
            }
            o.file.write_all(frame)?;
            o.written = end;
            o.frames += 1;
            if self.roll_every > 0 && o.frames >= self.roll_every {
                // Full: close it, so the next frame starts the next file.
                o.file.sync_data()?;
                self.counts.frame_syncs += 1;
                o.trim()?;
            } else {
                open = Some(o);
            }
        }
        if let Some(o) = &open {
            o.file.sync_data()?;
            self.counts.frame_syncs += 1;
        }
        self.open = open;
        self.counts.frames_appended += batch.len() as u64;
        Ok(())
    }
}

/// What the appenders share under the log's one mutex.
struct Queue {
    /// Frames waiting for the next batch.
    frames: Vec<Vec<u8>>,
    /// Appenders whose frames are in `frames`.
    appenders: usize,
    /// Number of the batch `frames` will become: the ticket of every
    /// appender queued now.
    batch: u64,
    /// Every batch numbered below this has been synced or has failed.
    settled: u64,
    /// The log file; `None` while a leader writes and syncs a batch.
    file: Option<LogFile>,
    /// Failed batches whose followers have not all been told: the
    /// batch, its error, and how many followers are still to read it.
    failed: Vec<(u64, io::ErrorKind, usize)>,
}

impl Queue {
    /// The outcome of settled batch `ticket` for one of its followers.
    fn outcome(&mut self, ticket: u64) -> io::Result<()> {
        let Some(i) = self.failed.iter().position(|f| f.0 == ticket) else {
            return Ok(());
        };
        let (_, kind, left) = &mut self.failed[i];
        let kind = *kind;
        *left -= 1;
        if *left == 0 {
            self.failed.swap_remove(i);
        }
        Err(kind.into())
    }
}

/// The spool log, appended to by every connection handler.
pub(crate) struct SpoolLog {
    queue: Mutex<Queue>,
    /// Signaled whenever a batch settles.
    synced: Condvar,
}

/// A closed log's counters.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LogCounts {
    /// Log files created.
    pub(crate) files_created: u64,
    /// Frames appended and synced.
    pub(crate) frames_appended: u64,
    /// `sync_data` calls that made frames durable: one per batch per
    /// file it touched.
    pub(crate) frame_syncs: u64,
    /// `sync_data` calls that made a file's new zeros durable.
    pub(crate) extension_syncs: u64,
}

impl SpoolLog {
    /// Open the log on `dir`: create its first file, numbered after the
    /// highest one already there.
    pub(crate) fn create(dir: &Path, roll_every: usize) -> io::Result<SpoolLog> {
        fs::create_dir_all(dir)?;
        let next = log_files(dir)?.last().map_or(0, |&(n, _)| n + 1);
        let mut file = LogFile {
            dir: dir.to_path_buf(),
            roll_every,
            next,
            open: None,
            counts: LogCounts::default(),
        };
        file.open = Some(file.start_file()?);
        Ok(SpoolLog {
            queue: Mutex::new(Queue {
                frames: Vec::new(),
                appenders: 0,
                batch: 0,
                settled: 0,
                file: Some(file),
                failed: Vec::new(),
            }),
            synced: Condvar::new(),
        })
    }

    /// Lock the queue. Nothing panics while holding it (the write and
    /// sync run unlocked, under [`Lead`]), so a poisoned lock still
    /// guards a consistent queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append sealed frames, next to each other in the log; returns once
    /// the batch holding them is durable. The first appender to find no
    /// sync running leads: it writes and syncs every queued frame on its
    /// own thread. The others wait for the sync that covers their ticket.
    pub(crate) fn append(&self, frames: Vec<Vec<u8>>) -> io::Result<()> {
        let mut q = self.lock();
        let ticket = q.batch;
        q.frames.extend(frames);
        q.appenders += 1;
        loop {
            if q.settled > ticket {
                return q.outcome(ticket);
            }
            if let Some(file) = q.file.take() {
                // Batches settle in order and the file is parked only
                // between them, so the queued batch is this ticket's.
                debug_assert_eq!(q.settled, ticket);
                let frames = std::mem::take(&mut q.frames);
                let followers = std::mem::take(&mut q.appenders) - 1;
                q.batch += 1;
                drop(q);
                let mut lead = Lead {
                    log: self,
                    file: None,
                    ticket,
                    followers,
                    outcome: None,
                };
                let outcome = lead
                    .file
                    .insert(file)
                    .write_batch(&frames)
                    .map_err(|e| e.kind());
                lead.outcome = Some(outcome);
                drop(lead);
                return outcome.map_err(io::Error::from);
            }
            q = self.synced.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the log, cutting the zeros off its open file, and return
    /// its counters. Call once every appender has returned.
    pub(crate) fn finish(self) -> LogCounts {
        let q = self
            .queue
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        q.file.map_or(LogCounts::default(), |f| {
            if let Some(o) = &f.open {
                // A file left long replays the same: its tail is zeros.
                let _ = o.trim();
            }
            f.counts
        })
    }
}

/// A leader's hold on the log file while it writes and syncs one batch
/// unlocked. Dropping it parks the file, settles the batch and wakes the
/// followers. A leader that unwinds before recording an outcome fails its
/// batch, so no follower waits forever; if it unwound inside
/// `write_batch`, that closed the file, so the next batch starts a new
/// one.
struct Lead<'a> {
    log: &'a SpoolLog,
    file: Option<LogFile>,
    ticket: u64,
    /// Appenders waiting on this batch besides the leader.
    followers: usize,
    outcome: Option<Result<(), io::ErrorKind>>,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.unwrap_or(Err(io::ErrorKind::Other));
        let mut q = self.log.lock();
        q.file = self.file.take();
        q.settled = self.ticket + 1;
        if let Err(kind) = outcome {
            if self.followers > 0 {
                q.failed.push((self.ticket, kind, self.followers));
            }
        }
        drop(q);
        self.log.synced.notify_all();
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
        let head = left.min(FRAME_HEADER as u64) as usize;
        frame.resize(head, 0);
        reader.read_exact(&mut frame)?;
        let Some(len) = frame_len(&frame, left) else {
            // Not a frame: the zeros an open file keeps ahead of its
            // frames end it cleanly; anything else is damage.
            return zero_tail(&frame, &mut reader, left - head as u64);
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

/// Whether `head` and the `left` bytes after it in `reader` are all zeros.
fn zero_tail(head: &[u8], reader: &mut impl BufRead, mut left: u64) -> io::Result<bool> {
    if head.iter().any(|&b| b != 0) {
        return Ok(false);
    }
    while left > 0 {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // Cut off under us by the close of a live file: zeros too.
            break;
        }
        let n = (buf.len().min(ZEROS.len()) as u64).min(left) as usize;
        if buf[..n] != ZEROS[..n] {
            return Ok(false);
        }
        reader.consume(n);
        left -= n as u64;
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

    /// Append `chunks` to a log on `dir`, one at a time; returns the
    /// log's counters.
    fn write_log(dir: &Path, roll_every: usize, chunks: &[VisitChunk]) -> LogCounts {
        let log = SpoolLog::create(dir, roll_every).expect("create log");
        for c in chunks {
            log.append(vec![c.encode()]).expect("append");
        }
        log.finish()
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
    /// returns exactly the frames before the damage. A cut padded with
    /// zeros out to the open file's length, as a killed coordinator
    /// leaves it, replays the same, and only a cut inside a frame counts.
    /// A later file after a torn one still replays in full.
    #[test]
    fn log_replay_is_exactly_the_fully_written_prefix() {
        let dir = tmp_dir("model");
        let campaign = tiny_campaign(2);
        let (chunks, later) = (&campaign[..5], &campaign[5..8]);
        let frames: Vec<Vec<u8>> = chunks.iter().map(VisitChunk::encode).collect();
        let path = dir.join(log_file_name(0));
        let spool = SpoolLog::create(&dir, 0).expect("create log");
        for f in &frames {
            spool.append(vec![f.clone()]).expect("append");
        }
        let open_len = fs::metadata(&path).expect("open log").len();
        spool.finish();
        let log = fs::read(&path).expect("log bytes");
        assert_eq!(log, frames.concat(), "the log is the frames, back to back");
        assert!(open_len > log.len() as u64, "the open log ran ahead");

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

            // The same cut with zeros out to the open length.
            File::create(&path)
                .and_then(|mut f| {
                    f.write_all(&log[..offset])?;
                    f.set_len(open_len)
                })
                .expect("pad with zeros");
            let replay = spool_load(&dir).expect("replay");
            assert_eq!(
                keys(&replay.chunks),
                keys(&chunks[..before]),
                "padded cut at {offset}"
            );
            assert_eq!(replay.rejected, torn, "padded cut at {offset}");

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

        // Four threads append concurrently to one log; every append that
        // returned Ok replays exactly once.
        let log = SpoolLog::create(&dir, 0).expect("create log");
        let acked: Vec<VisitChunk> = std::thread::scope(|s| {
            let threads: Vec<_> = first
                .chunks(first.len().div_ceil(4))
                .map(|share| {
                    let log = &log;
                    s.spawn(move || {
                        share
                            .iter()
                            .filter(|c| log.append(vec![c.encode()]).is_ok())
                            .cloned()
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("appender thread"))
                .collect()
        });
        let log = log.finish();
        assert_eq!(log.files_created, 1);
        assert_eq!(log.frames_appended as usize, first.len());
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

    /// Four concurrent appenders: whatever `append` returned `Ok` for is
    /// already in the log when it returns, whoever led its batch.
    #[test]
    fn log_append_returns_only_once_its_frame_is_in_the_log() {
        let dir = tmp_dir("ticket");
        let chunks = tiny_campaign(2);
        let chunks = &chunks[..40];
        let log = SpoolLog::create(&dir, 0).expect("create log");
        std::thread::scope(|s| {
            for share in chunks.chunks(chunks.len() / 4) {
                let (log, dir) = (&log, &dir);
                s.spawn(move || {
                    for c in share {
                        log.append(vec![c.encode()]).expect("append");
                        let replay = spool_load(dir).expect("replay");
                        assert!(
                            replay.chunks.iter().any(|r| r.key() == c.key()),
                            "{:?} acked before it was in the log",
                            c.key()
                        );
                    }
                });
            }
        });
        assert_eq!(log.finish().frames_appended as usize, chunks.len());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A failed batch fails every appender in it and closes the file; once
    /// the disk is back, the next batch starts a new file.
    #[test]
    fn log_failed_batch_fails_its_appenders_and_starts_a_new_file() {
        let dir = tmp_dir("fail");
        let chunks = tiny_campaign(2);
        // Roll size 1: every frame needs a new file, which fails while
        // the directory is gone.
        let log = SpoolLog::create(&dir, 1).expect("create log");
        log.append(vec![chunks[0].encode()]).expect("first append");
        fs::remove_dir_all(&dir).expect("remove the spool");
        let failed = std::thread::scope(|s| {
            let threads: Vec<_> = chunks[1..9]
                .chunks(2)
                .map(|share| {
                    let log = &log;
                    s.spawn(move || {
                        share
                            .iter()
                            .filter(|c| log.append(vec![c.encode()]).is_err())
                            .count()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("appender thread"))
                .sum::<usize>()
        });
        assert_eq!(failed, 8, "no append into a missing directory is acked");
        fs::create_dir_all(&dir).expect("restore the spool");
        log.append(vec![chunks[9].encode()])
            .expect("append after restore");
        let counts = log.finish();
        assert_eq!(counts.frames_appended, 2);
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(keys(&replay.chunks), keys(&chunks[9..10]));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A failed batch of multi-frame appenders: followers are counted by
    /// appender, not by frame, so each appender is told of the failure
    /// exactly once and no entry is left in `failed`.
    #[test]
    fn log_failed_multi_frame_batch_fails_each_appender_once() {
        let dir = tmp_dir("fail-multi");
        let frames: Vec<Vec<u8>> = tiny_campaign(2)[..9]
            .iter()
            .map(VisitChunk::encode)
            .collect();
        // Roll size 1: the first frame fills file 0, so every later frame
        // needs a new file, which fails while the directory is gone.
        let log = SpoolLog::create(&dir, 1).expect("create log");
        log.append(vec![frames[0].clone()]).expect("first append");
        fs::remove_dir_all(&dir).expect("remove the spool");
        // Hold batch 1's lead by hand so that all four appenders, two
        // frames each, queue into batch 2.
        let file = {
            let mut q = log.lock();
            q.batch += 1;
            q.file.take().expect("no sync running")
        };
        let shares: Vec<&[Vec<u8>]> = frames[1..].chunks(2).collect();
        let failed = std::thread::scope(|s| {
            let threads: Vec<_> = shares
                .iter()
                .map(|share| {
                    let log = &log;
                    s.spawn(move || log.append(share.to_vec()))
                })
                .collect();
            while log.lock().appenders < shares.len() {
                std::thread::yield_now();
            }
            drop(Lead {
                log: &log,
                file: Some(file),
                ticket: 1,
                followers: 0,
                outcome: Some(Ok(())),
            });
            threads
                .into_iter()
                .map(|t| t.join().expect("appender thread"))
                .filter(Result::is_err)
                .count()
        });
        assert_eq!(failed, shares.len(), "every appender of the batch fails");
        assert!(
            log.lock().failed.is_empty(),
            "each told once, then forgotten"
        );
        assert_eq!(log.finish().frames_appended, 1);
    }

    /// Concurrent multi-frame appenders: each appender's frames sit next
    /// to each other in the log, in the order given, whoever led their
    /// batch, and each batch syncs once.
    #[test]
    fn log_keeps_each_appenders_frames_together() {
        let dir = tmp_dir("together");
        let chunks = tiny_campaign(2);
        let groups: Vec<&[VisitChunk]> = chunks[..48].chunks(3).collect();
        let log = SpoolLog::create(&dir, 0).expect("create log");
        std::thread::scope(|s| {
            for share in groups.chunks(4) {
                let log = &log;
                s.spawn(move || {
                    for group in share {
                        let frames = group.iter().map(VisitChunk::encode).collect();
                        log.append(frames).expect("append");
                    }
                });
            }
        });
        let counts = log.finish();
        assert_eq!(counts.frames_appended, 48);
        assert!(counts.frame_syncs <= groups.len() as u64, "{counts:?}");
        // The log's chunk keys in file order.
        let bytes = fs::read(dir.join(log_file_name(0))).expect("log bytes");
        let mut order = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let len = frame_len(&bytes[at..], (bytes.len() - at) as u64).expect("a frame");
            let chunk = VisitChunk::decode(&bytes[at..at + len]).expect("decodes");
            order.push(chunk.key());
            at += len;
        }
        assert_eq!(order.len(), 48);
        for group in &groups {
            let keys: Vec<_> = group.iter().map(VisitChunk::key).collect();
            let first = order
                .iter()
                .position(|&k| k == keys[0])
                .expect("in the log");
            assert_eq!(order[first..first + keys.len()], keys[..], "split group");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A leader that unwinds mid-batch fails the batch for its followers
    /// and leaves the log to the next appender.
    #[test]
    fn log_survives_a_leader_that_unwinds() {
        let dir = tmp_dir("unwind");
        let chunks = tiny_campaign(2);
        let log = SpoolLog::create(&dir, 0).expect("create log");
        // Take the lead on batch 0 by hand, as `append` does, and count
        // one follower in it.
        let file = {
            let mut q = log.lock();
            q.batch += 1;
            q.file.take().expect("no sync running")
        };
        std::thread::scope(|s| {
            // Queued behind the sync: it must wait for batch 0, then lead
            // batch 1.
            let next = s.spawn(|| log.append(vec![chunks[1].encode()]));
            while log.lock().frames.is_empty() {
                std::thread::yield_now();
            }
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _lead = Lead {
                    log: &log,
                    file: Some(file),
                    ticket: 0,
                    followers: 1,
                    outcome: None,
                };
                panic!("leader unwinds mid-batch");
            }));
            assert!(unwound.is_err());
            next.join().expect("next appender").expect("batch 1 synced");
        });
        assert!(log.lock().outcome(0).is_err(), "batch 0's follower fails");
        assert!(log.lock().failed.is_empty(), "told once, then forgotten");
        assert_eq!(log.finish().frames_appended, 1, "batch 1 was synced");
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(keys(&replay.chunks), keys(&chunks[1..2]));
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
        // Closed files are exactly their frames: no zeros left over.
        for (n, share) in chunks.chunks(4).enumerate() {
            let bytes = fs::read(dir.join(log_file_name(n as u64))).expect("log file");
            let frames: Vec<u8> = share.iter().flat_map(VisitChunk::encode).collect();
            assert_eq!(bytes.len(), frames.len(), "file {n}'s length");
            assert_eq!(bytes, frames, "file {n} is its frames");
        }
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.files, chunks.len().div_ceil(4));
        assert_eq!(replay.rejected, 0);
        assert_eq!(keys(&replay.chunks), keys(&chunks));
        for (a, b) in replay.chunks.iter().zip(&chunks) {
            assert_eq!(a.encode(), b.encode(), "byte-identical replay");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// An open file's zeros run ahead of its frames, out to a whole
    /// extension step; closing it cuts them off.
    #[test]
    fn log_open_file_runs_zeros_ahead_of_its_frames() {
        let dir = tmp_dir("ahead");
        let frames: Vec<Vec<u8>> = tiny_campaign(2)[..3]
            .iter()
            .map(VisitChunk::encode)
            .collect();
        let written = frames.concat();
        let path = dir.join(log_file_name(0));
        let log = SpoolLog::create(&dir, 0).expect("create log");
        for f in &frames {
            log.append(vec![f.clone()]).expect("append");
        }
        let open = fs::read(&path).expect("open log");
        assert_eq!(open.len() as u64, EXTEND_STEP, "preallocated one step");
        assert_eq!(&open[..written.len()], &written[..], "frames first");
        assert!(open[written.len()..].iter().all(|&b| b == 0), "then zeros");
        log.finish();
        assert_eq!(fs::read(&path).expect("closed log"), written);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A log dropped without `finish`, as a killed coordinator leaves it:
    /// its open file still ends in zeros, and every acked frame replays
    /// with nothing rejected.
    #[test]
    fn log_dropped_unfinished_replays_every_acked_frame() {
        let dir = tmp_dir("killed");
        let chunks = &tiny_campaign(2)[..10];
        // Roll size 4: two closed files and an open one holding two frames.
        let log = SpoolLog::create(&dir, 4).expect("create log");
        for c in chunks {
            log.append(vec![c.encode()]).expect("append");
        }
        drop(log);
        let open = fs::metadata(dir.join(log_file_name(2))).expect("open file");
        let frames: usize = chunks[8..].iter().map(|c| c.encode().len()).sum();
        assert!(open.len() > frames as u64, "the open file ends in zeros");
        let replay = spool_load(&dir).expect("replay");
        assert_eq!(replay.files, 3);
        assert_eq!(replay.rejected, 0, "a zero tail is a clean end");
        assert_eq!(keys(&replay.chunks), keys(chunks));
        for (a, b) in replay.chunks.iter().zip(chunks) {
            assert_eq!(a.encode(), b.encode(), "byte-identical replay");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// One appender: every frame is its own batch, so N frames sync N
    /// times, and each file extends once per step its frames reach,
    /// a frame longer than a step included.
    #[test]
    fn log_counts_one_frame_sync_per_batch_and_one_extension_per_step() {
        const KIB: usize = 1 << 10;
        // (roll size, frame lengths, files, extension syncs, closed
        // length of the last file)
        let cases: [(usize, &[usize], u64, u64, usize); 3] = [
            // Ends at 300..3000 KiB cross 1 and 2 MiB: zeros to 1, 2, 3 MiB.
            (0, &[300 * KIB; 10], 1, 3, 3000 * KIB),
            // Files of 4 + 4 + 2 frames: 2 + 2 + 1 extensions.
            (4, &[300 * KIB; 10], 3, 5, 600 * KIB),
            // One frame of 2.5 MiB: zeros to 3 MiB at once.
            (0, &[2560 * KIB], 1, 1, 2560 * KIB),
        ];
        for (case, &(roll, lens, files, extensions, last_len)) in cases.iter().enumerate() {
            let dir = tmp_dir(&format!("counts-{case}"));
            let log = SpoolLog::create(&dir, roll).expect("create log");
            for &len in lens {
                log.append(vec![vec![0xa5; len]]).expect("append");
            }
            let last = dir.join(log_file_name(files - 1));
            let open_len = fs::metadata(&last).expect("open file").len();
            assert_eq!(open_len, (last_len as u64).next_multiple_of(EXTEND_STEP));
            let counts = log.finish();
            assert_eq!(counts.files_created, files, "case {case}");
            assert_eq!(counts.frames_appended, lens.len() as u64, "case {case}");
            assert_eq!(counts.frame_syncs, lens.len() as u64, "case {case}");
            assert_eq!(counts.extension_syncs, extensions, "case {case}");
            let closed_len = fs::metadata(&last).expect("closed file").len();
            assert_eq!(closed_len, last_len as u64, "case {case}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

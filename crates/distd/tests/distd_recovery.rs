//! Process-level fabric tests: determinism across worker counts, crash
//! injection (`kill -9` a worker mid-lease), and coordinator restart from
//! the spool. The bar for every scenario is the same — the figure CSVs
//! must be **byte-identical** to a single-process
//! `run_campaign_streamed` run.

use hb_analysis::{indexed_reports, DatasetIndexBuilder};
use hb_crawler::{run_campaign_streamed, CampaignConfig};
use hb_distd::spool_load;
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SHARDS: u32 = 2;
const CHUNK_VISITS: usize = 32;

/// Kill the child on scope exit so a failing assert never leaks
/// processes into the test runner.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hb-distd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// The ground truth: the single-process streamed campaign, folded through
/// the same incremental index, rendered to the same CSV bytes.
fn reference_figures() -> BTreeMap<String, String> {
    let eco_cfg = EcosystemConfig::tiny_scale();
    let eco = SiteFactory::new(eco_cfg.clone());
    let cfg = CampaignConfig {
        shards: SHARDS,
        chunk_visits: CHUNK_VISITS,
        ..CampaignConfig::default()
    };
    let mut builder = DatasetIndexBuilder::new(eco_cfg.n_sites, eco_cfg.crawl_days);
    run_campaign_streamed(&eco, &cfg, &mut |chunk| builder.push_chunk(&chunk));
    let index = builder.finish();
    indexed_reports(&index)
        .into_iter()
        .map(|r| (format!("{}.csv", r.id), r.to_csv()))
        .collect()
}

fn read_figures(dir: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("figures dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") {
            out.insert(
                name,
                std::fs::read_to_string(entry.path()).expect("read csv"),
            );
        }
    }
    out
}

fn assert_figures_match(
    got: &BTreeMap<String, String>,
    want: &BTreeMap<String, String>,
    label: &str,
) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{label}: figure set differs"
    );
    for (name, want_bytes) in want {
        assert_eq!(
            got.get(name).expect("checked above"),
            want_bytes,
            "{label}: {name} is not byte-identical"
        );
    }
}

/// Spawn the coordinator and block until it prints its bound address.
/// Returns the guarded child, the address, and the stdout reader (the
/// trailing `STATS` line is read from it after exit).
fn spawn_coord(args: &[String]) -> (KillOnDrop, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_distd-coord"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn distd-coord");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read LISTENING line");
    let addr = line
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .trim()
        .to_string();
    (KillOnDrop(child), addr, reader)
}

fn worker_cmd(addr: &str, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_distd-worker"));
    cmd.args([
        "--connect",
        addr,
        "--scale",
        "tiny",
        "--shards",
        &SHARDS.to_string(),
        "--chunk-visits",
        &CHUNK_VISITS.to_string(),
    ])
    .args(extra)
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    cmd
}

fn coord_args(out: &Path, extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--scale",
        "tiny",
        "--shards",
        &SHARDS.to_string(),
        "--chunk-visits",
        &CHUNK_VISITS.to_string(),
        "--out",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(out.display().to_string());
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// Wait for the coordinator to exit successfully and parse its `STATS`
/// counters.
fn finish_coord(
    mut coord: KillOnDrop,
    mut reader: BufReader<std::process::ChildStdout>,
) -> BTreeMap<String, u64> {
    let status = coord.0.wait().expect("wait for coordinator");
    assert!(status.success(), "coordinator failed: {status:?}");
    let mut stats = BTreeMap::new();
    let mut line = String::new();
    while {
        line.clear();
        reader.read_line(&mut line).expect("read stats") > 0
    } {
        if let Some(rest) = line.strip_prefix("STATS ") {
            for kv in rest.split_whitespace() {
                if let Some((k, v)) = kv.split_once('=') {
                    stats.insert(k.to_string(), v.parse::<u64>().expect("numeric counter"));
                }
            }
        }
    }
    assert!(!stats.is_empty(), "coordinator printed no STATS line");
    stats
}

fn spool_file_count(dir: &Path) -> usize {
    // The chunks replay reads: a frame a SIGKILL cut short is not one.
    spool_load(dir).map_or(0, |replay| replay.chunks.len())
}

#[test]
fn one_worker_matches_in_process_figures() {
    let out = tmp_dir("one-worker-out");
    let (coord, addr, reader) = spawn_coord(&coord_args(&out, &[]));
    let _worker = KillOnDrop(worker_cmd(&addr, &[]).spawn().expect("spawn worker"));
    let stats = finish_coord(coord, reader);
    assert_eq!(stats["frames_rejected"], 0);
    assert_eq!(stats["chunks_folded"], stats["blocks_total"]);
    assert_figures_match(&read_figures(&out), &reference_figures(), "1 worker");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn three_workers_match_in_process_figures() {
    let want = reference_figures();
    // Batched leases (the default, 4 blocks) and one block per lease.
    for lease_blocks in ["4", "1"] {
        let out = tmp_dir(&format!("three-workers-{lease_blocks}-out"));
        let (coord, addr, reader) =
            spawn_coord(&coord_args(&out, &["--lease-blocks", lease_blocks]));
        let _workers: Vec<KillOnDrop> = (0..3)
            .map(|_| KillOnDrop(worker_cmd(&addr, &[]).spawn().expect("spawn worker")))
            .collect();
        let stats = finish_coord(coord, reader);
        assert_eq!(stats["frames_rejected"], 0);
        assert_eq!(stats["chunks_folded"], stats["blocks_total"]);
        let label = format!("3 workers, {lease_blocks}-block leases");
        assert_figures_match(&read_figures(&out), &want, &label);
        let _ = std::fs::remove_dir_all(&out);
    }
}

/// The full gauntlet: spool some chunks, SIGKILL the coordinator, restart
/// it from the spool, SIGKILL a worker mid-lease, and still demand
/// byte-identical figures plus observable recovery counters.
#[test]
fn coordinator_restart_and_worker_kill_recover_byte_identical() {
    let out = tmp_dir("recovery-out");
    let spool = tmp_dir("recovery-spool");
    let spool_arg = spool.display().to_string();

    // --- Phase 1: run until a few chunks are durable, then crash the
    // coordinator (SIGKILL — no graceful shutdown path).
    {
        let (_coord, addr, _reader) = spawn_coord(&coord_args(
            &out,
            &["--spool", &spool_arg, "--lease-timeout-ms", "1500"],
        ));
        // Slowed worker so the campaign outlives the crash point.
        let _worker = KillOnDrop(
            worker_cmd(
                &addr,
                &["--visit-delay-us", "5000", "--heartbeat-ms", "300"],
            )
            .spawn()
            .expect("spawn phase-1 worker"),
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        while spool_file_count(&spool) < 2 {
            assert!(
                Instant::now() < deadline,
                "no chunks reached the spool in time"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // KillOnDrop delivers SIGKILL to coordinator and worker here.
    }
    let spooled_before_restart = spool_file_count(&spool);
    assert!(spooled_before_restart >= 2);

    // --- Phase 2: restart the coordinator on the same spool. A slow
    // worker takes a lease and is SIGKILLed mid-block; two healthy
    // workers finish the campaign, picking up the re-issued lease.
    let (coord, addr, reader) = spawn_coord(&coord_args(
        &out,
        &["--spool", &spool_arg, "--lease-timeout-ms", "1500"],
    ));
    let victim = KillOnDrop(
        worker_cmd(
            &addr,
            &["--visit-delay-us", "20000", "--heartbeat-ms", "300"],
        )
        .spawn()
        .expect("spawn victim worker"),
    );
    // Wait for the victim's first submit to land in the spool — proof it
    // is warmed up and cycling leases — then kill it 150 ms into its next
    // block (a full 32-visit block takes >= 640 ms at 20 ms per visit),
    // so the SIGKILL is guaranteed to land mid-lease.
    let before = spool_file_count(&spool);
    let deadline = Instant::now() + Duration::from_secs(60);
    while spool_file_count(&spool) <= before {
        assert!(Instant::now() < deadline, "victim never submitted a block");
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(150));
    drop(victim);
    let _workers: Vec<KillOnDrop> = (0..2)
        .map(|_| KillOnDrop(worker_cmd(&addr, &[]).spawn().expect("spawn worker")))
        .collect();
    let stats = finish_coord(coord, reader);

    assert!(
        stats["chunks_replayed"] >= spooled_before_restart as u64,
        "restart must replay the spooled chunks: {stats:?}"
    );
    assert!(
        stats["leases_reissued"] >= 1,
        "the killed worker's lease must be re-issued: {stats:?}"
    );
    assert_eq!(stats["chunks_folded"], stats["blocks_total"]);
    assert_eq!(stats["frames_rejected"], 0);
    assert_figures_match(
        &read_figures(&out),
        &reference_figures(),
        "restart + kill -9",
    );
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&spool);
}

/// A corrupted spool file must be rejected on replay (counted, skipped)
/// and its block re-crawled — the figures still come out byte-identical.
#[test]
fn corrupt_spool_file_is_rejected_and_recrawled() {
    let out = tmp_dir("corrupt-out");
    let spool = tmp_dir("corrupt-spool");
    let spool_arg = spool.display().to_string();

    // Run a full campaign to populate the spool.
    {
        let (coord, addr, reader) = spawn_coord(&coord_args(&out, &["--spool", &spool_arg]));
        let _worker = KillOnDrop(worker_cmd(&addr, &[]).spawn().expect("spawn worker"));
        let stats = finish_coord(coord, reader);
        assert_eq!(stats["chunks_folded"], stats["blocks_total"]);
    }
    // Corrupt one spooled frame: flip a byte in the middle.
    let victim = std::fs::read_dir(&spool)
        .expect("spool dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "hbwf"))
        .expect("at least one spool file");
    let mut bytes = std::fs::read(&victim).expect("read spool file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&victim, &bytes).expect("corrupt spool file");

    // Restart: the corrupt frame is refused, its block re-leased to a
    // fresh worker, everything else replayed.
    let (coord, addr, reader) = spawn_coord(&coord_args(&out, &["--spool", &spool_arg]));
    let _worker = KillOnDrop(worker_cmd(&addr, &[]).spawn().expect("spawn worker"));
    let stats = finish_coord(coord, reader);
    assert!(
        stats["frames_rejected"] >= 1,
        "the corrupt frame must be rejected: {stats:?}"
    );
    assert_eq!(stats["chunks_folded"], stats["blocks_total"]);
    assert_figures_match(&read_figures(&out), &reference_figures(), "corrupt spool");
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&spool);
}

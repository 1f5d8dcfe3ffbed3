//! Campaign coordinator binary.
//!
//! Binds the lease endpoint, prints `LISTENING <addr>` (machine-readable
//! — tests and launchers parse it to find an ephemeral port), serves
//! workers until the campaign completes, folds every chunk through the
//! incremental figure index, and finally writes one CSV per figure plus a
//! parseable `STATS` line with the fabric counters.
//!
//! Exit codes: 0 on success, 1 on runtime failure, 2 on a malformed
//! command line.
//!
//! ```text
//! distd-coord --listen 127.0.0.1:0 --scale tiny \
//!     --chunk-visits 64 --lease-timeout-ms 2000 --lease-blocks 4 \
//!     --spool /tmp/spool --compact-every 64 --out /tmp/figures
//! ```

use hb_analysis::{indexed_reports, DatasetIndexBuilder};
use hb_distd::cli::{flag_parse, flag_value, Scale, EXIT_USAGE};
use hb_distd::{CoordConfig, Coordinator};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str =
    "usage: distd-coord [--listen ADDR] [--scale tiny|test|medium|paper] [--seed N] \
[--chunk-visits N] [--lease-timeout-ms N] [--lease-blocks N] \
[--reorder-window N] [--spool DIR] [--compact-every N] [--out DIR]
  --compact-every N  roll the spool log every N chunks (0: one file per run)";

fn die(msg: String) -> ! {
    eprintln!("distd-coord: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE);
}

fn main() {
    let mut listen = "127.0.0.1:0".to_string();
    let mut scale = Scale::Tiny;
    let mut seed: Option<u64> = None;
    let mut chunk_visits: usize = 64;
    let mut lease_timeout = Duration::from_secs(10);
    let mut lease_blocks: usize = 4;
    let mut reorder_window: usize = 16;
    let mut spool_dir: Option<PathBuf> = None;
    let mut compact_every: usize = 0;
    let mut out_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let r = match flag {
            "--listen" => flag_value(&mut args, flag).map(|v| listen = v),
            "--scale" => flag_parse(&mut args, flag).map(|v| scale = v),
            "--seed" => flag_parse(&mut args, flag).map(|v| seed = Some(v)),
            "--chunk-visits" => flag_parse(&mut args, flag).map(|v| chunk_visits = v),
            "--lease-timeout-ms" => {
                flag_parse(&mut args, flag).map(|v: u64| lease_timeout = Duration::from_millis(v))
            }
            "--lease-blocks" => flag_parse(&mut args, flag).map(|v| lease_blocks = v),
            "--reorder-window" => flag_parse(&mut args, flag).map(|v| reorder_window = v),
            "--spool" => flag_value(&mut args, flag).map(|v| spool_dir = Some(PathBuf::from(v))),
            "--compact-every" => flag_parse(&mut args, flag).map(|v| compact_every = v),
            "--out" => flag_value(&mut args, flag).map(|v| out_dir = Some(PathBuf::from(v))),
            other => Err(format!("unrecognized argument {other:?}")),
        };
        if let Err(e) = r {
            die(e);
        }
    }

    let mut eco = scale.config();
    if let Some(s) = seed {
        eco = eco.with_seed(s);
    }
    let n_sites = eco.n_sites;
    let n_days = eco.crawl_days;
    let cfg = CoordConfig {
        chunk_visits,
        lease_timeout,
        lease_blocks,
        reorder_window,
        spool_dir,
        compact_every,
        ..CoordConfig::new(eco)
    };

    let coordinator = match Coordinator::bind(&listen, cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("distd-coord: bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    let addr = coordinator.local_addr().expect("bound socket has an addr");
    println!("LISTENING {addr}");
    std::io::stdout().flush().expect("stdout");

    let mut builder = DatasetIndexBuilder::new(n_sites, n_days);
    let stats = match coordinator.run(&mut |chunk| builder.push_chunk(&chunk)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("distd-coord: {e}");
            std::process::exit(1);
        }
    };
    let index = builder.finish();

    if let Some(out) = out_dir {
        if let Err(e) = std::fs::create_dir_all(&out) {
            eprintln!("distd-coord: create {}: {e}", out.display());
            std::process::exit(1);
        }
        for report in indexed_reports(&index) {
            let path = out.join(format!("{}.csv", report.id));
            if let Err(e) = std::fs::write(&path, report.to_csv()) {
                eprintln!("distd-coord: write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    println!(
        "STATS blocks_total={} chunks_folded={} chunks_replayed={} leases_issued={} \
         leases_reissued={} chunks_duplicate_dropped={} frames_rejected={} workers_seen={} \
         segments_written={} chunks_compacted={} frame_syncs={} extension_syncs={}",
        stats.blocks_total,
        stats.chunks_folded,
        stats.chunks_replayed,
        stats.leases_issued,
        stats.leases_reissued,
        stats.chunks_duplicate_dropped,
        stats.frames_rejected,
        stats.workers_seen,
        stats.segments_written,
        stats.chunks_compacted,
        stats.frame_syncs,
        stats.extension_syncs,
    );
}

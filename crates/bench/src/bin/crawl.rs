//! Run a crawl campaign and persist the dataset as CSV.
//!
//! Usage: `crawl [tiny|test|medium|paper] [--out DIR]`
//!
//! Streams `visits.csv`, `bids.csv` and `truth.csv` under the output
//! directory (default `results/dataset/`) chunk by chunk as the campaign
//! runs, ready for external analysis tooling. Chunks arrive in
//! `(day, seq)` order, so the CSV bytes are a function of the ecosystem
//! seed alone.
//!
//! Exit codes: 0 on success, 1 when the dataset cannot be written, 2 on a
//! malformed command line.

use hb_crawler::{run_campaign_streamed, CampaignConfig, DatasetWriter};
use hb_distd::cli::{flag_value, Scale, EXIT_USAGE};
use hb_ecosystem::SiteFactory;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: crawl [tiny|test|medium|paper] [--out DIR]";

/// Visits between two progress lines on stderr.
const PROGRESS_EVERY: usize = 5_000;

fn die(msg: String) -> ! {
    eprintln!("crawl: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE);
}

fn write_failed(out: &Path, err: std::io::Error) -> ! {
    eprintln!(
        "crawl: cannot write the dataset under {}: {err}",
        out.display()
    );
    std::process::exit(1);
}

fn main() {
    let mut scale = Scale::Test;
    let mut out = PathBuf::from("results/dataset");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = flag_value(&mut args, "--out")
                    .unwrap_or_else(|e| die(e))
                    .into()
            }
            word => {
                scale = word
                    .parse()
                    .unwrap_or_else(|_| die(format!("unknown argument {word:?}")));
            }
        }
    }
    // Create the files before crawling: an unwritable destination fails
    // in milliseconds, not after the campaign.
    let mut writer = DatasetWriter::create(&out).unwrap_or_else(|e| write_failed(&out, e));
    eprintln!("crawling at {scale:?} scale…");
    let factory = SiteFactory::new(scale.config());
    let cfg = CampaignConfig::default();
    let started = std::time::Instant::now();
    let mut visits = 0usize;
    let mut written = Ok(());
    run_campaign_streamed(&factory, &cfg, &mut |chunk| {
        let before = visits;
        visits += chunk.len();
        if visits / PROGRESS_EVERY > before / PROGRESS_EVERY {
            eprintln!("  day {}: crawled {visits} visits", chunk.day);
        }
        if written.is_ok() {
            written = writer.write_chunk(&chunk);
        }
    });
    let elapsed = started.elapsed();
    if let Err(e) = written.and_then(|()| writer.finish().map(drop)) {
        write_failed(&out, e);
    }
    let visits_per_sec = visits as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "done: {visits} visits over {} sites in {elapsed:.1?} ({visits_per_sec:.0} visits/sec)",
        factory.config().n_sites,
    );
    if let Some(kb) = peak_rss_kb() {
        eprintln!("peak RSS: {:.1} MiB", kb as f64 / 1024.0);
    }
    eprintln!("dataset written to {}", out.display());
}

/// Peak resident set size in KiB, read from /proc (Linux) — `None` when
/// the platform does not expose it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

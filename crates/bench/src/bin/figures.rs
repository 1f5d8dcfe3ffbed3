//! Regenerate every table and figure of the paper.
//!
//! Usage: `figures [tiny|test|medium|paper] [--csv DIR]`
//!
//! Runs the Wayback adoption study, then the full crawl campaign, folding
//! its chunk stream straight into the figure index, and prints each
//! `FigureReport` with the paper's stated expectation next to the
//! regenerated numbers. With `--csv DIR`, every report's table is
//! additionally written as `DIR/<id>.csv`.
//!
//! Exit codes: 0 on success, 1 when a CSV cannot be written, 2 on a
//! malformed command line.

use hb_analysis::{history_reports, index_campaign, indexed_reports};
use hb_crawler::{adoption_study, overlap_study, CampaignConfig};
use hb_distd::cli::{flag_value, Scale, EXIT_USAGE};
use hb_ecosystem::SiteFactory;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: figures [tiny|test|medium|paper] [--csv DIR]";

fn die(msg: String) -> ! {
    eprintln!("figures: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE);
}

fn write_failed(path: &Path, err: std::io::Error) -> ! {
    eprintln!("figures: cannot write {}: {err}", path.display());
    std::process::exit(1);
}

fn main() {
    let mut scale = Scale::Test;
    let mut csv_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => {
                csv_dir = Some(
                    flag_value(&mut args, "--csv")
                        .unwrap_or_else(|e| die(e))
                        .into(),
                );
            }
            word => {
                scale = word
                    .parse()
                    .unwrap_or_else(|_| die(format!("unknown argument {word:?}")));
            }
        }
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| write_failed(dir, e));
    }

    eprintln!("[1/3] historical adoption study (Wayback substitute)…");
    let seed = scale.config().seed;
    let mut reports = history_reports(&adoption_study(seed, 1_000), &overlap_study(seed, 5_000));

    eprintln!("[2/3] generating ecosystem and running campaign at {scale:?} scale…");
    let started = std::time::Instant::now();
    let ix = index_campaign(
        &SiteFactory::new(scale.config()),
        &CampaignConfig::default(),
    );
    eprintln!(
        "      campaign done: {} HB visits in {:.1?}",
        ix.n_hb_visits(),
        started.elapsed()
    );

    eprintln!("[3/3] building reports…");
    reports.extend(indexed_reports(&ix));
    for r in &reports {
        print!("{}", r.render());
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{}.csv", r.id));
            std::fs::write(&path, r.to_csv()).unwrap_or_else(|e| write_failed(&path, e));
        }
    }
    if let Some(dir) = &csv_dir {
        eprintln!("CSV written to {}", dir.display());
    }
}

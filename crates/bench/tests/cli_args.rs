//! Command-line contract for `crawl`, `figures` and `perf_ab`: a
//! malformed invocation exits 2 with a usage line, an unwritable
//! destination exits 1 with a message — never a panic. Runs the real
//! binaries via `CARGO_BIN_EXE_*`.

use std::path::PathBuf;
use std::process::Command;

const CRAWL: &str = env!("CARGO_BIN_EXE_crawl");
const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const PERF_AB: &str = env!("CARGO_BIN_EXE_perf_ab");

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_exit(bin: &str, args: &[&str], code: i32, needle: &str) {
    let (got, stderr) = run(bin, args);
    assert_eq!(
        got,
        Some(code),
        "{bin} {args:?}: expected exit {code}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{bin} {args:?}: stderr lacks {needle:?}:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?}: must not panic:\n{stderr}"
    );
}

/// A scratch path unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hb-bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn crawl_rejects_malformed_invocations_with_usage() {
    assert_exit(CRAWL, &["--out"], 2, "usage:");
    // The schedule has no shard dimension: the old flag is unrecognized.
    assert_exit(CRAWL, &["tiny", "--shards", "2"], 2, "usage:");
    assert_exit(CRAWL, &["tiny", "--shards", "2"], 2, "\"--shards\"");
    assert_exit(CRAWL, &["--bogus"], 2, "usage:");
    assert_exit(CRAWL, &["gigantic"], 2, "usage:");
}

#[test]
fn figures_rejects_malformed_invocations_with_usage() {
    assert_exit(FIGURES, &["--csv"], 2, "usage:");
    assert_exit(FIGURES, &["tiny", "--bogus"], 2, "usage:");
    assert_exit(FIGURES, &["gigantic"], 2, "usage:");
}

#[test]
fn perf_ab_rejects_malformed_invocations_with_usage() {
    fn full<'a>(pairs: &'a str, workload: &'a str) -> [&'a str; 8] {
        [
            "--base",
            "HEAD",
            "--workload",
            workload,
            "--pairs",
            pairs,
            "--seconds",
            "1",
        ]
    }
    assert_exit(PERF_AB, &[], 2, "usage:");
    assert_exit(PERF_AB, &["--base"], 2, "usage:");
    assert_exit(PERF_AB, &["--bogus"], 2, "usage:");
    assert_exit(PERF_AB, &["--base", "HEAD", "--pairs", "3"], 2, "usage:");
    assert_exit(PERF_AB, &full("x", "paper_campaign"), 2, "usage:");
    assert_exit(PERF_AB, &full("0", "paper_campaign"), 2, "usage:");
    // The workload must be one BENCHMARK.json declares; checked before
    // any checkout or build.
    assert_exit(PERF_AB, &full("1", "nope"), 2, "unknown workload");
}

#[test]
fn unwritable_destinations_exit_1_with_a_message() {
    // A regular file where a directory should go: nothing under it can
    // be created.
    let blocker = scratch("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let under = blocker.join("out");
    let under = under.to_str().unwrap();
    assert_exit(CRAWL, &["tiny", "--out", under], 1, "cannot write");
    assert_exit(FIGURES, &["tiny", "--csv", under], 1, "cannot write");
    std::fs::remove_file(&blocker).unwrap();
}

#[test]
fn crawl_writes_the_three_tables() {
    let out = scratch("out");
    let (code, stderr) = run(CRAWL, &["tiny", "--out", out.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");
    for f in ["visits.csv", "bids.csv", "truth.csv"] {
        let text = std::fs::read_to_string(out.join(f)).unwrap();
        assert!(text.lines().count() > 1, "{f} has data rows");
    }
    std::fs::remove_dir_all(&out).unwrap();
}

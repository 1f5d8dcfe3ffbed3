//! Command-line contract for the distd binaries: every malformed
//! invocation exits with code 2 and prints a usage line to stderr —
//! never a panic, never a silent default. Runs the real binaries via
//! `CARGO_BIN_EXE_*`.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn distd binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_exit(bin: &str, args: &[&str]) {
    let (code, stderr) = run(bin, args);
    assert_eq!(
        code,
        Some(2),
        "{bin} {args:?}: expected exit 2, got {code:?}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?}: stderr must carry the usage line:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?}: must not panic:\n{stderr}"
    );
}

const COORD: &str = env!("CARGO_BIN_EXE_distd-coord");
const WORKER: &str = env!("CARGO_BIN_EXE_distd-worker");

#[test]
fn coordinator_rejects_malformed_invocations_with_usage() {
    // Unknown flag.
    assert_usage_exit(COORD, &["--bogus"]);
    // Flag at end of argv with its value missing.
    for flag in [
        "--listen",
        "--scale",
        "--seed",
        "--shards",
        "--chunk-visits",
        "--lease-timeout-ms",
        "--lease-blocks",
        "--reorder-window",
        "--spool",
        "--compact-every",
        "--out",
    ] {
        assert_usage_exit(COORD, &[flag]);
    }
    // Unparseable numbers and enums.
    assert_usage_exit(COORD, &["--shards", "two"]);
    assert_usage_exit(COORD, &["--seed", "-1"]);
    assert_usage_exit(COORD, &["--lease-timeout-ms", "1.5"]);
    assert_usage_exit(COORD, &["--scale", "gigantic"]);
}

#[test]
fn worker_rejects_malformed_invocations_with_usage() {
    assert_usage_exit(WORKER, &["--bogus"]);
    for flag in [
        "--connect",
        "--scale",
        "--seed",
        "--shards",
        "--chunk-visits",
        "--heartbeat-ms",
        "--visit-delay-us",
        "--io-timeout-ms",
        "--hb-deadline-ms",
        "--connect-attempts",
        "--backoff-ms",
        "--reconnect-budget-ms",
        "--instance",
    ] {
        assert_usage_exit(WORKER, &[flag]);
    }
    assert_usage_exit(WORKER, &["--connect", "x:1", "--chunk-visits", "lots"]);
    assert_usage_exit(WORKER, &["--connect", "x:1", "--scale", "gigantic"]);
    // The one required flag.
    assert_usage_exit(WORKER, &["--scale", "tiny"]);
}

#[test]
fn error_messages_name_the_offending_flag() {
    let (_, stderr) = run(COORD, &["--shards", "two"]);
    assert!(
        stderr.contains("--shards") && stderr.contains("two"),
        "diagnostic should name flag and value:\n{stderr}"
    );
    let (_, stderr) = run(WORKER, &["--heartbeat-ms"]);
    assert!(
        stderr.contains("--heartbeat-ms") && stderr.contains("requires a value"),
        "diagnostic should name the starved flag:\n{stderr}"
    );
}

//! Same-box A/B runs of the repository benchmark against a base revision.
//!
//! Usage: `perf_ab --base REV --workload W --pairs N --seconds S`
//!
//! Run from anywhere inside a git checkout of the repository; the nearest
//! directory above holding `BENCHMARK.json` is the root. `perf_ab` checks
//! `REV` out in a detached `git worktree` under `target/perf_ab/`, builds
//! the `perf/` benchmark of both the base and the current working tree
//! offline (build output goes to `target/perf_ab/`, nothing is written
//! under `perf/`), then runs `N` pairs on seeds `1..=N`, alternating which
//! side runs first. Both sides run in the one directory
//! `target/perf_ab/run`, so scratch files a workload writes relative to
//! its working directory (`distd_spool`'s spool under `.bench_tmp/`) land
//! on the same file system path for both. A run whose JSON result is not
//! `"correct": true` aborts the comparison.
//!
//! For every end-to-end metric `BENCHMARK.json` declares, it prints the
//! base median and interquartile range, the change median, the median of
//! the per-pair relative deltas, and how many pairs the change won in the
//! metric's declared direction (a tie wins for neither side), followed by
//! the per-pair values. The worktree is removed when `perf_ab` exits.
//!
//! Exit codes: 0 on success, 1 when a build, a run or a check fails, 2 on
//! a malformed command line or an unknown workload.

use hb_distd::cli::{flag_parse, flag_value, EXIT_USAGE};
use hb_http::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const USAGE: &str = "usage: perf_ab --base REV --workload W --pairs N --seconds S";

fn die(msg: String) -> ! {
    eprintln!("perf_ab: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE);
}

struct Opts {
    base: String,
    workload: String,
    pairs: u32,
    seconds: u32,
}

fn parse_args() -> Opts {
    let (mut base, mut workload, mut pairs, mut seconds) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--base" => base = Some(flag_value(&mut args, "--base").unwrap_or_else(|e| die(e))),
            "--workload" => {
                workload = Some(flag_value(&mut args, "--workload").unwrap_or_else(|e| die(e)))
            }
            "--pairs" => pairs = Some(flag_parse(&mut args, "--pairs").unwrap_or_else(|e| die(e))),
            "--seconds" => {
                seconds = Some(flag_parse(&mut args, "--seconds").unwrap_or_else(|e| die(e)))
            }
            other => die(format!("unknown argument {other:?}")),
        }
    }
    let opts = Opts {
        base: base.unwrap_or_else(|| die("--base is required".into())),
        workload: workload.unwrap_or_else(|| die("--workload is required".into())),
        pairs: pairs.unwrap_or_else(|| die("--pairs is required".into())),
        seconds: seconds.unwrap_or_else(|| die("--seconds is required".into())),
    };
    if opts.pairs == 0 || opts.seconds == 0 {
        die("--pairs and --seconds must be positive".into());
    }
    opts
}

/// Run a command, returning its stdout, or a message with its stderr.
fn run(cmd: &mut Command) -> Result<String, String> {
    let out = cmd
        .output()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{cmd:?} failed ({}):\n{}{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    run(Command::new("git").arg("-C").arg(root).args(args)).map(|s| s.trim().to_owned())
}

/// The base checkout; removed (with its git bookkeeping) on drop.
struct Worktree {
    root: PathBuf,
    path: PathBuf,
}

impl Worktree {
    fn add(root: &Path, path: PathBuf, rev: &str) -> Result<Worktree, String> {
        // A leftover from an interrupted run would block `worktree add`.
        let _ = git(
            root,
            &["worktree", "remove", "--force", &path.to_string_lossy()],
        );
        let _ = git(root, &["worktree", "prune"]);
        git(
            root,
            &["worktree", "add", "--detach", &path.to_string_lossy(), rev],
        )?;
        Ok(Worktree {
            root: root.to_owned(),
            path,
        })
    }
}

impl Drop for Worktree {
    fn drop(&mut self) {
        if let Err(e) = git(
            &self.root,
            &[
                "worktree",
                "remove",
                "--force",
                &self.path.to_string_lossy(),
            ],
        ) {
            eprintln!("perf_ab: could not remove the base worktree: {e}");
        }
    }
}

/// Build `checkout`'s benchmark into `target_dir`; returns the binary.
fn build(checkout: &Path, target_dir: &Path) -> Result<PathBuf, String> {
    run(Command::new("cargo")
        .args([
            "build",
            "--offline",
            "--locked",
            "--quiet",
            "--release",
            "--manifest-path",
        ])
        .arg(checkout.join("perf/Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir))?;
    Ok(target_dir.join("release/hb-perf"))
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: entry lacks a string {key:?}"))
}

/// The declared workload names and end-to-end metrics.
fn declaration(root: &Path) -> Result<(Vec<String>, Vec<Metric>), String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks the {key:?} list"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| field(w, "name").map(str::to_owned))
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: field(m, "name")?.to_owned(),
                unit: field(m, "unit")?.to_owned(),
                higher_is_better: field(m, "better")? == "higher",
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

/// One benchmark run; the value of every metric, in declaration order.
fn measure(
    bin: &Path,
    cwd: &Path,
    opts: &Opts,
    seed: u32,
    metrics: &[Metric],
) -> Result<Vec<f64>, String> {
    let stdout = run(Command::new(bin).current_dir(cwd).args([
        "--workload",
        &opts.workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
        "--trace",
        "0",
    ]))?;
    let last = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{}: no JSON result line", bin.display()))?;
    let result = Json::parse(last).map_err(|e| format!("{}: result: {e}", bin.display()))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{}: run rejected, result is not correct: {last}",
            bin.display()
        ));
    }
    metrics
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: result lacks metric {}", bin.display(), m.name))
        })
        .collect()
}

/// Quantile `q` of `v` by linear interpolation between order statistics.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn fmt_num(x: f64) -> String {
    if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.4}")
    } else {
        format!("{x:.6}")
    }
}

fn report(metrics: &[Metric], base: &[Vec<f64>], change: &[Vec<f64>]) {
    println!(
        "{:<18} {:<7} {:>14} {:>27} {:>14} {:>9} {:>6}",
        "metric", "unit", "base median", "base IQR (q1..q3)", "change median", "median Δ", "wins"
    );
    for (i, m) in metrics.iter().enumerate() {
        let b: Vec<f64> = base.iter().map(|run| run[i]).collect();
        let c: Vec<f64> = change.iter().map(|run| run[i]).collect();
        let deltas: Vec<f64> = b
            .iter()
            .zip(&c)
            .filter(|(b, _)| **b != 0.0)
            .map(|(b, c)| (c - b) / b.abs() * 100.0)
            .collect();
        let wins = b
            .iter()
            .zip(&c)
            .filter(|(b, c)| if m.higher_is_better { c > b } else { c < b })
            .count();
        let delta = if deltas.is_empty() {
            "n/a".to_owned()
        } else {
            format!("{:+.1}%", quantile(&deltas, 0.5))
        };
        println!(
            "{:<18} {:<7} {:>14} {:>27} {:>14} {:>9} {:>6}",
            m.name,
            m.unit,
            fmt_num(quantile(&b, 0.5)),
            format!(
                "{}..{}",
                fmt_num(quantile(&b, 0.25)),
                fmt_num(quantile(&b, 0.75))
            ),
            fmt_num(quantile(&c, 0.5)),
            delta,
            format!("{wins}/{}", b.len()),
        );
        let list = |v: &[f64]| v.iter().map(|x| fmt_num(*x)).collect::<Vec<_>>().join(" ");
        println!("    base   [{}]\n    change [{}]", list(&b), list(&c));
    }
}

fn compare(opts: &Opts) -> Result<(), String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let root = cwd
        .ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .ok_or("not inside the repository: no BENCHMARK.json above the working directory")?
        .to_owned();
    let (workloads, metrics) = declaration(&root)?;
    if !workloads.contains(&opts.workload) {
        die(format!(
            "unknown workload {:?} (BENCHMARK.json declares {})",
            opts.workload,
            workloads.join(", ")
        ));
    }
    let base_rev = git(
        &root,
        &[
            "rev-parse",
            "--verify",
            &format!("{}^{{commit}}", opts.base),
        ],
    )?;
    let ab_dir = root.join("target/perf_ab");
    std::fs::create_dir_all(&ab_dir)
        .map_err(|e| format!("cannot create {}: {e}", ab_dir.display()))?;
    let worktree = Worktree::add(&root, ab_dir.join("base"), &base_rev)?;
    eprintln!("perf_ab: building base {base_rev} and the working tree…");
    let base_bin = build(&worktree.path, &ab_dir.join("target-base"))?;
    let change_bin = build(&root, &ab_dir.join("target-change"))?;
    let run_dir = ab_dir.join("run");
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;

    let (mut base, mut change) = (Vec::new(), Vec::new());
    for seed in 1..=opts.pairs {
        let base_first = seed % 2 == 1;
        eprintln!(
            "perf_ab: pair {seed}/{} seed={seed} ({} first)",
            opts.pairs,
            if base_first { "base" } else { "change" }
        );
        let run_base = || measure(&base_bin, &run_dir, opts, seed, &metrics);
        let run_change = || measure(&change_bin, &run_dir, opts, seed, &metrics);
        if base_first {
            base.push(run_base()?);
            change.push(run_change()?);
        } else {
            change.push(run_change()?);
            base.push(run_base()?);
        }
    }
    println!(
        "perf_ab base={} ({base_rev}) change=working tree workload={} pairs={} seconds={} seeds=1..={}",
        opts.base, opts.workload, opts.pairs, opts.seconds, opts.pairs
    );
    report(&metrics, &base, &change);
    Ok(())
}

fn main() {
    let opts = parse_args();
    if let Err(e) = compare(&opts) {
        eprintln!("perf_ab: {e}");
        std::process::exit(1);
    }
}

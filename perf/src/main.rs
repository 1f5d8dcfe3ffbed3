//! The repository benchmark.
//!
//! ```text
//! hb-perf --workload <paper_campaign|serve_zipf|distd_spool> --seed N \
//!         --seconds S --trace <0|1>
//! hb-perf --self-test
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload until `--seconds`
//! have passed (at least once) and prints every end-to-end metric as the
//! median over the repetitions. A traced run (`--trace 1`) runs the
//! workload once untraced as the reference, then traced until `--seconds`
//! have passed, and prints the per-layer metrics. Every repetition is
//! checked; a failed check exits 1 without printing a result. The last
//! stdout line is the JSON result. See `perf/README.md`.

mod campaign;
mod fabric;
mod figures;
mod metrics;
mod serving;

use hb_ecosystem::EcosystemConfig;
use metrics::{median, quantile, sorted_us, total_s, Metrics};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: metrics::CountingAlloc = metrics::CountingAlloc;

const USAGE: &str = "usage: hb-perf --workload paper_campaign|serve_zipf|distd_spool --seed N \
--seconds S --trace 0|1\n       hb-perf --self-test";

/// Requests per `serve_zipf` repetition at each scale.
const SERVE_REQUESTS_PAPER: u64 = 1_200_000;
const SERVE_REQUESTS_TINY: u64 = 4_000;
/// Throwaway set-ups timed before the first repetition, so `setup_s` is a
/// median over several set-ups even when only one repetition fits.
const EXTRA_SETUPS: usize = 30;
/// Idle time before each throwaway set-up, so each runs cold, as a
/// process's first set-up does. Back to back, their readings flip between
/// two modes about 40% apart as the thread moves between cores.
const SETUP_GAP: Duration = Duration::from_millis(5);
/// Largest share of the traced wall time the timed layers may leave
/// uncovered before the layer-sum check fails.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PaperCampaign,
    ServeZipf,
    DistdSpool,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperCampaign,
        Workload::ServeZipf,
        Workload::DistdSpool,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperCampaign => "paper_campaign",
            Workload::ServeZipf => "serve_zipf",
            Workload::DistdSpool => "distd_spool",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scale {
    Paper,
    Tiny,
}

#[derive(Clone, Debug)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    workers: usize,
}

impl Opts {
    /// The universe: seeded by `--seed` for the campaigns. Serving always
    /// runs over the default paper universe and takes its seed for the
    /// traffic, so its figures vary with the requests, not the universe.
    fn eco(&self) -> EcosystemConfig {
        let base = match self.scale {
            Scale::Paper => EcosystemConfig::paper_scale(),
            Scale::Tiny => EcosystemConfig::tiny_scale(),
        };
        match self.workload {
            Workload::ServeZipf => base,
            Workload::PaperCampaign | Workload::DistdSpool => base.with_seed(self.seed),
        }
    }

    fn serve_requests(&self) -> u64 {
        match self.scale {
            Scale::Paper => SERVE_REQUESTS_PAPER,
            Scale::Tiny => SERVE_REQUESTS_TINY,
        }
    }

    fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }

    /// A spool directory inside the working directory, unique per process
    /// and repetition.
    fn spool(&self, rep: usize) -> PathBuf {
        PathBuf::from(".bench_tmp").join(format!("spool-{}-{rep}", std::process::id()))
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_args(args: &[String]) -> Result<Option<Opts>, String> {
    if args.len() == 1 && args[0] == "--self-test" {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unrecognized argument {other:?}")),
        }
    }
    Ok(Some(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Paper,
        workers: nproc(),
    }))
}

/// One invocation's result, before printing.
struct Outcome {
    attempted: u64,
    metrics: Metrics,
    /// Digests the correctness checks compared, by name.
    digests: Vec<(&'static str, u64)>,
    /// Human-readable lines printed before the result (traced runs: the
    /// overhead, the layer-sum check and the metrics not reachable from
    /// outside).
    notes: Vec<String>,
    reps: usize,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            metrics: Metrics::default(),
            digests: Vec::new(),
            notes: Vec::new(),
            reps: 0,
        }
    }
}

/// End-to-end metrics: every workload reports every one of them.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("wall_s", "s"),
    ("p50_ms", "sim_ms"),
    ("p99_ms", "sim_ms"),
    ("p999_ms", "sim_ms"),
    ("completed_pct", "%"),
];

/// Report ids in registry order (F4 and F4b, then the index-driven 21).
const REPORT_IDS: [&str; 23] = [
    "F4", "F4b", "T1", "A1", "A2", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16",
    "F17", "F18", "F19", "F20", "F21", "F22", "F23", "F24", "X1",
];

const SERVE_COUNTERS: [&str; 17] = [
    "auctions",
    "admitted",
    "sheds",
    "wins_hb",
    "wins_s2s",
    "wins_waterfall",
    "wins_direct",
    "wins_house",
    "passbacks",
    "degraded_fills",
    "provider_timeouts",
    "hedges_fired",
    "hedge_wins",
    "breaker_skips",
    "breaker_trips",
    "wf_aborts",
    "budget_exhausted",
];

const COORD_COUNTERS: [&str; 10] = [
    "blocks_total",
    "chunks_folded",
    "chunks_replayed",
    "leases_issued",
    "leases_reissued",
    "chunks_duplicate_dropped",
    "frames_rejected",
    "workers_seen",
    "segments_written",
    "chunks_compacted",
];

const WORKER_COUNTERS: [&str; 9] = [
    "blocks_completed",
    "visits",
    "leases_expired",
    "duplicates",
    "reconnects",
    "conn_breaks",
    "connect_failures",
    "wire_rejected",
    "leases_abandoned",
];

/// Per-layer metrics: every traced run reports every one of them. A layer
/// a workload never calls into reads 0 there (see [`absent_layers`]).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    for kind in ["day0", "revisit"] {
        add(&format!("ecosystem.derive_us.{kind}.p50"), "us");
        add(&format!("ecosystem.derive_us.{kind}.p99"), "us");
    }
    add("ecosystem.derive_s", "s");
    add("crawler.visit_us.p50", "us");
    add("crawler.visit_us.p99", "us");
    for flow in ["client_side", "server_side", "hybrid", "waterfall"] {
        add(&format!("crawler.visit_us.{flow}.p50"), "us");
    }
    add("crawler.block_overhead_us.p50", "us");
    add("crawler.allocs_per_visit", "count");
    add("crawler.visits", "count");
    add("crawler.chunks", "count");
    add("crawler.hb_sites_day0", "count");
    add("crawler.sink_wait_s", "s");
    add("core.chunk_encode_us.p50", "us");
    add("core.chunk_decode_us.p50", "us");
    add("core.chunk_bytes.p50", "B");
    add("analysis.fold_us.p50", "us");
    add("analysis.fold_us.p99", "us");
    add("analysis.fold_s", "s");
    add("analysis.finish_ms", "ms");
    add("analysis.render_ms", "ms");
    for id in REPORT_IDS {
        add(&format!("analysis.render_ms.{id}"), "ms");
    }
    add("analysis.csv_bytes", "B");
    add("serve.orchestrate_s", "s");
    add("serve.loadgen_ns", "ns");
    add("serve.allocs_per_auction", "count");
    for c in SERVE_COUNTERS {
        add(&format!("serve.{c}"), "count");
    }
    add("serve.hedge_win_ratio", "ratio");
    add("serve.fill_pct", "%");
    add("distd.lease_rtt_us.p50", "us");
    add("distd.lease_rtt_us.p99", "us");
    add("distd.submit_ack_us.p50", "us");
    add("distd.submit_ack_us.p99", "us");
    add("distd.heartbeat_rtt_us.p50", "us");
    add("distd.wait_replies", "count");
    add("distd.worker_wait_s", "s");
    add("distd.worker_local_s", "s");
    add("distd.bytes_per_visit", "B");
    for c in COORD_COUNTERS {
        add(&format!("distd.{c}"), "count");
    }
    for c in WORKER_COUNTERS {
        add(&format!("distd.worker_{c}"), "count");
    }
    add("trace.wall_s", "s");
    add("trace.untraced_wall_s", "s");
    add("trace.overhead_s", "s");
    add("trace.layer_sum_s", "s");
    v
}

/// Layers a workload's traced run never calls into, with the reason; their
/// metrics read 0 on that workload.
fn absent_layers(w: Workload) -> &'static [(&'static str, &'static str)] {
    match w {
        Workload::PaperCampaign => &[
            ("serve.", "the campaign runs no serving plane"),
            ("distd.", "the campaign runs in one process, without the fabric"),
        ],
        Workload::ServeZipf => &[
            (
                "ecosystem.",
                "derivation runs inside serve_load_with under memo churn; its cost is inside serve.orchestrate_s",
            ),
            ("crawler.", "serving runs no browser crawl"),
            ("core.", "serving seals no chunks"),
            ("analysis.", "serving builds no figures"),
            ("distd.", "serving runs without the fabric"),
        ],
        Workload::DistdSpool => &[
            (
                "ecosystem.",
                "each worker derives through its own factory inside run_worker_session; its cost is inside distd.worker_local_s",
            ),
            (
                "crawler.visit_us",
                "visits run inside run_worker_session; their cost is inside distd.worker_local_s",
            ),
            (
                "crawler.block_overhead_us",
                "blocks are crawled inside run_worker_session; their cost is inside distd.worker_local_s",
            ),
            (
                "crawler.sink_wait_s",
                "the coordinator's fold thread waits inside Coordinator::run",
            ),
            ("serve.", "the fabric runs no serving plane"),
        ],
    }
}

fn record_pct(m: &mut Metrics, name: &str, num: u64, den: u64) {
    m.record(name, "%", 100.0 * num as f64 / den.max(1) as f64);
}

fn record_latency(m: &mut Metrics, (p50, p99, p999): (f64, f64, f64)) {
    m.record("p50_ms", "sim_ms", p50);
    m.record("p99_ms", "sim_ms", p99);
    m.record("p999_ms", "sim_ms", p999);
}

/// Checks a repetition's digest against the pinned value for this seed (if
/// any) and against the invocation's earlier repetitions.
struct DigestCheck {
    what: &'static str,
    pinned: Option<u64>,
    seen: Option<u64>,
}

impl DigestCheck {
    fn new(what: &'static str, workload: &str, opts: &Opts) -> DigestCheck {
        DigestCheck {
            what,
            pinned: (opts.scale == Scale::Paper)
                .then(|| pinned(workload, opts.seed))
                .flatten(),
            seen: None,
        }
    }

    /// A check against a known reference digest.
    fn against(what: &'static str, reference: u64) -> DigestCheck {
        DigestCheck {
            what,
            pinned: Some(reference),
            seen: None,
        }
    }

    fn check(&mut self, digest: u64) -> Result<(), String> {
        if let Some(p) = self.pinned {
            if digest != p {
                return Err(format!("{} {digest:016x} != pinned {p:016x}", self.what));
            }
        }
        if let Some(s) = self.seen {
            if digest != s {
                return Err(format!(
                    "{} {digest:016x} differs from an earlier repetition's {s:016x}",
                    self.what
                ));
            }
        }
        self.seen = Some(digest);
        Ok(())
    }
}

/// The pinned digest of `workload` at paper scale for `seed`.
fn pinned(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../pins.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Repeat `rep` while the next repetition, predicted to take as long as
/// the last one, still ends within `--seconds` (at least once). Returns
/// the repetition count and the peak RSS in MiB of the first repetition,
/// which runs in a fresh process the way a user's single run does; later
/// repetitions inherit the allocator's retained heap.
fn repeat(
    opts: &Opts,
    mut rep: impl FnMut(usize) -> Result<(), String>,
) -> Result<(usize, f64), String> {
    let deadline = opts.deadline(Instant::now());
    metrics::reset_peak_rss();
    let mut first_rss = None;
    let mut n = 0;
    loop {
        let t = Instant::now();
        rep(n)?;
        n += 1;
        if first_rss.is_none() {
            first_rss = metrics::peak_rss_mib();
        }
        if Instant::now() + t.elapsed() > deadline {
            let rss = first_rss.ok_or("cannot read VmHWM from /proc/self/status")?;
            return Ok((n, rss));
        }
    }
}

/// Set-up only, as each repetition does it, timed and dropped.
fn setup_only(opts: &Opts) -> Result<Duration, String> {
    let eco = opts.eco();
    let t = Instant::now();
    match opts.workload {
        Workload::PaperCampaign => drop(std::hint::black_box(hb_ecosystem::SiteFactory::new(eco))),
        Workload::ServeZipf => drop(std::hint::black_box(serving::setup(&eco))),
        Workload::DistdSpool => {
            return fabric::setup_only(&eco, opts.workers, &opts.spool(usize::MAX))
        }
    }
    Ok(t.elapsed())
}

/// The in-process figure digest a fabric run must reproduce: pinned, or
/// computed once with the untraced campaign.
fn campaign_reference(opts: &Opts, notes: &mut Vec<String>) -> Result<u64, String> {
    if opts.scale == Scale::Paper {
        if let Some(d) = pinned("paper_campaign", opts.seed) {
            return Ok(d);
        }
    }
    let r = campaign::run(&opts.eco(), opts.workers)?;
    notes.push(format!(
        "no pinned paper_campaign digest for seed {}; computed the in-process reference ({:016x})",
        opts.seed, r.figures.digest
    ));
    Ok(r.figures.digest)
}

fn untraced(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let eco = opts.eco();
    for _ in 0..EXTRA_SETUPS {
        std::thread::sleep(SETUP_GAP);
        let d = setup_only(opts)?;
        out.metrics.record("setup_s", "s", d.as_secs_f64());
    }
    let m = &mut out.metrics;
    let w = opts.workload.name();
    let rss;
    match opts.workload {
        Workload::PaperCampaign => {
            let mut digest = DigestCheck::new("figure-CSV digest", w, opts);
            (out.reps, rss) = repeat(opts, |_| {
                let r = campaign::run(&eco, opts.workers)?;
                digest.check(r.figures.digest)?;
                m.record("setup_s", "s", r.setup.as_secs_f64());
                m.record(
                    "throughput_per_s",
                    "1/s",
                    r.tally.visits as f64 / r.crawl.as_secs_f64(),
                );
                m.record("wall_s", "s", r.wall.as_secs_f64());
                record_latency(m, r.latency_ms);
                record_pct(m, "completed_pct", r.tally.loaded, r.tally.visits);
                out.attempted += r.tally.visits;
                Ok(())
            })?;
            out.digests.push(("figures", digest.seen.unwrap_or(0)));
        }
        Workload::ServeZipf => {
            let mut digest = DigestCheck::new("ServeReport digest", w, opts);
            (out.reps, rss) = repeat(opts, |_| {
                let r = serving::run(&eco, opts.seed, opts.serve_requests(), opts.workers, false)?;
                digest.check(r.report.digest())?;
                let s = &r.report.stats;
                m.record("setup_s", "s", r.setup.as_secs_f64());
                m.record(
                    "throughput_per_s",
                    "1/s",
                    s.auctions as f64 / r.wall.as_secs_f64(),
                );
                m.record("wall_s", "s", r.wall.as_secs_f64());
                record_latency(m, r.report.latency_ms());
                record_pct(m, "completed_pct", s.admitted, s.auctions);
                out.attempted += s.auctions;
                Ok(())
            })?;
            out.digests.push(("serve", digest.seen.unwrap_or(0)));
        }
        Workload::DistdSpool => {
            let reference = campaign_reference(opts, &mut out.notes)?;
            let mut digest = DigestCheck::against("fabric figure-CSV digest", reference);
            (out.reps, rss) = repeat(opts, |rep| {
                let r = fabric::run(&eco, opts.workers, &opts.spool(rep), false)?;
                digest.check(r.figures.digest)?;
                m.record("setup_s", "s", r.setup.as_secs_f64());
                m.record(
                    "throughput_per_s",
                    "1/s",
                    r.tally.visits as f64 / r.crawl.as_secs_f64(),
                );
                m.record("wall_s", "s", r.wall.as_secs_f64());
                record_latency(m, r.latency_ms);
                m.record("completed_pct", "%", r.clean_lease_pct());
                out.attempted += r.coord.leases_issued;
                Ok(())
            })?;
            out.digests.push(("figures", digest.seen.unwrap_or(0)));
        }
    }
    out.metrics.record("peak_rss_mib", "MiB", rss);
    Ok(out)
}

fn us_quantiles(m: &mut Metrics, name: &str, samples: &[Duration], qs: &[(&str, f64)]) {
    let sorted = sorted_us(samples);
    for (label, q) in qs {
        m.record(&format!("{name}.{label}"), "us", quantile(&sorted, *q));
    }
}

const P50: (&str, f64) = ("p50", 0.50);
const P99: (&str, f64) = ("p99", 0.99);

fn record_fold(m: &mut Metrics, fold: &campaign::FoldTrace) {
    us_quantiles(m, "analysis.fold_us", &fold.fold, &[P50, P99]);
    m.record("analysis.fold_s", "s", total_s(&fold.fold));
    us_quantiles(m, "core.chunk_encode_us", &fold.encode, &[P50]);
    us_quantiles(m, "core.chunk_decode_us", &fold.decode, &[P50]);
    let mut bytes = fold.frame_bytes.clone();
    bytes.sort_by(f64::total_cmp);
    m.record("core.chunk_bytes.p50", "B", quantile(&bytes, 0.5));
}

fn record_figures(m: &mut Metrics, figs: &figures::Figures, finish: Duration, render: Duration) {
    m.record("analysis.finish_ms", "ms", finish.as_secs_f64() * 1e3);
    m.record("analysis.render_ms", "ms", render.as_secs_f64() * 1e3);
    for (id, ms) in &figs.render_ms {
        m.record(&format!("analysis.render_ms.{id}"), "ms", *ms);
    }
    m.record("analysis.csv_bytes", "B", figs.csv_bytes as f64);
}

fn record_tally(m: &mut Metrics, t: &figures::Tally) {
    m.record("crawler.visits", "count", t.visits as f64);
    m.record("crawler.chunks", "count", t.chunks as f64);
    m.record("crawler.hb_sites_day0", "count", t.hb_day0 as f64);
}

/// The layer-sum line and its check: the `parts` must cover the traced
/// wall time within [`LAYER_SUM_TOLERANCE`]; `basis` says what they are.
/// Enforced at paper scale only: at tiny scale fixed costs outside the
/// timed layers (thread start, universe builds) dominate a run of a few
/// milliseconds.
fn layer_sum(
    out: &mut Outcome,
    opts: &Opts,
    basis: &str,
    parts: &[(&str, f64)],
    wall: f64,
) -> Result<(), String> {
    let sum: f64 = parts.iter().map(|(_, s)| s).sum();
    let mut line = format!("layer sum ({basis}):");
    for (name, s) in parts {
        let _ = write!(line, " {name}={s:.4}s");
    }
    let gap = (wall - sum).abs() / wall.max(f64::MIN_POSITIVE);
    let _ = write!(
        line,
        " -> sum {sum:.4}s vs traced wall {wall:.4}s (gap {:.2}%, tolerance {:.0}%)",
        gap * 100.0,
        LAYER_SUM_TOLERANCE * 100.0
    );
    out.notes.push(line);
    out.metrics.record("trace.layer_sum_s", "s", sum);
    if gap > LAYER_SUM_TOLERANCE && opts.scale == Scale::Paper {
        return Err(format!(
            "layer sum {sum:.4}s misses the traced wall {wall:.4}s by {:.1}%",
            gap * 100.0
        ));
    }
    Ok(())
}

fn overhead(out: &mut Outcome, traced_wall: f64, untraced_wall: f64) {
    out.metrics.record("trace.wall_s", "s", traced_wall);
    out.metrics
        .record("trace.untraced_wall_s", "s", untraced_wall);
    out.metrics
        .record("trace.overhead_s", "s", traced_wall - untraced_wall);
    out.notes.push(format!(
        "tracing overhead: traced wall {traced_wall:.4}s - untraced wall {untraced_wall:.4}s = {:+.4}s ({:+.1}%)",
        traced_wall - untraced_wall,
        100.0 * (traced_wall - untraced_wall) / untraced_wall
    ));
}

/// Record 0 for every metric of a layer the workload never calls into.
fn record_absent(out: &mut Outcome, workload: Workload) {
    for (prefix, reason) in absent_layers(workload) {
        let names: Vec<(String, &'static str)> = per_layer()
            .into_iter()
            .filter(|(n, _)| n.starts_with(prefix) && out.metrics.get(n).is_none())
            .collect();
        for (name, unit) in &names {
            out.metrics.record(name, unit, 0.0);
        }
        if !names.is_empty() {
            out.notes.push(format!(
                "not measured from outside ({} metrics read 0): {prefix}* — {reason}",
                names.len()
            ));
        }
    }
}

fn traced(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let eco = opts.eco();
    let w = opts.workload.name();
    match opts.workload {
        Workload::PaperCampaign => {
            let reference = campaign::run(&eco, opts.workers)?;
            let mut digest = DigestCheck::new("figure-CSV digest", w, opts);
            digest.check(reference.figures.digest)?;
            let mut last = None;
            (out.reps, _) = repeat(opts, |_| {
                let t = campaign::run_traced(&eco, opts.workers)?;
                digest.check(t.run.figures.digest)?;
                let m = &mut out.metrics;
                let c = &t.crawl;
                us_quantiles(m, "ecosystem.derive_us.day0", &c.derive_day0, &[P50, P99]);
                us_quantiles(
                    m,
                    "ecosystem.derive_us.revisit",
                    &c.derive_revisit,
                    &[P50, P99],
                );
                m.record(
                    "ecosystem.derive_s",
                    "s",
                    total_s(&c.derive_day0) + total_s(&c.derive_revisit),
                );
                us_quantiles(m, "crawler.visit_us", &c.visit, &[P50, P99]);
                for (flow, samples) in ["client_side", "server_side", "hybrid", "waterfall"]
                    .iter()
                    .zip(&c.visit_by_flow)
                {
                    us_quantiles(m, &format!("crawler.visit_us.{flow}"), samples, &[P50]);
                }
                us_quantiles(m, "crawler.block_overhead_us", &c.block_overhead, &[P50]);
                m.record(
                    "crawler.allocs_per_visit",
                    "count",
                    t.crawl_allocs as f64 / t.run.tally.visits as f64,
                );
                record_tally(m, &t.run.tally);
                m.record("crawler.sink_wait_s", "s", t.fold.sink_wait.as_secs_f64());
                record_fold(m, &t.fold);
                record_figures(m, &t.run.figures, t.finish, t.render);
                out.attempted += t.run.tally.visits;
                last = Some(t);
                Ok(())
            })?;
            let t = last.expect("at least one traced repetition");
            overhead(
                &mut out,
                t.run.wall.as_secs_f64(),
                reference.wall.as_secs_f64(),
            );
            // Self time only: the crawl threads' layers (and their waits on
            // the in-flight bound) over the crawl, then the fold thread's
            // finish and render. The fold thread's idle sink wait is left
            // out, as is its fold work, which overlaps the crawl.
            let c = &t.crawl;
            let per_thread = |s: f64| s / opts.workers as f64;
            layer_sum(
                &mut out,
                opts,
                "self time: per crawl thread, then the post-crawl tail",
                &[
                    (
                        "ecosystem.derive",
                        per_thread(total_s(&c.derive_day0) + total_s(&c.derive_revisit)),
                    ),
                    ("crawler.visit", per_thread(total_s(&c.visit))),
                    (
                        "crawler.block_overhead",
                        per_thread(total_s(&c.block_overhead)),
                    ),
                    (
                        "crawler.in_flight_wait",
                        per_thread(c.worker_wait.as_secs_f64()),
                    ),
                    ("analysis.finish", t.finish.as_secs_f64()),
                    ("analysis.render", t.render.as_secs_f64()),
                ],
                t.run.wall.as_secs_f64(),
            )?;
            out.digests.push(("figures", digest.seen.unwrap_or(0)));
        }
        Workload::ServeZipf => {
            let reference =
                serving::run(&eco, opts.seed, opts.serve_requests(), opts.workers, false)?;
            let mut digest = DigestCheck::new("ServeReport digest", w, opts);
            digest.check(reference.report.digest())?;
            let mut last = None;
            (out.reps, _) = repeat(opts, |_| {
                let t0 = Instant::now();
                let r = serving::run(&eco, opts.seed, opts.serve_requests(), opts.workers, true)?;
                digest.check(r.report.digest())?;
                if r.report.stats != reference.report.stats {
                    return Err("traced ServeStats differ from the untraced run's".into());
                }
                let loadgen_ns = serving::time_loadgen(
                    &serving::inputs(opts.seed, &eco, opts.serve_requests()).load,
                );
                let wall = t0.elapsed();
                let m = &mut out.metrics;
                let s = &r.report.stats;
                m.record("serve.orchestrate_s", "s", r.wall.as_secs_f64());
                m.record("serve.loadgen_ns", "ns", loadgen_ns);
                m.record(
                    "serve.allocs_per_auction",
                    "count",
                    r.allocs as f64 / s.auctions as f64,
                );
                let counters = [
                    s.auctions,
                    s.admitted,
                    s.sheds,
                    s.wins_hb,
                    s.wins_s2s,
                    s.wins_waterfall,
                    s.wins_direct,
                    s.wins_house,
                    s.passbacks,
                    s.degraded_fills,
                    s.provider_timeouts,
                    s.hedges_fired,
                    s.hedge_wins,
                    s.breaker_skips,
                    s.breaker_trips,
                    s.wf_aborts,
                    s.budget_exhausted,
                ];
                for (name, v) in SERVE_COUNTERS.iter().zip(counters) {
                    m.record(&format!("serve.{name}"), "count", v as f64);
                }
                m.record(
                    "serve.hedge_win_ratio",
                    "ratio",
                    s.hedge_wins as f64 / s.hedges_fired.max(1) as f64,
                );
                record_pct(m, "serve.fill_pct", s.fills(), s.auctions);
                out.attempted += s.auctions;
                last = Some((r, wall, loadgen_ns));
                Ok(())
            })?;
            let (r, wall, loadgen_ns) = last.expect("at least one traced repetition");
            overhead(&mut out, r.wall.as_secs_f64(), reference.wall.as_secs_f64());
            let loadgen_s = loadgen_ns * opts.serve_requests() as f64 / 1e9;
            layer_sum(
                &mut out,
                opts,
                "identity: serve_load_with is one call, nothing inside it is timed",
                &[
                    ("setup", r.setup.as_secs_f64()),
                    ("serve.orchestrate", r.wall.as_secs_f64()),
                    ("serve.loadgen", loadgen_s),
                ],
                wall.as_secs_f64(),
            )?;
            out.digests.push(("serve", digest.seen.unwrap_or(0)));
        }
        Workload::DistdSpool => {
            let reference_digest = campaign_reference(opts, &mut out.notes)?;
            let reference = fabric::run(&eco, opts.workers, &opts.spool(usize::MAX - 1), false)?;
            let mut digest = DigestCheck::against("fabric figure-CSV digest", reference_digest);
            digest.check(reference.figures.digest)?;
            let mut last = None;
            (out.reps, _) = repeat(opts, |rep| {
                let t = fabric::run(&eco, opts.workers, &opts.spool(rep), true)?;
                digest.check(t.figures.digest)?;
                let m = &mut out.metrics;
                let wl = &t.wire;
                m.record(
                    "crawler.allocs_per_visit",
                    "count",
                    t.worker_allocs as f64 / t.tally.visits as f64,
                );
                record_tally(m, &t.tally);
                record_fold(m, &t.fold);
                record_figures(m, &t.figures, t.finish_render.0, t.finish_render.1);
                us_quantiles(m, "distd.lease_rtt_us", &wl.lease_rtt, &[P50, P99]);
                us_quantiles(m, "distd.submit_ack_us", &wl.submit_ack, &[P50, P99]);
                us_quantiles(m, "distd.heartbeat_rtt_us", &wl.heartbeat_rtt, &[P50]);
                m.record("distd.wait_replies", "count", wl.wait_replies as f64);
                m.record("distd.worker_wait_s", "s", wl.worker_wait.as_secs_f64());
                m.record("distd.worker_local_s", "s", wl.local.as_secs_f64());
                m.record(
                    "distd.bytes_per_visit",
                    "B",
                    wl.bytes as f64 / t.tally.visits as f64,
                );
                let c = &t.coord;
                let coord = [
                    c.blocks_total as u64,
                    c.chunks_folded as u64,
                    c.chunks_replayed as u64,
                    c.leases_issued,
                    c.leases_reissued,
                    c.chunks_duplicate_dropped,
                    c.frames_rejected,
                    u64::from(c.workers_seen),
                    c.segments_written,
                    c.chunks_compacted,
                ];
                for (name, v) in COORD_COUNTERS.iter().zip(coord) {
                    m.record(&format!("distd.{name}"), "count", v as f64);
                }
                let ws = &t.workers;
                let worker = [
                    ws.blocks_completed,
                    ws.visits,
                    ws.leases_expired,
                    ws.duplicates,
                    ws.reconnects,
                    ws.conn_breaks,
                    ws.connect_failures,
                    ws.wire_rejected,
                    ws.leases_abandoned,
                ];
                for (name, v) in WORKER_COUNTERS.iter().zip(worker) {
                    m.record(&format!("distd.worker_{name}"), "count", v as f64);
                }
                out.attempted += c.leases_issued;
                last = Some(t);
                Ok(())
            })?;
            let t = last.expect("at least one traced repetition");
            overhead(&mut out, t.wall.as_secs_f64(), reference.wall.as_secs_f64());
            // Every moment of a worker session is a round trip, a wait, or
            // the worker's own work, so only time outside the sessions
            // (worker set-up after the coordinator starts, the fold tail)
            // can open a gap.
            let wl = &t.wire;
            let n = wl.sessions.max(1) as f64;
            let (finish, render) = t.finish_render;
            layer_sum(
                &mut out,
                opts,
                "identity within a worker session: mean session, then finish and render",
                &[
                    ("distd.rtt", wl.rtt_total().as_secs_f64() / n),
                    ("distd.worker_wait", wl.worker_wait.as_secs_f64() / n),
                    ("distd.worker_local", wl.local.as_secs_f64() / n),
                    ("analysis.finish", finish.as_secs_f64()),
                    ("analysis.render", render.as_secs_f64()),
                ],
                t.wall.as_secs_f64(),
            )?;
            out.notes.push(format!(
                "worker sessions: {} sessions, mean {:.3}s dial-to-last-frame",
                wl.sessions,
                wl.session.as_secs_f64() / n
            ));
            if wl.heartbeat_rtt.is_empty() {
                out.notes.push(
                    "distd.heartbeat_rtt_us.p50 reads 0: no heartbeat was sent, every block finished within the worker's heartbeat interval"
                        .to_string(),
                );
            }
            out.digests.push(("figures", digest.seen.unwrap_or(0)));
        }
    }
    record_absent(&mut out, opts.workload);
    Ok(out)
}

fn execute(opts: &Opts) -> Result<Outcome, String> {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}

/// The expected metric set of a run: every end-to-end metric untraced,
/// every per-layer metric traced.
fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    }
}

/// One printed metric: its median and every repetition's value.
struct Row {
    name: String,
    unit: &'static str,
    value: f64,
    runs: Vec<f64>,
}

/// Select the metrics to print: exactly the expected set, each measured in
/// this invocation with its declared unit and a finite value. Anything
/// else refuses the whole result.
fn finalize(out: &Outcome, trace: bool) -> Result<Vec<Row>, String> {
    let want = expected(trace);
    let mut rows = Vec::with_capacity(want.len());
    for (name, unit) in &want {
        let (u, values) = out
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured in this invocation"))?;
        if u != *unit {
            return Err(format!("metric {name} measured in {u}, declared in {unit}"));
        }
        let value = median(values);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {values:?}"));
        }
        rows.push(Row {
            name: name.clone(),
            unit: u,
            value,
            runs: values.to_vec(),
        });
    }
    if let Some(name) = out
        .metrics
        .names()
        .find(|n| !want.iter().any(|(w, _)| w == n))
    {
        return Err(format!("metric {name} is not declared for this run"));
    }
    Ok(rows)
}

fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (days, rem) = ((secs / 86_400) as i64, secs % 86_400);
    // Civil-from-days (proleptic Gregorian), after Howard Hinnant.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem / 60 % 60,
        rem % 60
    )
}

/// The git revision, when the working directory is the root of a git
/// checkout (a checkout nested in some other repository reports "none").
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

fn json_number(v: f64) -> String {
    // Rust's shortest round-trip form; integral values keep their ".0"
    // off so counts print as integers.
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn print_result(opts: &Opts, out: &Outcome) -> Result<(), String> {
    let rows = finalize(out, opts.trace)?;
    println!(
        "hb-perf rev={} date={} nproc={} workers={} workload={} seed={} trace={} seconds={} reps={}",
        git_revision(),
        utc_now(),
        nproc(),
        opts.workers,
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        opts.seconds,
        out.reps
    );
    for (what, d) in &out.digests {
        println!("hb-perf digest {what}={d:016x} (checked)");
    }
    let mut layer = "";
    for r in &rows {
        let group = r.name.split('.').next().unwrap_or("");
        if opts.trace && group != layer {
            println!("== layer {group} ==");
            layer = group;
        }
        let runs: Vec<String> = r.runs.iter().map(|x| json_number(*x)).collect();
        println!(
            "hb-perf metric {} = {} {} runs=[{}]",
            r.name,
            json_number(r.value),
            r.unit,
            runs.join(",")
        );
    }
    for note in &out.notes {
        println!("hb-perf {note}");
    }
    // A result is printed only when every operation succeeded and every
    // check passed, so `failed` is always 0 here. Outcomes the system
    // under test chose (shed auctions, page loads the simulated network
    // lost) are not failed operations; they show in `completed_pct`.
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
        out.attempted.max(1)
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.name,
            json_number(r.value),
            r.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// Tiny-scale self-test: every named metric prints with its unit, digests
/// repeat across two runs, and `serve_zipf` is identical at 1 worker and
/// at `nproc` workers.
fn self_test() -> Result<(), String> {
    let base = |workload, trace, workers| Opts {
        workload,
        seed: 7,
        seconds: 0.001,
        trace,
        scale: Scale::Tiny,
        workers,
    };
    for w in Workload::ALL {
        let a = execute(&base(w, false, nproc()))?;
        let b = execute(&base(w, false, nproc()))?;
        finalize(&a, false)?;
        if a.digests != b.digests {
            return Err(format!(
                "{}: digests differ across runs: {:?} vs {:?}",
                w.name(),
                a.digests,
                b.digests
            ));
        }
        let t = execute(&base(w, true, nproc()))?;
        finalize(&t, true)?;
        if t.digests != a.digests {
            return Err(format!(
                "{}: traced digests {:?} != untraced {:?}",
                w.name(),
                t.digests,
                a.digests
            ));
        }
        println!(
            "self-test {}: {} end-to-end + {} per-layer metrics, digests {:?}",
            w.name(),
            END_TO_END.len(),
            per_layer().len(),
            a.digests
        );
    }
    let one = execute(&base(Workload::ServeZipf, false, 1))?;
    let many = execute(&base(Workload::ServeZipf, false, nproc()))?;
    if one.digests != many.digests {
        return Err(format!(
            "serve_zipf digest differs at 1 vs {} workers",
            nproc()
        ));
    }
    for sim in ["p50_ms", "p99_ms", "p999_ms", "completed_pct"] {
        if one.metrics.value(sim) != many.metrics.value(sim) {
            return Err(format!(
                "serve_zipf {sim} differs at 1 vs {} workers",
                nproc()
            ));
        }
    }
    println!(
        "self-test serve_zipf: digest and sim-time metrics identical at 1 and {} workers",
        nproc()
    );
    check_manifest()?;
    println!("self-test ok");
    Ok(())
}

/// `BENCHMARK.json` (read from the working directory) declares exactly
/// the workloads and metrics this binary measures, with the same units.
fn check_manifest() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let field = |obj: &str, key: &str| -> Option<String> {
        let at = obj.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(obj[at..].split('"').next()?.to_string())
    };
    let section = |key: &str| -> Vec<(String, Option<String>)> {
        let start = text
            .find(&format!("\"{key}\": ["))
            .map(|i| i + key.len() + 4);
        let body = start
            .map(|i| &text[i..])
            .and_then(|b| b.split(']').next())
            .unwrap_or("");
        body.split('{')
            .skip(1)
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit"))))
            .collect()
    };
    let workloads: Vec<String> = section("workloads").into_iter().map(|(n, _)| n).collect();
    let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    if workloads != want {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != {want:?}"
        ));
    }
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let declared = section(key);
        let measured: Vec<(String, Option<String>)> = expected(trace)
            .into_iter()
            .map(|(n, u)| (n, Some(u.to_string())))
            .collect();
        if declared != measured {
            let missing: Vec<_> = measured.iter().filter(|m| !declared.contains(m)).collect();
            let extra: Vec<_> = declared.iter().filter(|d| !measured.contains(d)).collect();
            return Err(format!(
                "BENCHMARK.json {key} differs: missing {missing:?}, extra {extra:?}"
            ));
        }
    }
    println!(
        "self-test BENCHMARK.json: workloads and {} + {} metrics match",
        END_TO_END.len(),
        per_layer().len()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hb-perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match &opts {
        None => self_test(),
        Some(opts) => execute(opts).and_then(|out| print_result(opts, &out)),
    };
    if let Err(e) = result {
        eprintln!("hb-perf: FAILED: {e}");
        std::process::exit(1);
    }
}

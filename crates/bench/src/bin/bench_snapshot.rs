//! Collect the latest criterion-shim results into an in-repo snapshot.
//!
//! The criterion shim appends one JSON line per bench run to
//! `target/shim-criterion/<bench>.json`. This binary folds the latest
//! line of every bench into a single `benches/BENCH_<n>.json` snapshot —
//! median ns/op per bench plus derived visits/sec for throughput benches —
//! so the perf trajectory is tracked in-repo across PRs.
//!
//! The snapshot additionally records the **measured allocation counts per
//! visit flow** (client/server/hybrid/waterfall), observed with a
//! counting global allocator over the same visit path
//! `tests/alloc_free.rs` budgets: the direct-to-column campaign hot path
//! with its steady/cold-fresh/memo-cleared split
//! (`alloc_per_visit_columnar`) — so both the allocation trajectory and
//! the cold-visit tax are tracked alongside throughput.
//!
//! When the `campaign/scaling_{1,2,4,8}w` family is present, a
//! `scaling` section is folded in too: per-worker-count medians, the
//! derived `speedup_8w` (scaling_1w median / scaling_8w median), the
//! core count the numbers were measured on, and a `speedup_8w_floor`
//! (75% of measured) that `scaling_check` gates against in CI.
//!
//! Usage (after `cargo bench -p hb-bench`):
//!
//! ```text
//! cargo run --release -p hb-bench --bin bench_snapshot -- 4
//! # → writes benches/BENCH_4.json at the workspace root
//! ```

use hb_adtech::HbFacet;
use hb_core::{Interner, VisitColumns};
use hb_crawler::{crawl_site_into, SessionConfig, TruthRecord, VisitScratch};
use hb_ecosystem::{EcosystemConfig, ScenarioConfig, SiteFactory};
use hb_serve::{serve_load_with, LoadGenConfig, ServeConfig};
use hb_simnet::{Dist, HostFaultProfile, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// System-allocator wrapper counting allocations (single-threaded here,
/// so a process-wide counter is exact).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY-FREE NOTE: implementing `GlobalAlloc` requires the `unsafe impl`
// form; the implementation only delegates to `System` and bumps a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of `f` (single-threaded process, counter is exact).
fn allocs_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let _ = f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Steady-state and **cold** allocation counts for the direct-to-column
/// campaign hot path (`crawl_site_into`). Keep the protocol in lockstep
/// with `tests/alloc_free.rs`:
///
/// * `steady` — the Nth visit of the same rank after 3 warm-ups;
/// * `cold_fresh_mean` — mean over 5 never-visited ranks of the flow
///   with a warm scratch (the adoption-sweep / memo-miss shape);
/// * `cold_memo_cleared` — the warm rank again after
///   [`SiteFactory::clear_memos`] (pure re-derivation, no new interner
///   entries).
fn measure_columnar_allocs() -> Vec<(&'static str, u64, u64, u64)> {
    let eco = SiteFactory::new(EcosystemConfig::tiny_scale());
    let cfg = SessionConfig::default();
    let flows: [(&'static str, Option<HbFacet>); 4] = [
        ("client_side", Some(HbFacet::ClientSide)),
        ("server_side", Some(HbFacet::ServerSide)),
        ("hybrid", Some(HbFacet::Hybrid)),
        ("waterfall", None),
    ];
    let mut out = Vec::new();
    for (label, facet) in flows {
        let ranks: Vec<u32> = eco
            .sites()
            .filter(|s| s.facet == facet)
            .map(|s| s.rank)
            .collect();
        if ranks.len() < 6 {
            eprintln!("warning: too few {label} sites; cold_alloc_per_visit omits it");
            continue;
        }
        let mut scratch = VisitScratch::new(eco.partner_list());
        let mut strings = Interner::new();
        let mut cols = VisitColumns::new();
        let mut truths: Vec<TruthRecord> = Vec::new();
        let visit = |rank: u32,
                     strings: &mut Interner,
                     scratch: &mut VisitScratch,
                     cols: &mut VisitColumns,
                     truths: &mut Vec<TruthRecord>| {
            crawl_site_into(
                eco.net(),
                eco.runtime_shared(rank),
                eco.visit_rng(rank, 0),
                0,
                &cfg,
                strings,
                scratch,
                cols,
                truths,
            )
        };
        for _ in 0..3 {
            let _ = visit(ranks[0], &mut strings, &mut scratch, &mut cols, &mut truths);
        }
        let steady =
            allocs_during(|| visit(ranks[0], &mut strings, &mut scratch, &mut cols, &mut truths));
        let fresh: Vec<u64> = ranks[1..6]
            .iter()
            .map(|&r| {
                allocs_during(|| visit(r, &mut strings, &mut scratch, &mut cols, &mut truths))
            })
            .collect();
        let fresh_mean = fresh.iter().sum::<u64>() / fresh.len() as u64;
        eco.clear_memos();
        let cleared =
            allocs_during(|| visit(ranks[0], &mut strings, &mut scratch, &mut cols, &mut truths));
        out.push((label, steady, fresh_mean, cleared));
    }
    out
}

/// The serving plane's snapshot numbers: sim-time auction latency
/// quantiles plus the envelope counters, from the same degraded-slice
/// workload `benches/serve.rs` drives (tiny scale, 4 lossy providers,
/// 8 shards). The quantiles are **deterministic** — they come from the
/// simulation clock, not the host — so this section only moves when the
/// orchestrator's behavior moves; wall-clock auctions/sec rides in from
/// the `serve/auction_mixed` bench median.
fn measure_serving() -> (u64, f64, f64, f64, u64, u64, u64, u64) {
    let f = SiteFactory::new(EcosystemConfig::tiny_scale().with_seed(0x5EE_D10));
    let lossy = HostFaultProfile {
        drop_chance: 0.45,
        slow_chance: 0.35,
        slow_penalty_ms: Dist::Const(220.0),
    };
    let slice: Vec<String> = f
        .gen()
        .specs
        .iter()
        .filter(|s| !s.is_ad_server)
        .take(4)
        .map(|s| s.host())
        .collect();
    let scenario = ScenarioConfig::healthy().with_provider_slice(slice, lossy);
    let inj = scenario.injector_for_day(&f.faults(), 0);
    let net = hb_adtech::Net::new(f.router(), f.latency(), std::sync::Arc::new(inj));
    let cfg = ServeConfig {
        shards: 8,
        ..ServeConfig::default()
    };
    let load = LoadGenConfig {
        n_requests: 4_000,
        n_sites: f.config().n_sites as u64,
        mean_gap: SimDuration::from_micros(400),
        ..LoadGenConfig::default()
    };
    let report = serve_load_with(f.gen(), &net, &cfg, &load, 4, false);
    let (p50, p99, p999) = report.latency_ms();
    (
        report.stats.auctions,
        p50,
        p99,
        p999,
        report.stats.fills(),
        report.stats.sheds,
        report.stats.breaker_trips,
        report.stats.hedges_fired,
    )
}

/// A minimal field extractor for the shim's flat JSON lines (keys and
/// numeric/string scalars only — exactly what the shim emits).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split(|c: char| c == ',' || c == '}').next()
    }
    .map(str::trim)
}

fn workspace_root() -> PathBuf {
    // Resolved at compile time: this crate lives at <root>/crates/bench,
    // so the workspace root is exactly two levels up — no filesystem walk
    // that a stray Cargo.toml above the checkout could derail.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() {
    let n: String = std::env::args().nth(1).unwrap_or_else(|| "0".into());
    let root = workspace_root();
    let shim_dir = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| root.join("target"))
        .join("shim-criterion");
    let mut latest: BTreeMap<String, (f64, Option<u64>, u64)> = BTreeMap::new();
    let entries = match std::fs::read_dir(&shim_dir) {
        Ok(e) => e,
        Err(err) => {
            eprintln!(
                "no shim results under {} ({err}); run `cargo bench -p hb-bench` first",
                shim_dir.display()
            );
            std::process::exit(1);
        }
    };
    for entry in entries.flatten() {
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        for line in text.lines() {
            let (Some(id), Some(median)) = (field(line, "id"), field(line, "median_ns")) else {
                continue;
            };
            let Ok(median_ns) = median.parse::<f64>() else {
                continue;
            };
            let elems = field(line, "elems").and_then(|e| e.parse::<u64>().ok());
            let at_ms = field(line, "at_ms")
                .and_then(|a| a.parse::<u64>().ok())
                .unwrap_or(0);
            // Keep the most recent observation per bench id.
            let keep = latest
                .get(id)
                .map(|(_, _, prev_at)| at_ms >= *prev_at)
                .unwrap_or(true);
            if keep {
                latest.insert(id.to_string(), (median_ns, elems, at_ms));
            }
        }
    }
    if latest.is_empty() {
        eprintln!("no bench samples found under {}", shim_dir.display());
        std::process::exit(1);
    }

    let mut out = String::from("{\n  \"benches\": {\n");
    let count = latest.len();
    for (i, (id, (median_ns, elems, _))) in latest.iter().enumerate() {
        out.push_str(&format!("    \"{id}\": {{\"median_ns\": {median_ns:.1}"));
        if let Some(n) = elems {
            let per_sec = *n as f64 / (median_ns / 1e9);
            out.push_str(&format!(", \"elems\": {n}, \"elems_per_sec\": {per_sec:.1}"));
        }
        out.push_str("}");
        out.push_str(if i + 1 == count { "\n" } else { ",\n" });
    }
    out.push_str("  },\n");
    // Multi-worker scaling, when the scaling family ran: per-worker
    // medians plus the derived 8-worker speedup and the floor CI gates
    // against (75% of measured — headroom for run-to-run timing noise).
    let scaling: Vec<(usize, f64)> = [1usize, 2, 4, 8]
        .iter()
        .filter_map(|&w| {
            latest
                .get(&format!("campaign/scaling_{w}w"))
                .map(|(median_ns, _, _)| (w, *median_ns))
        })
        .collect();
    let speedup_8w = match (
        scaling.iter().find(|(w, _)| *w == 1),
        scaling.iter().find(|(w, _)| *w == 8),
    ) {
        (Some((_, one)), Some((_, eight))) if *eight > 0.0 => Some(one / eight),
        _ => None,
    };
    if let Some(speedup) = speedup_8w {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        out.push_str("  \"scaling\": {\n    \"workers\": {");
        for (i, (w, median_ns)) in scaling.iter().enumerate() {
            out.push_str(&format!("\"{w}\": {median_ns:.1}"));
            if i + 1 < scaling.len() {
                out.push_str(", ");
            }
        }
        out.push_str(&format!(
            "}},\n    \"speedup_8w\": {speedup:.3},\n    \"speedup_8w_floor\": {:.3},\n    \
             \"cores\": {cores}\n  }},\n",
            speedup * 0.75
        ));
    }
    // The serving plane: deterministic sim-time latency quantiles and
    // envelope counters, plus wall-clock auctions/sec from the
    // serve/auction_mixed bench when it ran.
    let (auctions, p50, p99, p999, fills, sheds, trips, hedges) = measure_serving();
    out.push_str(&format!(
        "  \"serving\": {{\n    \"auctions\": {auctions},\n"
    ));
    if let Some((median_ns, Some(elems), _)) = latest.get("serve/auction_mixed") {
        let per_sec = *elems as f64 / (median_ns / 1e9);
        out.push_str(&format!("    \"auctions_per_sec\": {per_sec:.1},\n"));
    }
    out.push_str(&format!(
        "    \"latency_ms\": {{\"p50\": {p50:.3}, \"p99\": {p99:.3}, \"p999\": {p999:.3}}},\n    \
         \"fills\": {fills},\n    \"sheds\": {sheds},\n    \"breaker_trips\": {trips},\n    \
         \"hedges_fired\": {hedges}\n  }},\n"
    ));
    // The direct-to-column hot path, steady and cold (see
    // measure_columnar_allocs for the protocol).
    out.push_str("  \"alloc_per_visit_columnar\": {\n");
    let columnar = measure_columnar_allocs();
    let n_columnar = columnar.len();
    for (i, (label, steady, fresh, cleared)) in columnar.iter().enumerate() {
        out.push_str(&format!(
            "    \"{label}\": {{\"steady\": {steady}, \"cold_fresh_mean\": {fresh}, \
             \"cold_memo_cleared\": {cleared}}}"
        ));
        out.push_str(if i + 1 == n_columnar { "\n" } else { ",\n" });
    }
    out.push_str("  }\n}\n");

    let dir = root.join("benches");
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {err}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join(format!("BENCH_{n}.json"));
    match std::fs::write(&path, out) {
        Ok(()) => println!("wrote {} ({count} benches)", path.display()),
        Err(err) => {
            eprintln!("cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
}

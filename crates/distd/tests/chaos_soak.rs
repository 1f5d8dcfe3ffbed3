//! The chaos soak: a tiny campaign driven to completion under eight
//! escalating seeded fault storms — connection resets mid-frame, frame
//! truncation and bit corruption, stalled reads, duplicated and replayed
//! submissions, heartbeat blackouts, refused dials — plus the first
//! seed once more at level 4, with three non-negotiable outcomes per
//! storm:
//!
//! 1. **Liveness**: the campaign completes inside a hard wall-clock
//!    bound (the schedule leaves every fourth connection fault-free, so
//!    progress is always reachable).
//! 2. **Safety**: the figure CSVs are byte-identical to the in-process
//!    single-thread run. Chaos may cost time, never bytes.
//! 3. **Accounting**: every fault the ledger injected is accounted for
//!    by an observable fabric counter. The inequalities carry the
//!    worker-side connection-break counters because a fault injected
//!    into a frame the coordinator never read (campaign completed
//!    first, handler gone) still surfaces as exactly one broken
//!    connection on the worker that sent it — the protocol is strictly
//!    request-reply, so at most one in-flight fault per connection.

use hb_analysis::{indexed_reports, DatasetIndexBuilder};
use hb_crawler::{run_campaign_streamed, CampaignConfig};
use hb_distd::{
    run_worker_session, ChaosConfig, ChaosConnector, CoordConfig, CoordStats, Coordinator,
    WorkerConfig, WorkerStats,
};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const SHARDS: u32 = 2;
const CHUNK_VISITS: usize = 32;
const WORKERS: u64 = 2;
const SEEDS: u32 = 8;
const PER_SEED_BOUND: Duration = Duration::from_secs(60);

/// Ground truth: the single-process streamed campaign rendered through
/// the same incremental index.
fn reference_figures() -> &'static BTreeMap<String, String> {
    static REF: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    REF.get_or_init(|| {
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
            .map(|r| (format!("{}.csv", r.id), r.render()))
            .collect()
    })
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hb-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn add_stats(into: &mut WorkerStats, s: &WorkerStats) {
    into.blocks_completed += s.blocks_completed;
    into.visits += s.visits;
    into.leases_expired += s.leases_expired;
    into.duplicates += s.duplicates;
    into.reconnects += s.reconnects;
    into.conn_breaks += s.conn_breaks;
    into.connect_failures += s.connect_failures;
    into.wire_rejected += s.wire_rejected;
    into.leases_abandoned += s.leases_abandoned;
}

struct SoakOutcome {
    coord: CoordStats,
    workers: WorkerStats,
    injected_total: u64,
    rejectable: u64,
    duplicate_like: u64,
    break_like: u64,
    refused: u64,
    elapsed: Duration,
    figures: BTreeMap<String, String>,
}

/// Run one full campaign under the given storm and collect everything
/// observable.
fn soak_one(seed: u64, level: u32, spool: &std::path::Path) -> SoakOutcome {
    let eco_cfg = EcosystemConfig::tiny_scale();
    let coord_cfg = CoordConfig {
        shards: SHARDS,
        chunk_visits: CHUNK_VISITS,
        lease_timeout: Duration::from_millis(800),
        lease_blocks: 2,
        spool_dir: Some(spool.to_path_buf()),
        compact_every: 4,
        ..CoordConfig::new(eco_cfg.clone())
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", coord_cfg).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let connector = ChaosConnector::new(addr, ChaosConfig::new(seed, level));
    let ledger = connector.ledger();

    let worker_cfg = |instance: u64| WorkerConfig {
        shards: SHARDS,
        chunk_visits: CHUNK_VISITS,
        heartbeat_every: Duration::from_millis(2),
        visit_delay: Duration::from_micros(100),
        connect_attempts: 6,
        backoff_base: Duration::from_millis(10),
        io_timeout: Duration::from_secs(2),
        hb_deadline: Duration::from_millis(150),
        reconnect_budget: Duration::from_secs(2),
        instance,
        ..WorkerConfig::new(String::new(), eco_cfg.clone())
    };

    let done = AtomicBool::new(false);
    let started = Instant::now();
    let mut builder = DatasetIndexBuilder::new(eco_cfg.n_sites, eco_cfg.crawl_days);
    let (coord_stats, worker_totals) = std::thread::scope(|scope| {
        let connector = &connector;
        let done = &done;
        // Shepherds: respawn crashed workers (fresh instance, fresh
        // jitter identity) until the coordinator reports completion.
        let shepherds: Vec<_> = (0..WORKERS)
            .map(|slot| {
                scope.spawn(move || {
                    let mut totals = WorkerStats::default();
                    let mut respawn = 0u64;
                    loop {
                        let cfg = worker_cfg(slot * 1_000 + respawn);
                        let mut stats = WorkerStats::default();
                        let r = run_worker_session(&cfg, connector, &mut stats);
                        add_stats(&mut totals, &stats);
                        match r {
                            Ok(()) => break,
                            Err(_) if done.load(Ordering::Acquire) => break,
                            Err(_) => respawn += 1,
                        }
                    }
                    totals
                })
            })
            .collect();
        let stats = coordinator
            .run(&mut |chunk| builder.push_chunk(&chunk))
            .expect("coordinator run");
        done.store(true, Ordering::Release);
        let mut totals = WorkerStats::default();
        for h in shepherds {
            add_stats(&mut totals, &h.join().expect("shepherd panicked"));
        }
        (stats, totals)
    });
    let elapsed = started.elapsed();

    let index = builder.finish();
    let figures = indexed_reports(&index)
        .into_iter()
        .map(|r| (format!("{}.csv", r.id), r.render()))
        .collect();
    SoakOutcome {
        coord: coord_stats,
        workers: worker_totals,
        injected_total: ledger.total(),
        rejectable: ledger.coordinator_rejectable(),
        duplicate_like: ledger.duplicate_like(),
        break_like: ledger.break_like(),
        refused: ledger.refused(),
        elapsed,
        figures,
    }
}

#[test]
fn escalating_chaos_storms_never_cost_bytes_and_every_fault_is_accounted() {
    let want = reference_figures();
    let mut grand_injected = 0u64;
    let mut grand_segments = 0u64;
    // Eight escalating storms, then the base seed again at level 4.
    let storms = (0..SEEDS)
        .map(|i| {
            let seed = 0xC5A0_5EED_u64.wrapping_add(u64::from(i).wrapping_mul(0x9E37_79B9));
            (seed, i + 1)
        })
        .chain([(0xC5A0_5EED, 4)]);
    for (i, (seed, level)) in storms.enumerate() {
        let spool = tmp_dir(&format!("soak-{i}"));
        let o = soak_one(seed, level, &spool);
        let label = format!("seed {seed:#x} level {level}");

        // Liveness: bounded wall-clock despite the storm.
        assert!(
            o.elapsed < PER_SEED_BOUND,
            "{label}: took {:?}, bound {PER_SEED_BOUND:?}",
            o.elapsed
        );

        // Safety: byte-identical figures.
        assert_eq!(
            o.figures.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "{label}: figure set differs"
        );
        for (name, bytes) in want {
            assert_eq!(
                o.figures.get(name).expect("checked above"),
                bytes,
                "{label}: {name} not byte-identical"
            );
        }
        assert_eq!(
            o.coord.chunks_folded, o.coord.blocks_total,
            "{label}: every block folded exactly once"
        );

        // Accounting: each injected fault shows up in an observable
        // counter (see module docs for why conn_breaks appears on the
        // left-hand sides).
        let w = &o.workers;
        assert!(
            o.coord.frames_rejected + w.conn_breaks >= o.rejectable,
            "{label}: rejectable faults unaccounted: frames_rejected={} conn_breaks={} injected={}",
            o.coord.frames_rejected,
            w.conn_breaks,
            o.rejectable
        );
        assert!(
            o.coord.chunks_duplicate_dropped + w.conn_breaks >= o.duplicate_like,
            "{label}: duplicate faults unaccounted: dropped={} conn_breaks={} injected={}",
            o.coord.chunks_duplicate_dropped,
            w.conn_breaks,
            o.duplicate_like
        );
        assert!(
            w.conn_breaks + w.connect_failures >= o.break_like + o.refused,
            "{label}: break faults unaccounted: conn_breaks={} connect_failures={} injected={}",
            w.conn_breaks,
            w.connect_failures,
            o.break_like + o.refused
        );
        // Non-vacuity: the storm actually stormed.
        if level >= 2 {
            assert!(
                o.injected_total > 0,
                "{label}: schedule injected nothing — the soak is vacuous"
            );
        }
        grand_injected += o.injected_total;
        grand_segments += o.coord.segments_written;
        let _ = std::fs::remove_dir_all(&spool);
    }
    assert!(
        grand_injected >= 20,
        "the storms should inject a real volume of faults, got {grand_injected}"
    );
    assert!(
        grand_segments >= 1,
        "the spool log must roll under chaos at least once across the soak"
    );
}

//! Distributed-fabric benches: what the lease fabric costs relative to
//! the in-process campaign, and how long lease recovery takes.
//!
//! `campaign/distd_local_3w` runs the same tiny campaign the scaling
//! benches run, but through a real coordinator socket and three worker
//! threads speaking the wire protocol — reported as visits/sec so the
//! fabric tax is directly comparable to `campaign/scaling_*`.
//!
//! `campaign/distd_batched_3w` is the same campaign with four blocks
//! per lease — the delta against `distd_local_3w` (one block per lease)
//! is the request/grant round-trip tax that batching removes. On a
//! single-core loopback box the round-trips are nearly free and the
//! tiny campaign has few blocks, so load imbalance from 4-block grants
//! can dominate and the delta can go negative; the pair still pins both
//! code paths and what each costs.
//!
//! `campaign/distd_recovery` is the recovery-time number: a doomed
//! client takes the campaign's only lease and crashes, and the iteration
//! ends when a healthy worker has re-leased and re-crawled that block
//! after the 100ms heartbeat deadline lapses. The median is dominated by
//! the lease timeout — the bound the fabric promises — plus the re-issue
//! and re-crawl overhead on top.
//!
//! `campaign/distd_chaos` completes a small campaign under a seeded
//! level-4 fault storm (resets, corruption, stalls, duplicated submits,
//! heartbeat blackouts) with shepherded workers — the campaign wall
//! clock when the network actively fights back.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hb_analysis::DatasetIndexBuilder;
use hb_distd::{
    config_fingerprint, read_msg, run_worker, run_worker_session, write_msg, ChaosConfig,
    ChaosConnector, CoordConfig, Coordinator, Msg, WorkerConfig, WorkerStats,
};
use hb_ecosystem::EcosystemConfig;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One full distributed campaign over a prebound coordinator config:
/// bind, spawn `workers` in-process worker threads, fold every chunk
/// through the incremental figure index, return the finished stats.
fn run_distributed(cfg: &CoordConfig, workers: usize) -> (u64, u64) {
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg.clone()).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let mut builder = DatasetIndexBuilder::new(cfg.eco.n_sites, cfg.eco.crawl_days);
    let stats = std::thread::scope(|scope| {
        for _ in 0..workers {
            let addr = addr.clone();
            let cfg = cfg.clone();
            scope.spawn(move || {
                let wcfg = WorkerConfig {
                    shards: cfg.shards,
                    chunk_visits: cfg.chunk_visits,
                    heartbeat_every: Duration::from_millis(250),
                    ..WorkerConfig::new(addr, cfg.eco.clone())
                };
                run_worker(&wcfg).expect("worker");
            });
        }
        coordinator
            .run(&mut |chunk| builder.push_chunk(&chunk))
            .expect("coordinator")
    });
    let index = builder.finish();
    (stats.chunks_folded as u64, index.n_hb_visits() as u64)
}

/// Distributed throughput: the full tiny campaign through coordinator +
/// 3 local workers over real sockets, as visits/sec. The elements
/// denominator is the campaign's visit count (chunking-independent), so
/// this reads on the same scale as `campaign/scaling_*` — the gap is the
/// fabric tax (framing, checksums, leases, socket hops, fold ordering).
fn distd_local_bench(c: &mut Criterion) {
    let eco = EcosystemConfig::tiny_scale();
    // One block per lease: the PR-8 fabric behavior, kept as the
    // baseline the batched number is read against.
    let cfg = CoordConfig {
        shards: 2,
        chunk_visits: 64,
        lease_blocks: 1,
        ..CoordConfig::new(eco)
    };
    let visits = {
        // One warm-up distributed run to learn the visit count (sweep +
        // dailies) and to pre-warm the derivation memo pattern.
        let factory = hb_ecosystem::SiteFactory::new(cfg.eco.clone());
        let mut visits = 0;
        hb_crawler::run_campaign_streamed(
            &factory,
            &hb_crawler::CampaignConfig::default(),
            &mut |chunk| visits += chunk.len() as u64,
        );
        visits
    };
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    group.throughput(Throughput::Elements(visits));
    group.bench_function("distd_local_3w", |b| {
        b.iter(|| black_box(run_distributed(&cfg, 3)))
    });
    // Batched leases: four blocks per lease round-trip. The delta
    // against `distd_local_3w` is the request/grant round-trip tax the
    // batching removes.
    let batched = CoordConfig {
        lease_blocks: 4,
        ..cfg.clone()
    };
    group.throughput(Throughput::Elements(visits));
    group.bench_function("distd_batched_3w", |b| {
        b.iter(|| black_box(run_distributed(&batched, 3)))
    });
    group.finish();
}

/// One full campaign under a seeded mid-level chaos storm: two workers
/// dialing through a fault-injecting connector, shepherded back up when
/// a storm kills them, until the coordinator folds every block. The
/// median is the campaign-completion wall clock under faults — read it
/// against `distd_local_3w` for the price of the storm.
fn run_chaotic(cfg: &CoordConfig, workers: u64, seed: u64, level: u32) -> u64 {
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg.clone()).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let connector = ChaosConnector::new(addr, ChaosConfig::new(seed, level));
    let done = AtomicBool::new(false);
    let mut builder = DatasetIndexBuilder::new(cfg.eco.n_sites, cfg.eco.crawl_days);
    let stats = std::thread::scope(|scope| {
        let connector = &connector;
        let done = &done;
        for slot in 0..workers {
            let cfg = cfg.clone();
            scope.spawn(move || {
                let mut respawn = 0u64;
                loop {
                    let wcfg = WorkerConfig {
                        shards: cfg.shards,
                        chunk_visits: cfg.chunk_visits,
                        heartbeat_every: Duration::from_millis(10),
                        connect_attempts: 6,
                        backoff_base: Duration::from_millis(5),
                        io_timeout: Duration::from_secs(1),
                        hb_deadline: Duration::from_millis(100),
                        reconnect_budget: Duration::from_secs(1),
                        instance: slot * 1_000 + respawn,
                        ..WorkerConfig::new(String::new(), cfg.eco.clone())
                    };
                    let mut stats = WorkerStats::default();
                    match run_worker_session(&wcfg, connector, &mut stats) {
                        Ok(()) => break,
                        Err(_) if done.load(Ordering::Acquire) => break,
                        Err(_) => respawn += 1,
                    }
                }
            });
        }
        let stats = coordinator
            .run(&mut |chunk| builder.push_chunk(&chunk))
            .expect("coordinator");
        done.store(true, Ordering::Release);
        stats
    });
    assert_eq!(stats.chunks_folded, stats.blocks_total);
    black_box(builder.finish());
    stats.chunks_folded as u64
}

fn distd_chaos_bench(c: &mut Criterion) {
    let eco = EcosystemConfig::tiny_scale().with_sites(64);
    let cfg = CoordConfig {
        shards: 1,
        chunk_visits: 16,
        lease_timeout: Duration::from_millis(300),
        wait_millis: 5,
        ..CoordConfig::new(eco)
    };
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("distd_chaos", |b| {
        b.iter(|| black_box(run_chaotic(&cfg, 2, 0xC5A0_5EED, 4)))
    });
    group.finish();
}

/// Recovery time, measured end to end: the campaign is one 32-visit
/// block, a doomed client leases it and drops the connection, and a
/// healthy worker must wait out the 100ms lease deadline, win the
/// re-issue, and re-crawl the block before the campaign can complete.
/// The median is the fabric's crash-to-recovered wall clock.
fn distd_recovery_bench(c: &mut Criterion) {
    let eco = EcosystemConfig::tiny_scale().with_sites(32).with_days(1);
    let cfg = CoordConfig {
        shards: 1,
        chunk_visits: 32,
        lease_timeout: Duration::from_millis(100),
        ..CoordConfig::new(eco)
    };
    let fingerprint = config_fingerprint(&cfg.eco, cfg.shards, cfg.chunk_visits, &cfg.session);
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("distd_recovery", |b| {
        b.iter(|| {
            let coordinator = Coordinator::bind("127.0.0.1:0", cfg.clone()).expect("bind");
            let addr = coordinator.local_addr().expect("addr").to_string();
            let mut builder = DatasetIndexBuilder::new(cfg.eco.n_sites, cfg.eco.crawl_days);
            // The coordinator only accepts once `run` starts below, so
            // both clients live in the scope; the healthy worker holds
            // off until the crash has landed.
            let crashed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let stats = std::thread::scope(|scope| {
                {
                    // The crash: take the only lease, then vanish.
                    let addr = addr.clone();
                    let crashed = crashed.clone();
                    scope.spawn(move || {
                        let mut doomed = loop {
                            match std::net::TcpStream::connect(&addr) {
                                Ok(s) => break s,
                                Err(_) => std::thread::sleep(Duration::from_millis(2)),
                            }
                        };
                        write_msg(&mut doomed, &Msg::Hello { fingerprint }).expect("hello");
                        let Msg::Welcome { worker_id } = read_msg(&mut doomed).expect("welcome")
                        else {
                            panic!("handshake rejected");
                        };
                        write_msg(&mut doomed, &Msg::RequestLease { worker_id }).expect("request");
                        let Msg::Lease { .. } = read_msg(&mut doomed).expect("lease") else {
                            panic!("doomed client should win the first lease");
                        };
                        drop(doomed);
                        crashed.store(true, std::sync::atomic::Ordering::Release);
                    });
                }
                {
                    // The recovery: a healthy worker waits out the
                    // deadline, wins the re-issue, and re-crawls.
                    let addr = addr.clone();
                    let cfg = cfg.clone();
                    let crashed = crashed.clone();
                    scope.spawn(move || {
                        while !crashed.load(std::sync::atomic::Ordering::Acquire) {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        let wcfg = WorkerConfig {
                            shards: cfg.shards,
                            chunk_visits: cfg.chunk_visits,
                            heartbeat_every: Duration::from_millis(50),
                            ..WorkerConfig::new(addr, cfg.eco.clone())
                        };
                        run_worker(&wcfg).expect("worker");
                    });
                }
                coordinator
                    .run(&mut |chunk| builder.push_chunk(&chunk))
                    .expect("coordinator")
            });
            assert_eq!(stats.leases_reissued, 1, "the crashed lease must be re-issued");
            black_box(builder.finish())
        })
    });
    group.finish();
}

criterion_group!(benches, distd_local_bench, distd_recovery_bench, distd_chaos_bench);
criterion_main!(benches);

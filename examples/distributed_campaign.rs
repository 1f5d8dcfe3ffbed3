//! A distributed campaign on one machine: a lease coordinator plus N
//! local workers, with a simulated worker crash thrown in so the fabric's
//! recovery machinery has something to do.
//!
//! The coordinator folds chunks into the incremental figure index in
//! `(day, shard, seq)` order — the same order the single-process campaign
//! streams them — so the resulting figures are byte-identical to
//! `run_campaign_streamed` over the same universe, crashes and all.
//!
//! Run with: `cargo run --release --example distributed_campaign`

use hb_repro::analysis::DatasetIndexBuilder;
use hb_repro::distd::{
    config_fingerprint, recv_msg, run_worker, send_msg, CoordConfig, Coordinator, Msg,
    TcpTransport, WorkerConfig,
};
use hb_repro::ecosystem::EcosystemConfig;
use std::time::{Duration, Instant};

const WORKERS: usize = 3;

fn main() {
    let eco_cfg = EcosystemConfig::tiny_scale();
    let cfg = CoordConfig {
        chunk_visits: 32,
        shards: 2,
        // Short lease so the simulated crash recovers quickly.
        lease_timeout: Duration::from_millis(500),
        ..CoordConfig::new(eco_cfg.clone())
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg.clone()).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("bound addr").to_string();
    println!("coordinator listening on {addr}");

    let mut builder = DatasetIndexBuilder::new(eco_cfg.n_sites, eco_cfg.crawl_days);
    // Raised once the doomed worker has crashed holding a lease; the
    // healthy fleet holds off until then so the recovery actually has a
    // lapsed lease to recover.
    let crash_landed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (stats, per_worker) = std::thread::scope(|scope| {
        // A doomed worker: takes one lease and "crashes" (drops the
        // connection without submitting). Its lease lapses and the block
        // is re-issued to a healthy worker. The coordinator only starts
        // accepting once `run` is called below, so this thread must not
        // be joined before then — it signals through the flag instead.
        {
            let addr = addr.clone();
            let cfg = cfg.clone();
            let crash_landed = crash_landed.clone();
            scope.spawn(move || {
                let fp = config_fingerprint(&cfg.eco, cfg.shards, cfg.chunk_visits, &cfg.session);
                let stream = loop {
                    match std::net::TcpStream::connect(&addr) {
                        Ok(s) => break s,
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                };
                let mut conn = TcpTransport::new(stream).expect("transport");
                send_msg(&mut conn, &Msg::Hello { fingerprint: fp }).expect("hello");
                let Msg::Welcome { worker_id } = recv_msg(&mut conn).expect("welcome") else {
                    panic!("handshake rejected");
                };
                send_msg(&mut conn, &Msg::RequestLease { worker_id }).expect("request");
                match recv_msg(&mut conn).expect("lease") {
                    Msg::Lease { lease_id, .. } => {
                        println!("worker X  crashed holding lease {lease_id} (simulated)");
                    }
                    other => println!("worker X  got {other:?} instead of a lease"),
                }
                // Dropping the connection here is the crash.
                crash_landed.store(true, std::sync::atomic::Ordering::Release);
            });
        }

        // The healthy fleet.
        let handles: Vec<_> = (0..WORKERS)
            .map(|i| {
                let addr = addr.clone();
                let cfg = cfg.clone();
                let crash_landed = crash_landed.clone();
                scope.spawn(move || {
                    while !crash_landed.load(std::sync::atomic::Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    let wcfg = WorkerConfig {
                        shards: cfg.shards,
                        chunk_visits: cfg.chunk_visits,
                        heartbeat_every: Duration::from_millis(200),
                        ..WorkerConfig::new(addr, cfg.eco.clone())
                    };
                    let started = Instant::now();
                    let stats = run_worker(&wcfg).expect("worker run");
                    (i, stats, started.elapsed())
                })
            })
            .collect();

        let stats = coordinator
            .run(&mut |chunk| builder.push_chunk(&chunk))
            .expect("coordinator run");
        let per_worker: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        (stats, per_worker)
    });

    println!();
    for (i, ws, elapsed) in &per_worker {
        let secs = elapsed.as_secs_f64().max(1e-9);
        println!(
            "worker {i}  visits {:>5}  blocks {:>3}  {:>8.0} visits/sec",
            ws.visits,
            ws.blocks_completed,
            ws.visits as f64 / secs,
        );
    }
    println!();
    println!(
        "recovered leases       {}  (re-issued after the simulated crash)",
        stats.leases_reissued
    );
    println!(
        "duplicate chunks dropped {}",
        stats.chunks_duplicate_dropped
    );
    println!("frames rejected        {}", stats.frames_rejected);
    println!(
        "chunks folded          {} / {} blocks",
        stats.chunks_folded, stats.blocks_total
    );

    let index = builder.finish();
    println!(
        "dataset: {} HB visits across {} HB sites — identical bytes to the in-process campaign",
        index.n_hb_visits(),
        index.n_hb_sites()
    );
}

//! Heap high-water budget for the serving plane: one warm shard serving a
//! zipf stream over the degraded 4-provider slice of the `serve_zipf`
//! benchmark.
//!
//! A thread-local counting allocator tracks this thread's live heap bytes
//! and their high-water mark. `serve_requests` runs its one shard on the
//! calling thread, and a warm-up run first derives every site runtime the
//! stream touches into the shared memo, so the mark covers exactly what a
//! shard holds at once: its auction slots, event queue, collected
//! outcomes, and the breaker and latency history of every provider host
//! it touches. A per-host structure that allocates before it is used, or
//! auction state that outlives its auction, fails here.
//!
//! The counts are deterministic for a fixed stream (same inputs, same
//! `Vec` growth), so debug and release measure the same mark.

use hb_repro::ecosystem::{EcosystemConfig, SiteFactory};
use hb_repro::serve::{serve_requests, AdRequest, LoadGenConfig, ServeConfig};
use hb_repro::simnet::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;

/// Measured high-water mark of this serving run, in bytes. While every
/// provider host's `LogHistogram` zero-filled all 1,920 buckets up
/// front, the same run peaked at 2,930,496 B.
const MEASURED_PEAK: i64 = 780_880;

/// The budget: the measured mark plus ~15% for allocator-independent
/// drift (a few more hosts touched, a larger event queue).
const PEAK_BUDGET: i64 = MEASURED_PEAK + MEASURED_PEAK * 15 / 100;

/// System allocator wrapper tracking this thread's live bytes.
struct LiveBytesAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    let live = LIVE.with(|l| {
        let v = l.get() + delta;
        l.set(v);
        v
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LiveBytesAlloc = LiveBytesAlloc;

/// Peak live bytes `f` adds on this thread above what was live when it
/// started.
fn heap_high_water<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let base = LIVE.with(|l| l.get());
    PEAK.with(|p| p.set(base));
    let result = f();
    (PEAK.with(|p| p.get()) - base, result)
}

#[test]
fn serving_heap_high_water_stays_within_budget() {
    let eco = SiteFactory::new(EcosystemConfig::test_scale());
    let net = common::degraded_serving_net(&eco);
    let load = LoadGenConfig {
        n_requests: 4_000,
        n_sites: u64::from(eco.config().n_sites),
        mean_gap: SimDuration::from_millis(10),
        ..LoadGenConfig::default()
    };
    let requests: Vec<AdRequest> = (0..load.n_requests).map(|n| load.request(n)).collect();
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    // Warm-up run: derives every site runtime the stream touches.
    let _ = serve_requests(eco.gen(), &net, &cfg, requests.clone());
    let (peak, report) = heap_high_water(|| serve_requests(eco.gen(), &net, &cfg, requests));
    let s = &report.stats;
    eprintln!(
        "serving heap high-water: {peak} B (budget {PEAK_BUDGET} B) over {} auctions; \
         hedges {} skips {} timeouts {}",
        s.auctions, s.hedges_fired, s.breaker_skips, s.provider_timeouts
    );
    assert_eq!(
        s.auctions, load.n_requests,
        "every request reached the shard"
    );
    assert!(
        s.hedges_fired > 0 && s.breaker_skips > 0 && s.wins_waterfall > 0,
        "the measured run exercises hedges, breaker skips and waterfall fills"
    );
    assert!(
        peak <= PEAK_BUDGET,
        "serving heap high-water {peak} B exceeds budget {PEAK_BUDGET} B"
    );
}

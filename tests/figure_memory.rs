//! Heap high-water budget for the figure path: fold a campaign's chunks
//! into the index, finish it, then build and render every indexed report.
//!
//! A thread-local counting allocator tracks this thread's live heap bytes
//! and their high-water mark. The chunks are crawled (on worker threads)
//! before the measurement starts, so the mark covers exactly what the
//! figure path holds at once: the index under construction, the finished
//! index, every report and the largest transient any builder makes on
//! top. A builder that goes back to copying whole columns, or an index
//! that stores rows only a count reads, fails here.
//!
//! The campaign is the test-scale universe (1,400 sites) crawled for the
//! paper's 34 days, so per-row state outweighs the fixed per-site and
//! per-partner tables the way it does at paper scale. The counts are
//! deterministic for a fixed campaign (same inputs, same `Vec` growth),
//! so debug and release measure the same mark.

use hb_repro::analysis::{indexed_reports, DatasetIndexBuilder};
use hb_repro::crawler::{run_campaign_streamed, CampaignConfig};
use hb_repro::ecosystem::{EcosystemConfig, SiteFactory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Measured high-water mark of this figure path, in bytes. Before the
/// index counted slot sizes and late flags at fold time and the reports
/// sorted in place, the same path peaked at 2,349,450 B.
const MEASURED_PEAK: i64 = 1_337_652;

/// The budget: the measured mark plus ~15% for allocator-independent
/// drift (new report rows, a few more interned strings).
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
fn figure_path_heap_high_water_stays_within_budget() {
    let config = EcosystemConfig {
        crawl_days: 34,
        ..EcosystemConfig::test_scale()
    };
    let mut chunks = Vec::new();
    run_campaign_streamed(
        &SiteFactory::new(config.clone()),
        &CampaignConfig::default(),
        &mut |chunk| chunks.push(chunk),
    );
    let (peak, csv_bytes) = heap_high_water(|| {
        let mut builder = DatasetIndexBuilder::new(config.n_sites, config.crawl_days);
        for chunk in &chunks {
            builder.push_chunk(chunk);
        }
        let ix = builder.finish();
        indexed_reports(&ix)
            .iter()
            .map(|r| {
                assert!(!r.render().is_empty());
                r.to_csv().len()
            })
            .sum::<usize>()
    });
    assert!(csv_bytes > 0);
    eprintln!("figure path heap high-water: {peak} B (budget {PEAK_BUDGET} B)");
    assert!(
        peak <= PEAK_BUDGET,
        "figure path heap high-water {peak} B exceeds budget {PEAK_BUDGET} B"
    );
}

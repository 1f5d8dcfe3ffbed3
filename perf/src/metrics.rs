//! Measurement plumbing: the metric registry, order statistics and the
//! counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Every value this invocation measured, by metric name, in the order the
/// metrics were first recorded. A metric holds one value per repetition;
/// its reported value is the median.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, &'static str, Vec<f64>)>,
}

impl Metrics {
    /// Append one measured value of `name` (one repetition's reading).
    pub fn record(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, u, values)) => {
                assert_eq!(*u, unit, "metric {name} recorded with two units");
                values.push(value);
            }
            None => self.entries.push((name.to_string(), unit, vec![value])),
        }
    }

    /// Unit and per-repetition values of `name`, if it was measured.
    pub fn get(&self, name: &str) -> Option<(&'static str, &[f64])> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, u, v)| (*u, v.as_slice()))
    }

    /// Names of every measured metric.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// Median of `name`'s values, if it was measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(|(_, v)| median(v))
    }
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending-sorted slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Durations in microseconds, sorted ascending.
pub fn sorted_us(samples: &[Duration]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Sum of durations in seconds.
pub fn total_s(samples: &[Duration]) -> f64 {
    samples.iter().map(Duration::as_secs_f64).sum()
}

/// Allocation counting: off unless a traced run switches it on, so
/// untraced runs pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Allocations per thread category (see [`set_thread_category`]).
static ALLOCS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Allocations on threads that set no category.
pub const CAT_OTHER: usize = 0;
/// Allocations on crawl worker threads.
pub const CAT_CRAWL: usize = 1;

thread_local! {
    static CATEGORY: Cell<usize> = const { Cell::new(CAT_OTHER) };
}

/// Attribute the calling thread's allocations to `cat`.
pub fn set_thread_category(cat: usize) {
    CATEGORY.with(|c| c.set(cat));
}

/// Start or stop counting allocations.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted so far in category `cat`.
pub fn allocs(cat: usize) -> u64 {
    ALLOCS[cat].load(Ordering::Relaxed)
}

/// Allocations counted so far in every category.
pub fn allocs_total() -> u64 {
    ALLOCS.iter().map(|a| a.load(Ordering::Relaxed)).sum()
}

fn count_allocation() {
    if COUNTING.load(Ordering::Relaxed) {
        // A const-initialized `Cell` has no destructor, so reading it never
        // allocates and never fails mid-teardown; `try_with` covers both.
        let cat = CATEGORY.try_with(Cell::get).unwrap_or(CAT_OTHER);
        ALLOCS[cat].fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics
// and a destructor-free thread-local, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: as for `dealloc`; `new_size` obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Reset this process's `VmHWM` to its current RSS (Linux ≥ 4.0), so the
/// next reading is the peak of what ran since. Where the kernel refuses,
/// readings stay the process peak so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

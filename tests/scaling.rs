//! Multi-worker scaling gate: eight oversubscribed campaign workers must
//! not fall far behind one worker through lock contention in the shared
//! derivation memo or overhead in the worker machinery.
//!
//! One warmed 2,000-site × 1-day universe is crawled in 64-visit blocks
//! (about 40 claimable blocks, enough to keep every worker busy) in 9
//! interleaved rounds at 1 and 8 workers, alternating which goes first.
//! The ratio of the fastest walls must reach a core-aware floor: 0.7 on
//! 1 core, where 8 workers can only tie one; `0.55 × cores` on 2–7
//! cores, where scaling is capped by the core count; 5.0 on 8 or more.
//!
//! The fastest round, not the median, because load from outside the
//! process only ever adds time: on a shared box a busy minute slows most
//! rounds of both worker counts, while contention in the code under test
//! slows every 8-worker round, the fastest included.
//!
//! Timings mean nothing in an unoptimized build, so the floor is enforced
//! only in release (`cargo test --release --test scaling`); a debug run
//! checks only that both worker counts crawl every visit.

use hb_repro::crawler::{run_campaign_streamed, CampaignConfig};
use hb_repro::ecosystem::{EcosystemConfig, SiteFactory};
use std::time::{Duration, Instant};

/// Interleaved timing rounds per worker count.
const ROUNDS: usize = 9;

/// The floor on one core: oversubscription may cost at most 30%.
const ONE_CORE_FLOOR: f64 = 0.7;

/// The floor per core on 2–7 cores: 55% parallel efficiency.
const EFFICIENCY_PER_CORE: f64 = 0.55;

/// The floor on 8 or more cores.
const MANY_CORE_FLOOR: f64 = 5.0;

/// The lowest acceptable `speedup_8w` on a box with `cores` cores.
fn speedup_floor(cores: usize) -> f64 {
    match cores {
        0 | 1 => ONE_CORE_FLOOR,
        2..=7 => EFFICIENCY_PER_CORE * cores as f64,
        _ => MANY_CORE_FLOOR,
    }
}

/// One campaign at `workers`: its visit count and wall time.
fn crawl(factory: &SiteFactory, workers: usize) -> (u64, Duration) {
    let cfg = CampaignConfig {
        parallelism: workers,
        chunk_visits: 64,
        ..CampaignConfig::default()
    };
    let mut visits = 0;
    let start = Instant::now();
    run_campaign_streamed(factory, &cfg, &mut |chunk| visits += chunk.len() as u64);
    (visits, start.elapsed())
}

fn fastest(walls: &[Duration]) -> Duration {
    walls.iter().copied().min().unwrap_or_default()
}

#[test]
fn eight_workers_keep_up_with_one() {
    let factory = SiteFactory::new(
        EcosystemConfig::paper_scale()
            .with_sites(2_000)
            .with_days(1),
    );
    // Warm-up: every derivation lands in the shared memo, so the timed
    // rounds measure the steady state both worker counts share.
    let (visits, _) = crawl(&factory, 1);
    assert!(visits > 2_000, "the sweep plus one revisit day");

    let mut one = Vec::with_capacity(ROUNDS);
    let mut eight = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let order = if round % 2 == 0 { [1, 8] } else { [8, 1] };
        for workers in order {
            let (n, wall) = crawl(&factory, workers);
            assert_eq!(n, visits, "{workers} worker(s) must crawl every visit");
            if workers == 1 {
                one.push(wall);
            } else {
                eight.push(wall);
            }
        }
    }

    let rounds = format!("1w {one:?}, 8w {eight:?}");
    let (one, eight) = (fastest(&one), fastest(&eight));
    let speedup = one.as_secs_f64() / eight.as_secs_f64().max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = speedup_floor(cores);
    eprintln!(
        "scaling: fastest 1w {one:?}, 8w {eight:?} -> speedup_8w {speedup:.3} on {cores} core(s); \
         floor {floor:.3}"
    );
    if !cfg!(debug_assertions) {
        assert!(
            speedup >= floor,
            "speedup_8w {speedup:.3} fell below the {cores}-core floor {floor:.3}; \
             walls per round: {rounds}"
        );
    }
}

//! `serve_zipf`: open-loop zipf traffic over the paper-scale universe
//! through `serve_load_with`, with the degraded 4-provider slice of
//! `benches/serve.rs` so sheds, hedges and breaker trips all occur.

use crate::metrics;
use hb_adtech::Net;
use hb_ecosystem::{EcosystemConfig, ScenarioConfig, SiteFactory};
use hb_serve::{serve_load_with, LoadGenConfig, ServeConfig, ServeReport};
use hb_simnet::{Dist, HostFaultProfile, SimDuration};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed serving shards (part of the workload, not the worker count).
const SHARDS: u32 = 8;
/// Mean arrival gap of the open-loop schedule.
const MEAN_GAP_US: u64 = 400;
/// Providers in the degraded slice.
const DEGRADED_PROVIDERS: usize = 4;

/// The serving inputs a seed defines.
pub struct ServeInputs {
    /// Orchestrator tuning.
    pub cfg: ServeConfig,
    /// The traffic model.
    pub load: LoadGenConfig,
}

/// The serving and traffic seeds derive from the workload seed.
pub fn inputs(seed: u64, eco: &EcosystemConfig, n_requests: u64) -> ServeInputs {
    ServeInputs {
        cfg: ServeConfig {
            seed: seed ^ 0x00AD_5EED_0000,
            shards: SHARDS,
            ..ServeConfig::default()
        },
        load: LoadGenConfig {
            seed: seed ^ 0x10AD_0000,
            n_requests,
            n_sites: u64::from(eco.n_sites),
            mean_gap: SimDuration::from_micros(MEAN_GAP_US),
            ..LoadGenConfig::default()
        },
    }
}

/// Build the universe and the degraded network: the first four non-ad-
/// server partners drop 45% of requests and slow 35% by 220 ms.
pub fn setup(eco: &EcosystemConfig) -> (SiteFactory, Net) {
    let factory = SiteFactory::new(eco.clone());
    let lossy = HostFaultProfile {
        drop_chance: 0.45,
        slow_chance: 0.35,
        slow_penalty_ms: Dist::Const(220.0),
    };
    let slice: Vec<String> = factory
        .specs()
        .iter()
        .filter(|s| !s.is_ad_server)
        .take(DEGRADED_PROVIDERS)
        .map(|s| s.host())
        .collect();
    let scenario = ScenarioConfig::healthy().with_provider_slice(slice, lossy);
    let injector = scenario.injector_for_day(&factory.faults(), 0);
    let net = Net::new(factory.router(), factory.latency(), Arc::new(injector));
    (factory, net)
}

/// One repetition's readings.
pub struct ServeRun {
    /// Universe and network build.
    pub setup: Duration,
    /// Wall time of `serve_load_with`.
    pub wall: Duration,
    /// The serving report.
    pub report: ServeReport,
    /// Allocations during `serve_load_with` (counted runs only).
    pub allocs: u64,
}

/// Serve `seed`'s request stream over `eco` on `workers` threads. With `count_allocs`, the
/// counting allocator is on for the duration of the call.
pub fn run(
    eco: &EcosystemConfig,
    seed: u64,
    n_requests: u64,
    workers: usize,
    count_allocs: bool,
) -> Result<ServeRun, String> {
    let t = Instant::now();
    let (factory, net) = setup(eco);
    let inp = inputs(seed, eco, n_requests);
    let setup = t.elapsed();
    let allocs0 = metrics::allocs_total();
    metrics::set_counting(count_allocs);
    let t = Instant::now();
    let report = serve_load_with(factory.gen(), &net, &inp.cfg, &inp.load, workers, false);
    let wall = t.elapsed();
    metrics::set_counting(false);
    let allocs = metrics::allocs_total() - allocs0;
    check(&report, &inp)?;
    Ok(ServeRun {
        setup,
        wall,
        report,
        allocs,
    })
}

/// The report accounts for every request, and admitted auctions answer
/// within the budget at p99.9.
fn check(report: &ServeReport, inp: &ServeInputs) -> Result<(), String> {
    let s = &report.stats;
    if s.auctions != inp.load.n_requests {
        return Err(format!(
            "{} auctions for {} requests",
            s.auctions, inp.load.n_requests
        ));
    }
    if s.admitted + s.sheds != s.auctions {
        return Err(format!(
            "admitted {} + shed {} != {} auctions",
            s.admitted, s.sheds, s.auctions
        ));
    }
    let budget_ms = inp.cfg.budget.as_micros() as f64 / 1e3;
    let (_, _, p999) = report.latency_ms();
    if p999 > budget_ms {
        return Err(format!("p99.9 {p999} ms exceeds the {budget_ms} ms budget"));
    }
    Ok(())
}

/// Mean cost of `LoadGenConfig::request` over the run's request numbers,
/// in ns.
pub fn time_loadgen(load: &LoadGenConfig) -> f64 {
    let t = Instant::now();
    for n in 0..load.n_requests {
        std::hint::black_box(load.request(std::hint::black_box(n)));
    }
    t.elapsed().as_secs_f64() * 1e9 / load.n_requests.max(1) as f64
}

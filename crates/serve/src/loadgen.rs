//! Synthetic user traffic: a deterministic, random-access load model.
//!
//! `LoadGen` describes millions of simulated users whose site choice is
//! zipf-distributed over the ecosystem's site ranks (the same head-heavy
//! preference the crawl's popularity model uses). The model is *pure*:
//! [`LoadGenConfig::request`] maps a request number straight to its
//! [`AdRequest`] with no sequential state, so serving shards can each
//! walk their own arithmetic slice (`shard, shard + shards, …`) of the
//! stream and the full request set never has to exist in memory.

use hb_simnet::{Rng, SimDuration, SimTime};

use crate::request::AdRequest;

/// The synthetic traffic model.
#[derive(Clone, Copy, Debug)]
pub struct LoadGenConfig {
    /// Seed of the traffic stream (independent of the serving seed).
    pub seed: u64,
    /// Total requests in the stream.
    pub n_requests: u64,
    /// Simulated user population size.
    pub n_users: u64,
    /// Site ranks available (1..=n_sites; callers pass the ecosystem's
    /// site count).
    pub n_sites: u64,
    /// Zipf skew of site preference (1.0 = classic web popularity).
    pub zipf_s: f64,
    /// Mean inter-arrival gap of the whole stream. Each request lands
    /// at `n * gap + jitter` with `jitter < gap`, so arrivals are
    /// strictly monotone along any shard's slice.
    pub mean_gap: SimDuration,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            seed: 0x10AD,
            n_requests: 10_000,
            n_users: 2_000_000,
            n_sites: 200,
            zipf_s: 1.0,
            mean_gap: SimDuration::from_micros(500),
        }
    }
}

impl LoadGenConfig {
    /// The `n`-th request of the stream. Pure in `(config, n)`: any
    /// shard, worker, or replay computes the identical request.
    pub fn request(&self, n: u64) -> AdRequest {
        let mut rng = Rng::new(self.seed).derive_str("loadgen").derive(n);
        let rank = rng.zipf(self.n_sites.max(1), self.zipf_s) as u32;
        let user = rng.below(self.n_users.max(1));
        let gap = self.mean_gap.as_micros().max(1);
        let jitter = rng.below(gap);
        AdRequest {
            id: n,
            rank,
            user,
            arrival: SimTime::from_micros(n * gap + jitter),
        }
    }

    /// Span from the first arrival to the last, plus one budget —
    /// a bound on how long the serving run can take.
    pub fn horizon(&self, budget: SimDuration) -> SimTime {
        let gap = self.mean_gap.as_micros().max(1);
        SimTime::from_micros(self.n_requests.saturating_mul(gap)).saturating_add(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_pure_and_distinct() {
        let cfg = LoadGenConfig::default();
        let a = cfg.request(7);
        assert_eq!(a, cfg.request(7), "pure in (config, n)");
        assert_ne!(a.user, cfg.request(8).user);
        assert!(a.rank >= 1 && a.rank as u64 <= cfg.n_sites);
    }

    #[test]
    fn arrivals_are_strictly_monotone() {
        let cfg = LoadGenConfig::default();
        let mut prev = SimTime::ZERO;
        for n in 0..2_000 {
            let at = cfg.request(n).arrival;
            if n > 0 {
                assert!(at > prev, "request {n} arrives after its predecessor");
            }
            prev = at;
        }
    }

    #[test]
    fn site_preference_is_head_heavy() {
        let cfg = LoadGenConfig {
            n_requests: 20_000,
            ..LoadGenConfig::default()
        };
        let mut head = 0u64;
        for n in 0..cfg.n_requests {
            if cfg.request(n).rank as u64 <= cfg.n_sites / 10 {
                head += 1;
            }
        }
        // Zipf s=1 over 200 sites puts well over half the mass on the
        // top decile; require a conservative margin.
        assert!(
            head * 2 > cfg.n_requests,
            "top 10% of sites got {head}/{} requests",
            cfg.n_requests
        );
    }
}

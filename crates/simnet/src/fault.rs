//! Fault injection for the simulated network.
//!
//! Mirrors the knobs real network test harnesses expose: random request
//! drops (server never answers), random slowdowns (an extra latency penalty),
//! and hard outages of specific endpoints. All decisions are drawn from the
//! caller's RNG so runs stay reproducible.
//!
//! Two levels of ambient policy compose:
//!
//! * the injector-wide `drop_chance`/`slow_chance` apply to every host;
//! * a per-host [`HostFaultProfile`] overrides them for specific endpoints
//!   (how a campaign scenario gives one partner *tier* a worse loss
//!   profile than the rest of the network).
//!
//! Hosts are keyed by [`HStr`], so outage registration and the per-request
//! `decide` lookup are allocation-free: short hostnames stay inline and
//! the set/map are queried straight from the request's `&str` host.

use crate::dist::Dist;
use crate::hash::{FxHashMap, FxHashSet};
use crate::hstr::HStr;
use crate::rng::Rng;
use crate::time::SimDuration;

/// What the fault injector decided for one request.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Deliver, but add this much extra latency.
    Slow(SimDuration),
    /// Drop: the response never arrives.
    Drop,
}

/// Ambient fault overrides for one host (one partner tier's loss profile).
#[derive(Clone, Debug)]
pub struct HostFaultProfile {
    /// Probability a request to this host is silently dropped.
    pub drop_chance: f64,
    /// Probability a request to this host is slowed.
    pub slow_chance: f64,
    /// Extra latency distribution for slowed requests (milliseconds).
    pub slow_penalty_ms: Dist,
}

/// Configurable fault injection policy.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    /// Probability a request is silently dropped.
    pub drop_chance: f64,
    /// Probability a request is slowed.
    pub slow_chance: f64,
    /// Extra latency distribution for slowed requests (milliseconds).
    pub slow_penalty_ms: Dist,
    /// Hosts that are hard-down: every request to them is dropped.
    outages: FxHashSet<HStr>,
    /// Per-host ambient overrides (take precedence over the injector-wide
    /// chances, but never over an outage).
    host_profiles: FxHashMap<HStr, HostFaultProfile>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::none()
    }
}

impl FaultInjector {
    /// No faults at all.
    pub fn none() -> Self {
        FaultInjector {
            drop_chance: 0.0,
            slow_chance: 0.0,
            slow_penalty_ms: Dist::Const(0.0),
            outages: FxHashSet::default(),
            host_profiles: FxHashMap::default(),
        }
    }

    /// A light ambient-loss profile: occasional drops and slowdowns, the
    /// kind of background noise a real crawl sees.
    pub fn ambient() -> Self {
        FaultInjector {
            drop_chance: 0.01,
            slow_chance: 0.05,
            slow_penalty_ms: Dist::log_normal_median(400.0, 0.8).clamped(50.0, 15_000.0),
            outages: FxHashSet::default(),
            host_profiles: FxHashMap::default(),
        }
    }

    /// Builder: set the drop probability.
    pub fn with_drop_chance(mut self, p: f64) -> Self {
        self.drop_chance = p;
        self
    }

    /// Builder: set the slowdown probability and penalty distribution.
    pub fn with_slowdown(mut self, p: f64, penalty_ms: Dist) -> Self {
        self.slow_chance = p;
        self.slow_penalty_ms = penalty_ms;
        self
    }

    /// Builder: mark a host as hard-down.
    pub fn with_outage(mut self, host: impl Into<HStr>) -> Self {
        self.add_outage(host);
        self
    }

    /// Mark a host as hard-down. Passing an [`HStr`] handle (or any
    /// hostname short enough to stay inline) performs no allocation.
    pub fn add_outage(&mut self, host: impl Into<HStr>) {
        self.outages.insert(host.into());
    }

    /// Builder: override the ambient profile for one host.
    pub fn with_host_profile(mut self, host: impl Into<HStr>, profile: HostFaultProfile) -> Self {
        self.set_host_profile(host, profile);
        self
    }

    /// Override the ambient profile for one host.
    pub fn set_host_profile(&mut self, host: impl Into<HStr>, profile: HostFaultProfile) {
        self.host_profiles.insert(host.into(), profile);
    }

    /// Decide the fate of a request to `host`. Allocation-free: the host
    /// is looked up as a borrowed `str` against the interned keys.
    pub fn decide(&self, host: &str, rng: &mut Rng) -> FaultDecision {
        if !self.outages.is_empty() && self.outages.contains(host) {
            return FaultDecision::Drop;
        }
        if !self.host_profiles.is_empty() {
            if let Some(p) = self.host_profiles.get(host) {
                if rng.chance(p.drop_chance) {
                    return FaultDecision::Drop;
                }
                if rng.chance(p.slow_chance) {
                    return FaultDecision::Slow(p.slow_penalty_ms.sample_ms(rng));
                }
                return FaultDecision::Deliver;
            }
        }
        if rng.chance(self.drop_chance) {
            return FaultDecision::Drop;
        }
        if rng.chance(self.slow_chance) {
            return FaultDecision::Slow(self.slow_penalty_ms.sample_ms(rng));
        }
        FaultDecision::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_always_delivers() {
        let inj = FaultInjector::none();
        let mut rng = Rng::new(1);
        for _ in 0..1_000 {
            assert_eq!(inj.decide("x.com", &mut rng), FaultDecision::Deliver);
        }
    }

    #[test]
    fn outage_always_drops() {
        let mut inj = FaultInjector::none();
        inj.add_outage("down.example");
        let mut rng = Rng::new(2);
        assert_eq!(inj.decide("down.example", &mut rng), FaultDecision::Drop);
        assert_eq!(inj.decide("up.example", &mut rng), FaultDecision::Deliver);
    }

    #[test]
    fn outage_accepts_hstr_handles() {
        let host = HStr::from_static("partner-adnet.example");
        let inj = FaultInjector::none().with_outage(host.clone());
        let mut rng = Rng::new(6);
        assert_eq!(inj.decide(&host, &mut rng), FaultDecision::Drop);
    }

    #[test]
    fn drop_rate_statistics() {
        let inj = FaultInjector {
            drop_chance: 0.25,
            ..FaultInjector::none()
        };
        let mut rng = Rng::new(3);
        let n = 20_000;
        let drops = (0..n)
            .filter(|_| inj.decide("h", &mut rng) == FaultDecision::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn slow_adds_positive_penalty() {
        let inj = FaultInjector {
            slow_chance: 1.0,
            slow_penalty_ms: Dist::Const(120.0),
            ..FaultInjector::none()
        };
        let mut rng = Rng::new(4);
        match inj.decide("h", &mut rng) {
            FaultDecision::Slow(d) => assert_eq!(d, SimDuration::from_millis(120)),
            other => panic!("expected Slow, got {other:?}"),
        }
    }

    #[test]
    fn host_profile_overrides_ambient() {
        // Injector-wide: never drops. The overridden host: always drops.
        let inj = FaultInjector::none().with_host_profile(
            "lossy.example",
            HostFaultProfile {
                drop_chance: 1.0,
                slow_chance: 0.0,
                slow_penalty_ms: Dist::Const(0.0),
            },
        );
        let mut rng = Rng::new(5);
        assert_eq!(inj.decide("lossy.example", &mut rng), FaultDecision::Drop);
        assert_eq!(
            inj.decide("clean.example", &mut rng),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn host_profile_slowdown_uses_its_own_penalty() {
        let inj = FaultInjector::none()
            .with_slowdown(1.0, Dist::Const(50.0))
            .with_host_profile(
                "slow.example",
                HostFaultProfile {
                    drop_chance: 0.0,
                    slow_chance: 1.0,
                    slow_penalty_ms: Dist::Const(900.0),
                },
            );
        let mut rng = Rng::new(6);
        match inj.decide("slow.example", &mut rng) {
            FaultDecision::Slow(d) => assert_eq!(d, SimDuration::from_millis(900)),
            other => panic!("expected Slow, got {other:?}"),
        }
        match inj.decide("other.example", &mut rng) {
            FaultDecision::Slow(d) => assert_eq!(d, SimDuration::from_millis(50)),
            other => panic!("expected Slow, got {other:?}"),
        }
    }

    #[test]
    fn outage_beats_host_profile() {
        let inj = FaultInjector::none()
            .with_host_profile(
                "h.example",
                HostFaultProfile {
                    drop_chance: 0.0,
                    slow_chance: 0.0,
                    slow_penalty_ms: Dist::Const(0.0),
                },
            )
            .with_outage("h.example");
        let mut rng = Rng::new(7);
        assert_eq!(inj.decide("h.example", &mut rng), FaultDecision::Drop);
    }
}

//! Campaign-level degraded-network scenarios.
//!
//! A [`ScenarioConfig`] composes independent fault axes on top of a
//! universe configuration:
//!
//! * **scheduled outages** — a host is hard-down for an inclusive range of
//!   sim-days (the partner's `rtb.` waterfall edge goes down with it);
//! * **ambient loss profiles** — per-host drop/slowdown overrides, how one
//!   partner *tier* gets a worse loss profile than the rest of the network;
//! * **degraded links** — per-host latency-model overrides (a congested
//!   route to one endpoint);
//! * **degraded posture** — one switch for the ad path's answer to the
//!   faults (partner, tier and s2s deadlines, one retry, passback; the
//!   durations are fixed constants in `hb_adtech::wrapper`), stamped into
//!   every [`SiteRuntime`](hb_adtech::SiteRuntime) and ad-server account.
//!
//! Everything is deterministic in `(seed, rank, day)`: outage activation is
//! a pure day-range check and ambient decisions are drawn from the visit's
//! own RNG stream, so figure bytes are identical across parallelism and
//! chunk sizes. [`ScenarioConfig::healthy()`] (the default) adds nothing
//! and keeps campaigns byte-identical to a build without scenarios.

use hb_adtech::rtb_edge_host;
use hb_simnet::{FaultInjector, HStr, HostFaultProfile, LatencyModel};

/// A scheduled hard outage: `host` is down for sim-days
/// `from_day..=to_day`. The matching waterfall edge (`rtb.{host}`) is
/// taken down as well, so both the HB bid path and the daisy-chain tier
/// see the outage.
#[derive(Clone, Debug)]
pub struct OutageWindow {
    /// The endpoint that goes dark (a partner catalog host, a provider
    /// ads host, a publisher page — any routable hostname).
    pub host: HStr,
    /// First affected day (inclusive).
    pub from_day: u32,
    /// Last affected day (inclusive).
    pub to_day: u32,
}

impl OutageWindow {
    /// Build a window; days are inclusive on both ends.
    pub fn new(host: impl Into<HStr>, from_day: u32, to_day: u32) -> OutageWindow {
        OutageWindow {
            host: host.into(),
            from_day,
            to_day,
        }
    }

    /// Is the outage active on `day`?
    pub fn active_on(&self, day: u32) -> bool {
        self.from_day <= day && day <= self.to_day
    }
}

/// Composable campaign fault axes. The default ([`ScenarioConfig::healthy`])
/// is the no-op scenario: no outages, no profiles, no degraded links, the
/// degraded posture off — a campaign built with it is byte-identical to
/// one built before scenarios existed.
#[derive(Clone, Debug, Default)]
pub struct ScenarioConfig {
    /// Scheduled per-host outage windows.
    pub outages: Vec<OutageWindow>,
    /// Ambient per-host loss/slowdown overrides (partner-tier profiles).
    pub host_profiles: Vec<(HStr, HostFaultProfile)>,
    /// Per-host latency-model overrides (degraded links).
    pub degraded_links: Vec<(HStr, LatencyModel)>,
    /// Run the ad path's degraded posture (deadlines, one retry,
    /// passback) under the faults.
    pub degraded_posture: bool,
}

impl ScenarioConfig {
    /// The no-op scenario (everything off; baseline byte-identity).
    pub fn healthy() -> ScenarioConfig {
        ScenarioConfig::default()
    }

    /// Builder: schedule an outage of `host` (and its `rtb.` edge) for
    /// days `from_day..=to_day`.
    pub fn with_outage(
        mut self,
        host: impl Into<HStr>,
        from_day: u32,
        to_day: u32,
    ) -> ScenarioConfig {
        self.outages.push(OutageWindow::new(host, from_day, to_day));
        self
    }

    /// Builder: give `host` its own ambient loss/slowdown profile.
    pub fn with_host_profile(
        mut self,
        host: impl Into<HStr>,
        profile: HostFaultProfile,
    ) -> ScenarioConfig {
        self.host_profiles.push((host.into(), profile));
        self
    }

    /// Builder: give every host in a provider slice — and each host's
    /// `rtb.` waterfall edge — the same ambient fault profile. This is
    /// the serving-plane shorthand for "these N providers are degraded":
    /// the serving tests and the `serve_zipf` benchmark use it to push a
    /// deterministic slice of the bidder population into the regime
    /// where circuit breakers trip and hedges fire.
    pub fn with_provider_slice<I, H>(
        mut self,
        hosts: I,
        profile: HostFaultProfile,
    ) -> ScenarioConfig
    where
        I: IntoIterator<Item = H>,
        H: Into<HStr>,
    {
        for host in hosts {
            let host: HStr = host.into();
            self.host_profiles
                .push((rtb_edge_host(&host), profile.clone()));
            self.host_profiles.push((host, profile.clone()));
        }
        self
    }

    /// Builder: override the latency model of the link to `host`.
    pub fn with_degraded_link(
        mut self,
        host: impl Into<HStr>,
        model: LatencyModel,
    ) -> ScenarioConfig {
        self.degraded_links.push((host.into(), model));
        self
    }

    /// Builder: turn the ad path's degraded posture on.
    pub fn with_degraded_posture(mut self) -> ScenarioConfig {
        self.degraded_posture = true;
        self
    }

    /// Do any outage windows exist (on any day)?
    pub fn has_outages(&self) -> bool {
        !self.outages.is_empty()
    }

    /// Apply this scenario's day-independent axes (ambient host profiles)
    /// to a base injector, then the outages active on `day` — each outage
    /// covers both the host and its `rtb.` waterfall edge.
    pub fn injector_for_day(&self, base: &FaultInjector, day: u32) -> FaultInjector {
        let mut inj = base.clone();
        for (host, profile) in &self.host_profiles {
            inj.set_host_profile(host.clone(), profile.clone());
        }
        for outage in &self.outages {
            if outage.active_on(day) {
                inj.add_outage(outage.host.clone());
                inj.add_outage(rtb_edge_host(&outage.host));
            }
        }
        inj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_simnet::{Dist, FaultDecision, Rng, SimDuration};

    #[test]
    fn healthy_is_default_and_noop() {
        assert_eq!(
            format!("{:?}", ScenarioConfig::healthy()),
            format!("{:?}", ScenarioConfig::default())
        );
        assert!(!ScenarioConfig::healthy().has_outages());
        let s = ScenarioConfig::healthy().with_outage("x.example", 0, 3);
        assert!(s.has_outages());
        assert!(!ScenarioConfig::healthy().degraded_posture);
        let s = ScenarioConfig::healthy().with_degraded_posture();
        assert!(s.degraded_posture);
        assert!(!s.has_outages());
    }

    #[test]
    fn outage_window_day_range_is_inclusive() {
        let w = OutageWindow::new("p.example", 2, 4);
        assert!(!w.active_on(1));
        assert!(w.active_on(2));
        assert!(w.active_on(3));
        assert!(w.active_on(4));
        assert!(!w.active_on(5));
    }

    #[test]
    fn injector_covers_host_and_rtb_edge_inside_window() {
        let s = ScenarioConfig::healthy().with_outage("appnexus-adnet.example", 1, 2);
        let base = FaultInjector::none();
        let mut rng = Rng::new(1);

        let day0 = s.injector_for_day(&base, 0);
        assert_eq!(
            day0.decide("appnexus-adnet.example", &mut rng),
            FaultDecision::Deliver
        );

        let day1 = s.injector_for_day(&base, 1);
        assert_eq!(
            day1.decide("appnexus-adnet.example", &mut rng),
            FaultDecision::Drop
        );
        assert_eq!(
            day1.decide("rtb.appnexus-adnet.example", &mut rng),
            FaultDecision::Drop
        );
        assert_eq!(
            day1.decide("other.example", &mut rng),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn injector_applies_ambient_host_profiles_every_day() {
        let s = ScenarioConfig::healthy().with_host_profile(
            "lossy.example",
            HostFaultProfile {
                drop_chance: 1.0,
                slow_chance: 0.0,
                slow_penalty_ms: Dist::Const(0.0),
            },
        );
        let base = FaultInjector::none();
        let mut rng = Rng::new(2);
        for day in 0..3 {
            let inj = s.injector_for_day(&base, day);
            assert_eq!(inj.decide("lossy.example", &mut rng), FaultDecision::Drop);
            assert_eq!(inj.decide("ok.example", &mut rng), FaultDecision::Deliver);
        }
    }

    #[test]
    fn provider_slice_degrades_hosts_and_rtb_edges() {
        let lossy = HostFaultProfile {
            drop_chance: 1.0,
            slow_chance: 0.0,
            slow_penalty_ms: Dist::Const(0.0),
        };
        let s = ScenarioConfig::healthy().with_provider_slice(["p0.example", "p1.example"], lossy);
        assert_eq!(s.host_profiles.len(), 4, "host + rtb edge per provider");
        let base = FaultInjector::none();
        let mut rng = Rng::new(7);
        let inj = s.injector_for_day(&base, 0);
        for host in [
            "p0.example",
            "rtb.p0.example",
            "p1.example",
            "rtb.p1.example",
        ] {
            assert_eq!(inj.decide(host, &mut rng), FaultDecision::Drop, "{host}");
        }
        assert_eq!(inj.decide("p2.example", &mut rng), FaultDecision::Deliver);
    }

    #[test]
    fn degraded_link_builder_records_model() {
        let s = ScenarioConfig::healthy()
            .with_degraded_link("congested.example", LatencyModel::constant(900.0));
        assert_eq!(s.degraded_links.len(), 1);
        let mut rng = Rng::new(3);
        assert_eq!(
            s.degraded_links[0].1.sample(&mut rng),
            SimDuration::from_millis(900)
        );
    }
}

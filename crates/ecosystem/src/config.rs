//! Ecosystem configuration presets.

use crate::scenario::ScenarioConfig;

/// HB adoption rate in the top 5k rank band (paper §4.1: 20–23%).
pub const ADOPTION_TOP: f64 = 0.22;
/// HB adoption rate in the 5k–15k rank band (paper §4.1: 12–17%).
pub const ADOPTION_MID: f64 = 0.15;
/// HB adoption rate in the 15k+ rank band (paper §4.1: 10–12%).
pub const ADOPTION_TAIL: f64 = 0.12;
/// Facet shares `(server, hybrid, client)` (paper §4.6: 48 / 34.7 / 17.3).
pub const FACET_SHARES: (f64, f64, f64) = (0.48, 0.347, 0.173);
/// Base probability a wrapper is misconfigured to fire immediately
/// (paper §5).
pub const MISCONFIG_BASE: f64 = 0.02;
/// Extra misconfiguration probability when the site uses late-prone
/// partners (paper §5, drives Fig. 18).
pub const MISCONFIG_LATE_PRONE_BOOST: f64 = 0.15;
/// Probability a site with a timeout uses the 3 s default (paper §5).
pub const DEFAULT_TIMEOUT_SHARE: f64 = 0.45;
/// Probability a wrapper waits for all partners, with no timeout
/// (paper §5).
pub const NO_TIMEOUT_SHARE: f64 = 0.12;
/// Share of sites that duplicate slots per device class (the >20-slot
/// oddity, paper §5.3).
pub const DEVICE_DUPLICATION_SHARE: f64 = 0.04;

/// The settable knobs of the synthetic ecosystem generator: its seed,
/// size and network conditions. The calibration to the paper's
/// measurements is the constants above.
#[derive(Clone, Debug)]
pub struct EcosystemConfig {
    /// Master seed; every derived stream hangs off this.
    pub seed: u64,
    /// Number of sites in the toplist (paper: 35,000).
    pub n_sites: u32,
    /// Days of daily crawling of HB sites (paper: 34).
    pub crawl_days: u32,
    /// Ambient network fault rates.
    pub drop_chance: f64,
    /// Ambient slowdown chance.
    pub slow_chance: f64,
    /// Degraded-network campaign scenario (outage windows, per-host
    /// profiles, degraded links, ad-path robustness). The default
    /// ([`ScenarioConfig::healthy`]) changes nothing.
    pub scenario: ScenarioConfig,
}

impl EcosystemConfig {
    /// Full paper scale: 35k sites, 34 crawl days.
    pub fn paper_scale() -> EcosystemConfig {
        EcosystemConfig {
            seed: 0x4845_4144_4552, // "HEADER"
            n_sites: 35_000,
            crawl_days: 34,
            drop_chance: 0.004,
            slow_chance: 0.03,
            scenario: ScenarioConfig::healthy(),
        }
    }

    /// Reduced scale for the test suite and examples: same distributions,
    /// 1,400 sites × 3 days.
    pub fn test_scale() -> EcosystemConfig {
        EcosystemConfig {
            n_sites: 1_400,
            crawl_days: 3,
            ..EcosystemConfig::paper_scale()
        }
    }

    /// Tiny scale for fast unit tests: 200 sites × 1 day.
    pub fn tiny_scale() -> EcosystemConfig {
        EcosystemConfig {
            n_sites: 200,
            crawl_days: 1,
            ..EcosystemConfig::paper_scale()
        }
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> EcosystemConfig {
        self.seed = seed;
        self
    }

    /// Override the site count.
    pub fn with_sites(mut self, n: u32) -> EcosystemConfig {
        self.n_sites = n;
        self
    }

    /// Override the crawl duration.
    pub fn with_days(mut self, d: u32) -> EcosystemConfig {
        self.crawl_days = d;
        self
    }

    /// Override the degraded-network scenario.
    pub fn with_scenario(mut self, scenario: ScenarioConfig) -> EcosystemConfig {
        self.scenario = scenario;
        self
    }

    /// The adoption probability for a 1-based rank.
    pub fn adoption_for_rank(&self, rank: u32) -> f64 {
        // Bands scale with the configured universe so reduced-scale runs
        // keep the same head/middle/tail structure.
        let top_band = self.n_sites / 7; // 5k of 35k
        let mid_band = 3 * self.n_sites / 7; // 15k of 35k
        if rank <= top_band.max(1) {
            ADOPTION_TOP
        } else if rank <= mid_band.max(2) {
            ADOPTION_MID
        } else {
            ADOPTION_TAIL
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_table1() {
        let c = EcosystemConfig::paper_scale();
        assert_eq!(c.n_sites, 35_000);
        assert_eq!(c.crawl_days, 34);
        let (s, h, cl) = FACET_SHARES;
        assert!((s + h + cl - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adoption_bands_follow_rank() {
        let c = EcosystemConfig::paper_scale();
        assert_eq!(c.adoption_for_rank(1), 0.22);
        assert_eq!(c.adoption_for_rank(5_000), 0.22);
        assert_eq!(c.adoption_for_rank(5_001), 0.15);
        assert_eq!(c.adoption_for_rank(15_000), 0.15);
        assert_eq!(c.adoption_for_rank(15_001), 0.12);
        assert_eq!(c.adoption_for_rank(35_000), 0.12);
    }

    #[test]
    fn expected_adoption_near_paper_rate() {
        // One seventh of the toplist is the top band, two sevenths the
        // middle band, four sevenths the tail.
        let e = (ADOPTION_TOP + 2.0 * ADOPTION_MID + 4.0 * ADOPTION_TAIL) / 7.0;
        assert!((e - 0.1428).abs() < 0.01, "expected {e}");
    }

    #[test]
    fn scaled_bands_preserve_structure() {
        let c = EcosystemConfig::tiny_scale();
        assert_eq!(c.adoption_for_rank(1), ADOPTION_TOP);
        assert_eq!(c.adoption_for_rank(200), ADOPTION_TAIL);
    }

    #[test]
    fn builders() {
        let c = EcosystemConfig::test_scale()
            .with_seed(9)
            .with_sites(50)
            .with_days(2);
        assert_eq!(c.seed, 9);
        assert_eq!(c.n_sites, 50);
        assert_eq!(c.crawl_days, 2);
    }
}

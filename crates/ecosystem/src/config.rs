//! Ecosystem configuration presets.

use crate::scenario::ScenarioConfig;

/// All knobs of the synthetic ecosystem generator.
#[derive(Clone, Debug)]
pub struct EcosystemConfig {
    /// Master seed; every derived stream hangs off this.
    pub seed: u64,
    /// Number of sites in the toplist (paper: 35,000).
    pub n_sites: u32,
    /// Days of daily crawling of HB sites (paper: 34).
    pub crawl_days: u32,
    /// HB adoption rate in the top 5k rank band (paper: 20–23%).
    pub adoption_top: f64,
    /// HB adoption rate in the 5k–15k band (paper: 12–17%).
    pub adoption_mid: f64,
    /// HB adoption rate in the 15k+ band (paper: 10–12%).
    pub adoption_tail: f64,
    /// Facet shares `(server, hybrid, client)` (paper: 48 / 34.7 / 17.3).
    pub facet_shares: (f64, f64, f64),
    /// Base probability a wrapper is misconfigured to fire immediately.
    pub misconfig_base: f64,
    /// Extra misconfiguration probability when the site uses late-prone
    /// partners (drives Fig. 18).
    pub misconfig_late_prone_boost: f64,
    /// Probability a site with a timeout uses the 3 s default.
    pub default_timeout_share: f64,
    /// Probability a wrapper waits for all partners (no timeout).
    pub no_timeout_share: f64,
    /// Share of sites that duplicate slots per device class (>20 slots
    /// oddity, §5.3).
    pub device_duplication_share: f64,
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
            adoption_top: 0.22,
            adoption_mid: 0.15,
            adoption_tail: 0.12,
            facet_shares: (0.48, 0.347, 0.173),
            misconfig_base: 0.02,
            misconfig_late_prone_boost: 0.15,
            default_timeout_share: 0.45,
            no_timeout_share: 0.12,
            device_duplication_share: 0.04,
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
            self.adoption_top
        } else if rank <= mid_band.max(2) {
            self.adoption_mid
        } else {
            self.adoption_tail
        }
    }

    /// Expected overall adoption rate under the band structure (≈14.28%).
    pub fn expected_adoption(&self) -> f64 {
        (self.adoption_top + 2.0 * self.adoption_mid + 4.0 * self.adoption_tail) / 7.0
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
        let (s, h, cl) = c.facet_shares;
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
        let c = EcosystemConfig::paper_scale();
        let e = c.expected_adoption();
        assert!((e - 0.1428).abs() < 0.01, "expected {e}");
    }

    #[test]
    fn scaled_bands_preserve_structure() {
        let c = EcosystemConfig::tiny_scale();
        assert_eq!(c.adoption_for_rank(1), c.adoption_top);
        assert_eq!(c.adoption_for_rank(200), c.adoption_tail);
    }

    #[test]
    fn builders() {
        let c = EcosystemConfig::test_scale().with_seed(9).with_sites(50).with_days(2);
        assert_eq!(c.seed, 9);
        assert_eq!(c.n_sites, 50);
        assert_eq!(c.crawl_days, 2);
    }
}

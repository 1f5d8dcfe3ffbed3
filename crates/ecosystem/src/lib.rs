//! # hb-ecosystem
//!
//! The synthetic web + ad-tech universe the crawler measures: the
//! 84-partner catalog with per-partner calibration ([`catalog`]),
//! rank-banded publisher profiles ([`publisher`]), Alexa-style toplists
//! with yearly churn ([`toplist`]), Wayback-style historical snapshots
//! ([`wayback`]), ad-size popularity tables ([`sizes`]), and the world
//! assembly wiring everything into one routable simulated Internet
//! ([`world`]).
//!
//! [`SiteFactory`] is the universe: built from a single seed in
//! O(catalog), it derives any site on demand and hands the crawler
//! everything it needs: a `Send + Sync` router, the latency directory,
//! the detector's partner list, per-site runtimes and per-visit RNG
//! streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod config;
pub mod factory;
pub mod publisher;
pub mod scenario;
pub mod sizes;
pub mod toplist;
pub mod wayback;
pub mod world;

pub use catalog::PartnerSpec;
pub use config::EcosystemConfig;
pub use factory::{SiteFactory, SiteGen};
pub use hb_adtech::CDN_HOST;
pub use publisher::{DeriveCtx, DeriveScratch, SiteProfile};
pub use scenario::{OutageWindow, ScenarioConfig};
pub use toplist::{site_domain, site_domain_hstr, TopList, YEARLY_OVERLAPS};
pub use wayback::{snapshot, yearly_archive, Snapshot, YEARLY_ADOPTION};
pub use world::render_page_html;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_tiny_universe() {
        let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
        assert_eq!(factory.config().n_sites, 200);
        assert_eq!(factory.sites().count(), 200);
        assert_eq!(factory.specs().len(), 84);
        assert_eq!(factory.partner_list().len(), 84);
        let hb = factory.hb_sites().count();
        assert!(hb > 10 && hb < 60, "hb sites {hb}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SiteFactory::new(EcosystemConfig::tiny_scale());
        let b = SiteFactory::new(EcosystemConfig::tiny_scale());
        for (sa, sb) in a.sites().zip(b.sites()) {
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn visit_rng_streams_are_stable_and_distinct() {
        let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
        let mut a = factory.visit_rng(5, 2);
        let mut b = factory.visit_rng(5, 2);
        let mut c = factory.visit_rng(5, 3);
        let mut d = factory.visit_rng(6, 2);
        let first = a.next_u64();
        assert_eq!(first, b.next_u64());
        assert_ne!(first, c.next_u64(), "days must not share a stream");
        assert_ne!(first, d.next_u64(), "sites must not share a stream");
    }
}

//! Property tests for ecosystem generation invariants across arbitrary
//! seeds and ranks.

use hb_adtech::HbFacet;
use hb_ecosystem::{catalog, EcosystemConfig};
use hb_simnet::Rng;
use proptest::prelude::*;

fn gen_site(seed: u64, rank: u32) -> hb_ecosystem::SiteProfile {
    let cfg = EcosystemConfig::paper_scale();
    let specs = catalog::catalog();
    let providers = catalog::providers(&specs);
    let pool = catalog::s2s_pool(&specs);
    let mut rng = Rng::new(seed).derive(rank as u64);
    hb_ecosystem::publisher::generate_site(&cfg, &specs, &providers, &pool, rank, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated site satisfies the structural invariants.
    #[test]
    fn site_invariants(seed in any::<u64>(), rank in 1u32..35_000) {
        let site = gen_site(seed, rank);
        prop_assert_eq!(&site.domain, &format!("pub{rank}.example"));
        // Partner ids are within the catalog.
        for &i in &site.client_partner_ids {
            prop_assert!(i < 84);
        }
        for &i in &site.s2s_partner_ids {
            prop_assert!(i < 84);
        }
        // No duplicate client partners.
        let mut ids = site.client_partner_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), site.client_partner_ids.len());
        // Facet-specific structure.
        match site.facet {
            Some(HbFacet::ServerSide) => {
                prop_assert!(site.client_partner_ids.is_empty());
                prop_assert!(site.provider_id.is_some());
                prop_assert!(!site.s2s_partner_ids.is_empty());
                prop_assert!(!site.wrapper.send_immediately);
            }
            Some(HbFacet::ClientSide) => {
                prop_assert!(site.provider_id.is_none());
                prop_assert!(!site.client_partner_ids.is_empty());
                prop_assert!(site.s2s_partner_ids.is_empty());
            }
            Some(HbFacet::Hybrid) => {
                prop_assert!(site.provider_id.is_some());
                prop_assert!(!site.client_partner_ids.is_empty());
            }
            None => {
                prop_assert!(site.client_partner_ids.is_empty());
                prop_assert!(site.provider_id.is_none());
            }
        }
        // Every site has a waterfall chain and at least one ad unit.
        prop_assert!(!site.waterfall_tier_ids.is_empty());
        prop_assert!(!site.ad_units.is_empty());
        prop_assert!(site.ad_units.len() <= 84, "unit count sane");
        // Slot codes are unique.
        let mut codes: Vec<&str> = site.ad_units.iter().map(|u| u.code.as_str()).collect();
        codes.sort_unstable();
        codes.dedup();
        prop_assert_eq!(codes.len(), site.ad_units.len());
        // Network quality within the modelled band.
        prop_assert!(site.net_quality > 0.5 && site.net_quality < 1.5);
        // Floors are positive and small.
        prop_assert!(site.floor > 0.0 && site.floor < 0.1);
    }

    /// Generation is a pure function of (seed, rank).
    #[test]
    fn generation_deterministic(seed in any::<u64>(), rank in 1u32..10_000) {
        let a = gen_site(seed, rank);
        let b = gen_site(seed, rank);
        prop_assert_eq!(a.facet, b.facet);
        prop_assert_eq!(a.client_partner_ids, b.client_partner_ids);
        prop_assert_eq!(a.ad_units.len(), b.ad_units.len());
        prop_assert_eq!(a.net_quality, b.net_quality);
    }

    /// Partner hosts in the catalog are routable names and unique.
    #[test]
    fn catalog_hosts_unique(_x in 0u8..1) {
        let specs = catalog::catalog();
        let mut hosts: Vec<String> = specs.iter().map(|s| s.host()).collect();
        hosts.sort();
        let before = hosts.len();
        hosts.dedup();
        prop_assert_eq!(hosts.len(), before);
    }

    /// The crawl's derivation path against the plain generator. For every
    /// rank, visited in an arbitrary order so the thread's reused
    /// `DeriveScratch` carries state across ranks, `SiteFactory::site`
    /// (`generate_site_with` over the universe's precomputed tables) must
    /// equal `generate_site` with fresh buffers on the same stream: the
    /// same RNG draws, field for field. (Endpoint-level parity of the lazy
    /// world is `world::tests::lazy_world_matches_eager_world`.)
    #[test]
    fn lazy_factory_matches_eager_generation(
        seed in any::<u64>(),
        n_sites in 1u32..400,
        order_seed in any::<u64>(),
    ) {
        let cfg = EcosystemConfig::tiny_scale().with_seed(seed).with_sites(n_sites);
        let factory = hb_ecosystem::SiteFactory::new(cfg.clone());
        let specs = catalog::catalog();
        let providers = catalog::providers(&specs);
        let pool = catalog::s2s_pool(&specs);
        let root = Rng::new(seed).derive_str("site-profiles");
        let mut ranks: Vec<u32> = (1..=n_sites).collect();
        Rng::new(order_seed).shuffle(&mut ranks);
        for rank in ranks {
            let mut rng = root.derive(rank as u64);
            let eager = hb_ecosystem::publisher::generate_site(
                &cfg, &specs, &providers, &pool, rank, &mut rng,
            );
            prop_assert_eq!(factory.site(rank), eager);
        }
    }
}

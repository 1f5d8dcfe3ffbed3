//! Publisher (site) profile generation.
//!
//! Every site in the toplist gets a deterministic profile: whether it runs
//! HB (rank-banded adoption), which facet, which partners, how many ad
//! units of which sizes, how its wrapper is tuned, and what its waterfall
//! chain looks like. All the marginals are calibrated against the paper's
//! §4–§5 (see DESIGN.md §5).

use crate::catalog::PartnerSpec;
use crate::config::{
    EcosystemConfig, DEFAULT_TIMEOUT_SHARE, DEVICE_DUPLICATION_SHARE, FACET_SHARES, MISCONFIG_BASE,
    MISCONFIG_LATE_PRONE_BOOST, NO_TIMEOUT_SHARE,
};
use crate::sizes::sample_size;
use crate::toplist::site_domain_hstr;
use hb_adtech::{AdUnit, Cpm, HbFacet, PartnerRef, WrapperConfig};
use hb_http::HStr;
use hb_simnet::{Rng, SimDuration};
use std::sync::Arc;

/// Ground-truth profile of one site.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteProfile {
    /// 1-based rank.
    pub rank: u32,
    /// Site hostname (inline [`HStr`]: derivation never heap-allocates it).
    pub domain: HStr,
    /// HB facet; `None` = waterfall-only site.
    pub facet: Option<HbFacet>,
    /// Catalog indices of client-side partners.
    pub client_partner_ids: Vec<usize>,
    /// Catalog index of the server-side provider (server/hybrid).
    pub provider_id: Option<usize>,
    /// Catalog indices of the provider's s2s pool for this account.
    pub s2s_partner_ids: Vec<usize>,
    /// Ad units (slot duplication for devices already applied). Shared so
    /// the runtime and ad-server account reference the same slice instead
    /// of deep-cloning unit lists on every derivation.
    pub ad_units: Arc<[AdUnit]>,
    /// Wrapper tuning.
    pub wrapper: WrapperConfig,
    /// Catalog indices of the waterfall tier partners, in order.
    pub waterfall_tier_ids: Vec<usize>,
    /// Page server latency median (ms), rank-dependent.
    pub page_latency_ms: f64,
    /// Network quality multiplier for the whole visit (head sites < 1).
    pub net_quality: f64,
    /// Direct-order eCPM available to this site, if any.
    pub direct_order_cpm: Option<f64>,
    /// Floor price for HB bids.
    pub floor: f64,
}

impl SiteProfile {
    /// The page URL.
    pub fn url_string(&self) -> String {
        format!("https://{}/", self.domain)
    }

    /// Host of the site's own ad server (client-side facet). Rendered
    /// through a stack buffer — short hosts never touch the heap.
    pub fn own_ad_server_host(&self) -> HStr {
        HStr::from_display(format_args!("ads.{}", self.domain))
    }

    /// Ad-server account id (stack-rendered, inline).
    pub fn account_id(&self) -> HStr {
        HStr::from_display(format_args!("pub-{}", self.rank))
    }

    /// Number of unique demand partners as the paper counts them
    /// (request-level: client partners plus the provider).
    pub fn expected_partner_count(&self) -> usize {
        self.client_partner_ids.len() + usize::from(self.provider_id.is_some())
    }
}

/// Per-facet ad-unit count distribution (Fig. 19: medians 2–6, p90 5–11).
fn sample_unit_count(facet: HbFacet, rng: &mut Rng) -> usize {
    let (pmf, max): (&[f64], usize) = match facet {
        // client: median 3-4
        HbFacet::ClientSide => (&[0.06, 0.16, 0.21, 0.21, 0.13, 0.09, 0.06, 0.04, 0.04], 12),
        // server: median 2-3, but the longest upper tail (Fig. 19: the
        // server-side ECDF crosses above hybrid for the top ~30%)
        HbFacet::ServerSide => (&[0.20, 0.26, 0.16, 0.10, 0.07, 0.05, 0.04, 0.03, 0.09], 14),
        // hybrid: median 5, auctions the most slots for ~70% of sites
        HbFacet::Hybrid => (&[0.03, 0.08, 0.13, 0.16, 0.17, 0.14, 0.10, 0.08, 0.11], 14),
    };
    match rng.weighted_index(pmf) {
        Some(i) if i + 1 < pmf.len() => i + 1,
        _ => pmf.len() + rng.index(max - pmf.len()),
    }
}

/// Client-partner count distributions (drives Fig. 9; see DESIGN.md §5).
fn sample_client_partner_count(facet: HbFacet, rng: &mut Rng) -> usize {
    let pmf: &[f64] = match facet {
        // P(1)=0.23 so that 48% (server) + 17.3%*0.23 + ... lands at ~52%
        // of sites with exactly one partner.
        HbFacet::ClientSide => &[
            0.23, 0.22, 0.18, 0.12, 0.08, 0.05, 0.04, 0.03, 0.02, 0.008, 0.007, 0.006, 0.004,
            0.003, 0.002, 0.002, 0.002, 0.001, 0.001,
        ],
        // Hybrid adds the provider on top, so k here is client-side fanout.
        HbFacet::Hybrid => &[
            0.20, 0.20, 0.15, 0.12, 0.08, 0.06, 0.04, 0.03, 0.028, 0.022, 0.018, 0.014, 0.012,
            0.010, 0.008, 0.006, 0.005, 0.004, 0.003,
        ],
        HbFacet::ServerSide => return 0,
    };
    rng.weighted_index(pmf).map(|i| i + 1).unwrap_or(1)
}

/// Select `k` distinct client partners, weighted by popularity. Top-ranked
/// sites lean toward fast partners (they can afford integration work and
/// care about latency), which drives Fig. 13. The per-rank weights are
/// computed into `weights` (a reusable scratch buffer — cleared, never
/// shrunk), so selection performs no transient allocation.
fn select_client_partners(
    specs: &[PartnerSpec],
    k: usize,
    rank_frac: f64,
    rng: &mut Rng,
    weights: &mut Vec<f64>,
) -> Vec<usize> {
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    weights.clear();
    weights.extend(specs.iter().map(|s| {
        if s.weight <= 0.0 || s.bid_rate <= 0.0 {
            return 0.0;
        }
        // Speed bias for top sites (Fig. 13): head publishers pick
        // sub-300ms partners aggressively and avoid the slow tail.
        let speed_bonus = if s.latency_median_ms < 300.0 {
            1.0 + 3.0 * (1.0 - rank_frac)
        } else if s.latency_median_ms > 600.0 {
            0.25 + 0.75 * rank_frac
        } else {
            1.0
        };
        // Tail sites disproportionately use niche partners.
        let niche_bonus = if s.weight < 0.01 {
            1.0 + rank_frac * 1.5
        } else {
            1.0
        };
        s.weight * speed_bonus * niche_bonus
    }));
    for _ in 0..k {
        match rng.weighted_index(weights) {
            Some(i) => {
                chosen.push(i);
                weights[i] = 0.0;
            }
            None => break,
        }
    }
    chosen
}

/// Reusable per-worker derivation buffers. One lives in thread-local
/// storage next to the factory memos; everything transient a site
/// derivation needs — weight working copies, the rendered-page buffer —
/// draws from here, so a memo miss performs near-zero heap allocation
/// beyond the data that escapes into the memoized profile itself.
#[derive(Default)]
pub struct DeriveScratch {
    /// Working copy of whichever weight table is being sampled-without-
    /// replacement right now (waterfall tiers, client partners, s2s pool).
    pub(crate) weights: Vec<f64>,
    /// Rendered publisher-page buffer (reused by the page-HTML memo path).
    pub(crate) page: String,
}

impl DeriveScratch {
    /// Fresh scratch (buffers grow to steady state on first use).
    pub fn new() -> DeriveScratch {
        DeriveScratch::default()
    }
}

/// Precomputed derivation context: the catalog slices plus the weight
/// tables that are pure functions of the catalog. Built once per universe
/// ([`SiteGen`](crate::factory::SiteGen) owns the templates) so per-site
/// derivation copies weights instead of recomputing-and-allocating them.
#[derive(Clone, Copy)]
pub struct DeriveCtx<'a> {
    /// Generation knobs.
    pub cfg: &'a EcosystemConfig,
    /// Partner calibration specs (index = partner id).
    pub specs: &'a [PartnerSpec],
    /// Provider catalog indices with selection weights.
    pub providers: &'a [(usize, f64)],
    /// Catalog indices eligible for providers' s2s pools.
    pub s2s_pool: &'a [usize],
    /// Waterfall-tier selection weights (index = partner id).
    pub wf_weights: &'a [f64],
    /// Provider selection weights (parallel to `providers`).
    pub provider_weights: &'a [f64],
    /// S2s-pool selection weights (parallel to `s2s_pool`).
    pub s2s_weights: &'a [f64],
}

/// Waterfall-tier weight template (pure in the catalog).
pub fn wf_weight_template(specs: &[PartnerSpec]) -> Vec<f64> {
    specs
        .iter()
        .map(|s| if s.bid_rate > 0.0 { s.weight } else { 0.0 })
        .collect()
}

/// Generate the profile of the site at `rank` (convenience wrapper that
/// builds the weight templates and a throwaway scratch; the crawl path
/// goes through [`generate_site_with`] with both reused).
pub fn generate_site(
    cfg: &EcosystemConfig,
    specs: &[PartnerSpec],
    providers: &[(usize, f64)],
    s2s_pool: &[usize],
    rank: u32,
    rng: &mut Rng,
) -> SiteProfile {
    let wf_weights = wf_weight_template(specs);
    let provider_weights: Vec<f64> = providers.iter().map(|(_, w)| *w).collect();
    let s2s_weights: Vec<f64> = s2s_pool.iter().map(|&i| specs[i].weight).collect();
    let ctx = DeriveCtx {
        cfg,
        specs,
        providers,
        s2s_pool,
        wf_weights: &wf_weights,
        provider_weights: &provider_weights,
        s2s_weights: &s2s_weights,
    };
    generate_site_with(&ctx, rank, rng, &mut DeriveScratch::new())
}

/// Generate the profile of the site at `rank`, drawing every transient
/// buffer from `scratch`. RNG consumption (and therefore the derived
/// profile) is identical to [`generate_site`].
pub fn generate_site_with(
    ctx: &DeriveCtx<'_>,
    rank: u32,
    rng: &mut Rng,
    scratch: &mut DeriveScratch,
) -> SiteProfile {
    let cfg = ctx.cfg;
    let specs = ctx.specs;
    let rank_frac = (rank - 1) as f64 / cfg.n_sites.max(1) as f64;
    let domain = site_domain_hstr(rank);
    let adopted = rng.chance(cfg.adoption_for_rank(rank));

    // Page server latency: head sites run fast origins.
    let page_latency_ms = 25.0 + 130.0 * rank_frac + rng.f64_range(0.0, 40.0);
    // Network quality: premium publishers (and their ad paths) sit on
    // better CDN/peering; the long tail pays an RTT premium (Fig. 13).
    let net_quality = 0.68 + 0.55 * rank_frac.powf(0.6) + rng.f64_range(0.0, 0.12);

    // Waterfall chain (every site has one; HB sites may still fall back).
    // The weight table is copied from the per-universe template into the
    // scratch buffer (selection zeroes chosen entries).
    let n_tiers = 2 + rng.index(3);
    let mut waterfall_tier_ids = Vec::with_capacity(n_tiers);
    let wfw = &mut scratch.weights;
    wfw.clear();
    wfw.extend_from_slice(ctx.wf_weights);
    for _ in 0..n_tiers {
        if let Some(i) = rng.weighted_index(wfw) {
            waterfall_tier_ids.push(i);
            wfw[i] = 0.0;
        }
    }

    let direct_order_cpm = if rng.chance(0.25 - 0.15 * rank_frac) {
        Some(rng.f64_range(0.4, 2.0))
    } else {
        None
    };
    let floor = rng.f64_range(0.005, 0.03);

    if !adopted {
        return SiteProfile {
            rank,
            domain,
            facet: None,
            client_partner_ids: Vec::new(),
            provider_id: None,
            s2s_partner_ids: Vec::new(),
            ad_units: Arc::from([AdUnit::new(
                "ad-slot-1",
                hb_adtech::AdSize::MEDIUM_RECT,
                Cpm(floor),
            )]),
            wrapper: WrapperConfig::default(),
            waterfall_tier_ids,
            page_latency_ms,
            net_quality,
            direct_order_cpm,
            floor,
        };
    }

    // Facet selection (paper §4.6: 48 / 34.7 / 17.3).
    let (sv, hy, _cl) = FACET_SHARES;
    let u = rng.f64();
    let facet = if u < sv {
        HbFacet::ServerSide
    } else if u < sv + hy {
        HbFacet::Hybrid
    } else {
        HbFacet::ClientSide
    };

    // Partners.
    let k = sample_client_partner_count(facet, rng);
    let client_partner_ids = select_client_partners(specs, k, rank_frac, rng, &mut scratch.weights);
    let provider_id = match facet {
        HbFacet::ClientSide => None,
        _ => {
            // Read-only draw: the template needs no working copy.
            let pick = rng.weighted_index(ctx.provider_weights).unwrap_or(0);
            Some(ctx.providers[pick].0)
        }
    };
    // The provider's s2s pool for this account: 4-8 exchange partners,
    // weighted by market share so the big exchanges dominate server-side
    // bid volume (Fig. 11).
    let s2s_partner_ids: Vec<usize> = if provider_id.is_some() {
        let n = 4 + rng.index(5);
        let weights = &mut scratch.weights;
        weights.clear();
        weights.extend_from_slice(ctx.s2s_weights);
        let mut chosen = Vec::with_capacity(n);
        for _ in 0..n {
            match rng.weighted_index(weights) {
                Some(j) => {
                    chosen.push(ctx.s2s_pool[j]);
                    weights[j] = 0.0;
                }
                None => break,
            }
        }
        chosen
    } else {
        Vec::new()
    };

    // Ad units (slot codes stack-rendered into inline `HStr`s).
    let mut n_units = sample_unit_count(facet, rng);
    let duplication = if rng.chance(DEVICE_DUPLICATION_SHARE) {
        4 + rng.index(3) // device-class duplication (>20-slot oddity)
    } else {
        1
    };
    n_units *= duplication;
    let ad_units: Arc<[AdUnit]> = (0..n_units)
        .map(|i| {
            AdUnit::new(
                HStr::from_display(format_args!("ad-slot-{}", i + 1)),
                sample_size(facet, rng),
                Cpm(floor),
            )
        })
        .collect();

    // Wrapper tuning.
    let uses_late_prone = client_partner_ids.iter().any(|&i| specs[i].late_prone);
    let misconfig_p = MISCONFIG_BASE
        + if uses_late_prone {
            MISCONFIG_LATE_PRONE_BOOST
        } else {
            0.0
        }
        + 0.02 * rank_frac;
    let send_immediately = facet != HbFacet::ServerSide && rng.chance(misconfig_p);
    let timeout = if rng.chance(NO_TIMEOUT_SHARE * (0.3 + rank_frac)) {
        // Untuned wrappers that wait for everyone live in the long tail.
        None
    } else if uses_late_prone && rng.chance(0.55) {
        // Sites integrating niche partners are the badly tuned ones: their
        // aggressive timeouts are exactly what starves those partners of
        // their bids (Fig. 18's >=50%-late cast).
        Some(SimDuration::from_millis(300 + rng.below(900)))
    } else if rank_frac < 0.15 && rng.chance(0.6) {
        // Premium publishers clamp the auction hard (Fig. 13).
        Some(SimDuration::from_millis(800 + rng.below(1_200)))
    } else if rng.chance(DEFAULT_TIMEOUT_SHARE) {
        Some(SimDuration::from_millis(3_000))
    } else {
        // Publisher-tuned timeouts skew short; against the slow partners'
        // 600-1300 ms medians this is what produces the partial-late
        // auctions of Fig. 17 and the >=50% late partners of Fig. 18.
        Some(SimDuration::from_millis(400 + rng.below(2_100)))
    };
    let wrapper = WrapperConfig {
        timeout,
        send_immediately,
    };

    SiteProfile {
        rank,
        domain,
        facet: Some(facet),
        client_partner_ids,
        provider_id,
        s2s_partner_ids,
        ad_units,
        wrapper,
        waterfall_tier_ids,
        page_latency_ms,
        net_quality,
        direct_order_cpm,
        floor,
    }
}

/// Build the partner references a runtime needs from catalog indices.
pub fn partner_refs(specs: &[PartnerSpec], ids: &[usize]) -> Vec<PartnerRef> {
    ids.iter()
        .map(|&i| PartnerRef {
            code: hb_http::HStr::from_static(specs[i].code),
            name: hb_http::HStr::from_static(specs[i].name),
            host: specs[i].host().into(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    /// The paper-scale config, the partner catalog, the weighted
    /// providers and the S2S pool.
    type Setup = (
        EcosystemConfig,
        Vec<PartnerSpec>,
        Vec<(usize, f64)>,
        Vec<usize>,
    );

    fn setup() -> Setup {
        let cfg = EcosystemConfig::paper_scale();
        let specs = catalog::catalog();
        let providers = catalog::providers(&specs);
        let pool = catalog::s2s_pool(&specs);
        (cfg, specs, providers, pool)
    }

    fn gen_many(n: u32) -> Vec<SiteProfile> {
        let (cfg, specs, providers, pool) = setup();
        let root = Rng::new(1234);
        (1..=n)
            .map(|rank| {
                let mut rng = root.derive(rank as u64);
                generate_site(&cfg, &specs, &providers, &pool, rank, &mut rng)
            })
            .collect()
    }

    #[test]
    fn adoption_rate_matches_bands() {
        let sites = gen_many(35_000 / 5); // 7k sites is enough signal
        let adopted = sites.iter().filter(|s| s.facet.is_some()).count();
        let rate = adopted as f64 / sites.len() as f64;
        // First 7k of the ranking: 5k at 22%, 2k at 15% → ~20%.
        assert!((rate - 0.20).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn facet_shares_match_paper() {
        let sites = gen_many(30_000);
        let hb: Vec<&SiteProfile> = sites.iter().filter(|s| s.facet.is_some()).collect();
        let share =
            |f: HbFacet| hb.iter().filter(|s| s.facet == Some(f)).count() as f64 / hb.len() as f64;
        assert!((share(HbFacet::ServerSide) - 0.48).abs() < 0.03);
        assert!((share(HbFacet::Hybrid) - 0.347).abs() < 0.03);
        assert!((share(HbFacet::ClientSide) - 0.173).abs() < 0.03);
    }

    #[test]
    fn partner_count_distribution_fig9() {
        let sites = gen_many(30_000);
        let hb: Vec<&SiteProfile> = sites.iter().filter(|s| s.facet.is_some()).collect();
        let n = hb.len() as f64;
        let count_eq = |k: usize| {
            hb.iter()
                .filter(|s| s.expected_partner_count() == k)
                .count() as f64
                / n
        };
        let count_ge = |k: usize| {
            hb.iter()
                .filter(|s| s.expected_partner_count() >= k)
                .count() as f64
                / n
        };
        let one = count_eq(1);
        assert!(one > 0.48 && one < 0.58, "P(=1) = {one}");
        let ge5 = count_ge(5);
        assert!(ge5 > 0.14 && ge5 < 0.26, "P(>=5) = {ge5}");
        let ge10 = count_ge(10);
        assert!(ge10 > 0.02 && ge10 < 0.09, "P(>=10) = {ge10}");
        let max = hb.iter().map(|s| s.expected_partner_count()).max().unwrap();
        assert!(max <= 20, "max partners {max}");
    }

    #[test]
    fn server_side_sites_have_no_client_partners() {
        let sites = gen_many(5_000);
        for s in sites
            .iter()
            .filter(|s| s.facet == Some(HbFacet::ServerSide))
        {
            assert!(s.client_partner_ids.is_empty());
            assert!(s.provider_id.is_some());
            assert!(!s.s2s_partner_ids.is_empty());
            assert!(
                !s.wrapper.send_immediately,
                "server-side has no wrapper to misconfigure"
            );
        }
    }

    #[test]
    fn client_side_sites_have_no_provider() {
        let sites = gen_many(5_000);
        for s in sites
            .iter()
            .filter(|s| s.facet == Some(HbFacet::ClientSide))
        {
            assert!(s.provider_id.is_none());
            assert!(!s.client_partner_ids.is_empty());
        }
    }

    #[test]
    fn dfp_dominates_provider_selection() {
        let (_, specs, _, _) = setup();
        let sites = gen_many(30_000);
        let hb_count = sites.iter().filter(|s| s.facet.is_some()).count() as f64;
        let dfp_count = sites
            .iter()
            .filter(|s| {
                s.provider_id
                    .map(|i| specs[i].code == "dfp")
                    .unwrap_or(false)
            })
            .count() as f64;
        let share = dfp_count / hb_count;
        // server+hybrid ≈ 82.7%, DFP 96% of providers → ≈ 79%.
        assert!(share > 0.72 && share < 0.86, "DFP share {share}");
    }

    #[test]
    fn slot_counts_match_fig19() {
        let sites = gen_many(30_000);
        let med = |f: HbFacet| {
            let mut v: Vec<usize> = sites
                .iter()
                .filter(|s| s.facet == Some(f))
                .map(|s| s.ad_units.len())
                .collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        let (mc, ms, mh) = (
            med(HbFacet::ClientSide),
            med(HbFacet::ServerSide),
            med(HbFacet::Hybrid),
        );
        assert!((2..=6).contains(&mc), "client median {mc}");
        assert!((2..=6).contains(&ms), "server median {ms}");
        assert!((2..=6).contains(&mh), "hybrid median {mh}");
        assert!(mh >= ms && mh >= mc, "hybrid auctions the most slots");
        // ~3% of HB sites offer more than 20 slots.
        let hb: Vec<&SiteProfile> = sites.iter().filter(|s| s.facet.is_some()).collect();
        let over20 = hb.iter().filter(|s| s.ad_units.len() > 20).count() as f64 / hb.len() as f64;
        assert!(over20 > 0.005 && over20 < 0.06, "P(>20 slots) = {over20}");
    }

    #[test]
    fn determinism_per_rank() {
        let (cfg, specs, providers, pool) = setup();
        let root = Rng::new(77);
        let mut a_rng = root.derive(42);
        let mut b_rng = root.derive(42);
        let a = generate_site(&cfg, &specs, &providers, &pool, 42, &mut a_rng);
        let b = generate_site(&cfg, &specs, &providers, &pool, 42, &mut b_rng);
        assert_eq!(a.domain, b.domain);
        assert_eq!(a.facet, b.facet);
        assert_eq!(a.client_partner_ids, b.client_partner_ids);
        assert_eq!(a.ad_units.len(), b.ad_units.len());
    }

    #[test]
    fn every_site_has_a_waterfall_chain() {
        let sites = gen_many(500);
        for s in &sites {
            assert!(
                (2..=4).contains(&s.waterfall_tier_ids.len()),
                "tiers {}",
                s.waterfall_tier_ids.len()
            );
        }
    }

    #[test]
    fn partner_refs_resolve() {
        let (_, specs, _, _) = setup();
        let refs = partner_refs(&specs, &[1, 2]);
        assert_eq!(refs[0].code, "appnexus");
        assert_eq!(refs[1].name, "Rubicon");
        assert!(refs[0].host.ends_with(".example"));
    }
}

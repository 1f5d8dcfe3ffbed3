//! World assembly: wiring the partner catalog and the lazily derived
//! sites into a routable simulated Internet.
//!
//! One [`Router`] serves the whole universe: every publisher page, every
//! publisher-owned ad server (client-side sites), the shared DFP-like
//! providers, all 84 partner endpoints and the CDN. The backbone is
//! registered up front; publisher pages, accounts and latency models are
//! synthesized on demand from the hostname. The router is `Send + Sync`,
//! so the crawler shares one world across worker threads. The only way
//! to get one is [`SiteFactory::new`](crate::SiteFactory::new).

use crate::catalog::PartnerSpec;
use crate::factory::SiteGen;
use crate::publisher::{partner_refs, SiteProfile};
use hb_adtech::{
    partner_endpoint, rtb_edge_host, waterfall_endpoint, AdServerAccount, AdServerEndpoint,
    DirectOrder, HostDirectory, PartnerProfile, PartnerRef, CDN_HOST,
};
use hb_http::{Endpoint, HStr, Request, Response, Router, ServerReply};
use hb_simnet::{LatencyModel, Rng};
use std::fmt::Write as _;
use std::sync::Arc;

/// Render a publisher page into `out` (cleared first), written straight
/// into one buffer: no per-fragment `format!` temporaries, no builder
/// vectors — a memo-missed page render costs only the buffer's
/// steady-state growth.
pub fn render_page_html(site: &SiteProfile, specs: &[PartnerSpec], out: &mut String) {
    out.clear();
    out.push_str("<!DOCTYPE html>\n<html>\n<head>\n<title>");
    let _ = write!(out, "{} — rank {}", site.domain, site.rank);
    out.push_str("</title>\n");
    if site.facet.is_some() {
        out.push_str("<script src=\"https://");
        out.push_str(CDN_HOST);
        out.push_str("/prebid.js\"></script>\n<script src=\"https://");
        out.push_str(CDN_HOST);
        out.push_str("/gpt/pubads_impl.js\"></script>\n<script>");
        let _ = write!(
            out,
            "pbjs.addAdUnits({}); pbjs.requestBids({{timeout: {}}});",
            site.ad_units.len(),
            site.wrapper
                .timeout
                .map(|t| t.as_micros() / 1000)
                .unwrap_or(0),
        );
        out.push_str("</script>\n");
        if !site.client_partner_ids.is_empty() {
            out.push_str("<script>// bidders: ");
            for (i, &pid) in site.client_partner_ids.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(specs[pid].code);
            }
            out.push_str("</script>\n");
        }
    }
    out.push_str("</head>\n<body>\n");
    for unit in site.ad_units.iter() {
        out.push_str("<div id=\"");
        out.push_str(&unit.code);
        out.push_str("\" class=\"ad-unit\"></div>\n");
    }
    if site.facet.is_none() {
        out.push_str("<script src=\"https://");
        out.push_str(CDN_HOST);
        out.push_str("/gpt/pubads_impl.js\"></script>\n");
    }
    out.push_str("</body>\n</html>\n");
}

/// Build the ad-server account for a site (used by its own ad server for
/// client-side sites, or registered at the provider for server/hybrid).
/// `profiles` is the `Arc`-shared partner-profile table — the account
/// references the s2s pool's profiles instead of deep-cloning them.
pub(crate) fn account_for(site: &SiteProfile, profiles: &[Arc<PartnerProfile>]) -> AdServerAccount {
    let direct_orders = site
        .direct_order_cpm
        .map(|cpm| {
            vec![DirectOrder {
                cpm: hb_adtech::Cpm(cpm),
                fill_rate: 0.12,
                sizes: vec![],
            }]
        })
        .unwrap_or_default();
    AdServerAccount {
        account_id: site.account_id(),
        direct_orders,
        fallback_cpm: Some(hb_adtech::Cpm(0.02)),
        floor: hb_adtech::Cpm(site.floor),
        s2s_partners: site
            .s2s_partner_ids
            .iter()
            .map(|&i| profiles[i].clone())
            .collect(),
        ad_units: site.ad_units.clone(),
        // The degraded posture is a campaign-scenario axis; the factory
        // stamps the scenario's switch on top of this baseline account.
        degraded_posture: false,
    }
}

/// Assembled world: router + latency directory.
pub(crate) struct World {
    /// Hostname routing for every endpoint in the universe.
    pub(crate) router: Router,
    /// Per-host latency models.
    pub(crate) latency: HostDirectory,
}

/// Latency model of a publisher page origin.
fn page_latency_model(site: &SiteProfile) -> LatencyModel {
    LatencyModel::log_normal(site.page_latency_ms, 0.3).with_floor(8.0)
}

/// Latency model of a publisher's self-hosted ad server. Markedly slower
/// than Google-grade infrastructure (part of why Client-Side HB is the
/// slow facet).
fn own_ads_latency_model(site: &SiteProfile) -> LatencyModel {
    LatencyModel::log_normal(150.0 + site.page_latency_ms, 0.45).with_floor(20.0)
}

/// Register the toplist-independent backbone: the CDN and every partner's
/// HB + waterfall endpoints. O(catalog), shared by the lazy world and the
/// eager reference world of the tests.
fn register_backbone(
    router: &mut Router,
    latency: &mut HostDirectory,
    specs: &[PartnerSpec],
    profiles: &[PartnerProfile],
) {
    latency.set_default(LatencyModel::log_normal(90.0, 0.4));

    // CDN.
    router.register(CDN_HOST, |r: &Request, _: &mut Rng| {
        ServerReply::instant(Response::text(r.id, "// library"))
    });
    latency.insert(
        CDN_HOST,
        LatencyModel::log_normal(18.0, 0.25).with_floor(4.0),
    );

    // Partner endpoints: every partner serves both the HB bid path and the
    // waterfall RTB path on the same host.
    for (spec, profile) in specs.iter().zip(profiles.iter()) {
        let host = spec.host();
        let hb = partner_endpoint(profile.clone());
        let wf = waterfall_endpoint(
            // Waterfall fill rates are higher than clean-profile HB bid
            // rates (networks monetize remnant aggressively).
            (spec.bid_rate * 4.0).min(0.85),
            profile.price.clone(),
            6.0,
        );
        router.register(host.clone(), move |req: &Request, rng: &mut Rng| {
            if req.url.path.starts_with("/rtb/") {
                wf.handle(req, rng)
            } else {
                hb.handle(req, rng)
            }
        });
        latency.insert(host.clone(), profile.latency.clone());
        // Waterfall tags hit warm, keep-alive ad-server paths on a separate
        // edge (`rtb.<host>`): one hop there is far cheaper than a cold
        // header-auction fan-out, which is what makes the waterfall
        // baseline faster per request (abstract's 3x claim).
        let wf_edge =
            waterfall_endpoint((spec.bid_rate * 4.0).min(0.85), profile.price.clone(), 4.0);
        let rtb_host = rtb_edge_host(&host);
        router.register(rtb_host.clone(), move |req: &Request, rng: &mut Rng| {
            wf_edge.handle(req, rng)
        });
        latency.insert(
            rtb_host,
            LatencyModel::log_normal(82.0, 0.35).with_floor(15.0),
        );
    }
}

/// Endpoint synthesizing publisher pages and publisher-owned ad servers on
/// demand from the hostname (`pub{rank}.example` / `ads.pub{rank}.example`).
/// Derivation is pure in `(seed, rank)`, so replies are byte-identical to
/// per-site registrations of the same profiles.
struct PublisherEndpoint {
    gen: Arc<SiteGen>,
    /// Shared resolver-backed ad server for every client-side site's own
    /// `ads.pub{rank}.example` host.
    own_ads: AdServerEndpoint,
}

impl PublisherEndpoint {
    fn new(gen: &Arc<SiteGen>) -> PublisherEndpoint {
        let g = gen.clone();
        let own_ads = AdServerEndpoint::with_resolver(move |account_id| {
            let rank = g.rank_of_account(account_id)?;
            // Only client-side sites operate an ad server of their own.
            g.account_where(rank, |site| {
                site.facet == Some(hb_adtech::HbFacet::ClientSide)
            })
        });
        PublisherEndpoint {
            gen: gen.clone(),
            own_ads,
        }
    }
}

impl Endpoint for PublisherEndpoint {
    fn handle(&self, req: &Request, rng: &mut Rng) -> ServerReply {
        let host = &req.url.host;
        if let Some(rank) = self.gen.rank_of_page_host(host) {
            // Memoized and shared: rendering the page document per request
            // used to be the costliest repeated derivation on the visit
            // hot path; now the response body is a clone of one `Arc<str>`.
            let html = self.gen.page_html_shared(rank);
            return ServerReply::instant(Response::text(req.id, html));
        }
        if let Some(rest) = host.strip_prefix("ads.") {
            if self.gen.rank_of_page_host(rest).is_some() {
                return self.own_ads.handle(req, rng);
            }
        }
        ServerReply::instant(Response::error(req.id, hb_http::Status::NOT_FOUND))
    }
}

/// Build the lazy world over a derivation core: the partner/CDN backbone
/// and provider ad servers are registered eagerly (O(catalog)); publisher
/// pages, publisher-owned ad servers, provider *accounts* and per-site
/// latency models are synthesized on demand. Construction cost is
/// independent of `config.n_sites`.
pub(crate) fn build_lazy_world(gen: &Arc<SiteGen>) -> World {
    let mut router = Router::new();
    let mut latency = HostDirectory::new();
    register_backbone(&mut router, &mut latency, &gen.specs, &gen.profiles);

    // Provider ad servers: the hosts are known up front (the catalog's
    // ad-server partners); the per-site accounts are derived on demand.
    for (pid, _) in crate::catalog::providers(&gen.specs) {
        let host = gen.specs[pid].host();
        let ads_host = HStr::from_display(format_args!("ads.{host}"));
        let g = gen.clone();
        router.register(
            ads_host.clone(),
            AdServerEndpoint::with_resolver(move |account_id| {
                let rank = g.rank_of_account(account_id)?;
                // An account exists at this provider only if the site
                // actually chose it.
                g.account_where(rank, |site| site.provider_id == Some(pid))
            }),
        );
        latency.insert(ads_host, gen.specs[pid].to_profile(0).latency.clone());
    }

    // Catch-all for the publisher namespace: every `pub{rank}.example`
    // page (and its `ads.` subdomain) resolves through one endpoint.
    // Exact registrations (partners, CDN, providers) take precedence.
    router.register_domain("example", PublisherEndpoint::new(gen));

    // Per-site latency models, derived from the profile on demand. A
    // non-client site has no ad server of its own, so its `ads.` host
    // takes the page host's model (what a suffix walk would find).
    let g = gen.clone();
    latency.set_dynamic(move |host| {
        if let Some(rank) = g.rank_of_page_host(host) {
            return Some(page_latency_model(&g.site_shared(rank)));
        }
        if let Some(rest) = host.strip_prefix("ads.") {
            if let Some(rank) = g.rank_of_page_host(rest) {
                let site = g.site_shared(rank);
                return Some(if site.facet == Some(hb_adtech::HbFacet::ClientSide) {
                    own_ads_latency_model(&site)
                } else {
                    page_latency_model(&site)
                });
            }
        }
        None
    });

    World { router, latency }
}

/// Precomputed per-universe runtime-construction tables: one
/// [`PartnerRef`] and one provider ads-host per partner id, built once
/// (the factory owns them) so deriving a [`SiteRuntime`](hb_adtech::SiteRuntime)
/// clones compact handles instead of re-rendering hostnames.
pub(crate) struct RuntimeCtx {
    /// Partner references (index = partner id).
    refs: Vec<PartnerRef>,
    /// Provider ad-server hosts, `ads.{partner host}` (index = partner id).
    ads_hosts: Vec<HStr>,
    /// The scenario's degraded-posture switch, stamped into every derived
    /// runtime.
    degraded_posture: bool,
}

impl RuntimeCtx {
    /// Build the tables from the catalog (O(catalog), once per universe).
    pub(crate) fn new(specs: &[PartnerSpec], degraded_posture: bool) -> RuntimeCtx {
        let ids: Vec<usize> = (0..specs.len()).collect();
        RuntimeCtx {
            refs: partner_refs(specs, &ids),
            ads_hosts: specs
                .iter()
                .map(|s| HStr::from_display(format_args!("ads.{}", s.host())))
                .collect(),
            degraded_posture,
        }
    }
}

/// Build the per-visit [`SiteRuntime`](hb_adtech::SiteRuntime) from the
/// precomputed tables: partner refs and hostnames are cheap handle
/// clones, ids are stack-rendered, ad units are `Arc`-shared with the
/// profile — a memo-missed runtime derivation performs no transient
/// allocation beyond the vectors that escape into the runtime itself.
pub(crate) fn site_runtime_with(site: &SiteProfile, ctx: &RuntimeCtx) -> hb_adtech::SiteRuntime {
    let ad_server_host = match (site.facet, site.provider_id) {
        (Some(hb_adtech::HbFacet::ClientSide), _) | (None, _) => site.own_ad_server_host(),
        (_, Some(pid)) => ctx.ads_hosts[pid].clone(),
        _ => site.own_ad_server_host(),
    };
    hb_adtech::SiteRuntime {
        // Equivalent to parsing `site.url_string()` ("https://<domain>/"),
        // without rendering and re-parsing the string.
        page_url: hb_http::Url::https(&site.domain, "/"),
        rank: site.rank,
        facet: site.facet,
        ad_units: site.ad_units.clone(),
        client_partners: site
            .client_partner_ids
            .iter()
            .map(|&i| ctx.refs[i].clone())
            .collect(),
        ad_server_host,
        account_id: site.account_id(),
        wrapper: site.wrapper.clone(),
        waterfall_tiers: site
            .waterfall_tier_ids
            .iter()
            .map(|&i| hb_adtech::WaterfallTier {
                partner: ctx.refs[i].clone(),
                floor: hb_adtech::Cpm(site.floor),
            })
            .collect(),
        net_quality: site.net_quality,
        degraded_posture: ctx.degraded_posture,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcosystemConfig;
    use crate::factory::SiteFactory;
    use hb_http::{Body, RequestId, Status, Url};

    /// The eager reference world: every site of `sites` registered up
    /// front. `lazy_world_matches_eager_world` holds the lazy world to it.
    fn build_world(
        sites: &[SiteProfile],
        specs: &[PartnerSpec],
        profiles: &[PartnerProfile],
    ) -> World {
        let mut router = Router::new();
        let mut latency = HostDirectory::new();
        register_backbone(&mut router, &mut latency, specs, profiles);
        let shared: Vec<Arc<PartnerProfile>> = profiles.iter().cloned().map(Arc::new).collect();

        // Provider ad servers (one endpoint per provider host, holding the
        // accounts of every site that chose it).
        let mut provider_accounts: std::collections::HashMap<usize, Vec<AdServerAccount>> =
            std::collections::HashMap::new();
        for site in sites {
            if let Some(pid) = site.provider_id {
                provider_accounts
                    .entry(pid)
                    .or_default()
                    .push(account_for(site, &shared));
            }
        }
        for (pid, accounts) in provider_accounts {
            let host = specs[pid].host();
            // The provider host already serves partner traffic; give the ad
            // server its own subdomain, mirroring ad.doubleclick.net.
            let ads_host = HStr::from_display(format_args!("ads.{host}"));
            router.register(ads_host.clone(), AdServerEndpoint::new(accounts));
            latency.insert(ads_host, specs[pid].to_profile(0).latency.clone());
        }

        // Publisher pages + own ad servers (interned `HStr` hosts end to end:
        // registration clones the compact handle instead of fresh `String`s).
        for site in sites {
            let mut page = String::new();
            render_page_html(site, specs, &mut page);
            let html = HStr::from(page.as_str());
            router.register(site.domain.clone(), move |r: &Request, _: &mut Rng| {
                ServerReply::instant(Response::text(r.id, html.clone()))
            });
            latency.insert(site.domain.clone(), page_latency_model(site));
            if site.facet == Some(hb_adtech::HbFacet::ClientSide) {
                let host = site.own_ad_server_host();
                router.register(
                    host.clone(),
                    AdServerEndpoint::new([account_for(site, &shared)]),
                );
                latency.insert(host, own_ads_latency_model(site));
            }
        }

        World { router, latency }
    }

    /// The tiny universe's factory and every one of its sites.
    fn small_world() -> (SiteFactory, Vec<SiteProfile>) {
        let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
        let sites = factory.sites().collect();
        (factory, sites)
    }

    /// Status and body of `router`'s reply to `req`.
    fn reply(router: &Router, req: &Request, seed: u64) -> Option<(u16, Body)> {
        let mut rng = Rng::new(seed);
        router
            .dispatch(req, &mut rng)
            .map(|r| (r.response.status.0, r.response.body))
    }

    /// The page HTML `router` serves for `site`.
    fn page_html(router: &Router, site: &SiteProfile) -> HStr {
        match reply(router, &page_request(site), 1) {
            Some((_, Body::Text(html))) => html,
            other => panic!("{} served no page: {other:?}", site.domain),
        }
    }

    fn page_request(site: &SiteProfile) -> Request {
        Request::get(RequestId(1), Url::https(&site.domain, "/"))
    }

    /// An ad-server call for `site`'s account at `host`.
    fn ad_request(host: &str, site: &SiteProfile) -> Request {
        Request::get(
            RequestId(2),
            Url::https(host, hb_adtech::protocol::paths::AD_SERVER)
                .with_param("account", site.account_id()),
        )
    }

    #[test]
    fn every_page_host_routes() {
        // The publisher namespace is one catch-all endpoint, so routing
        // alone proves nothing: every page must actually be served, and
        // a rank past the toplist must not be.
        let (factory, sites) = small_world();
        let router = factory.router();
        for site in &sites {
            let (status, body) = reply(&router, &page_request(site), 1).expect("routes");
            assert_eq!(status, Status::OK.0, "{} not served", site.domain);
            assert!(matches!(body, Body::Text(html) if html.contains(site.domain.as_str())));
        }
        let beyond = Request::get(RequestId(1), Url::https("pub201.example", "/"));
        assert_eq!(reply(&router, &beyond, 1).unwrap().0, Status::NOT_FOUND.0);
    }

    #[test]
    fn partner_hosts_route_and_have_latency() {
        let (factory, _) = small_world();
        let (router, latency) = (factory.router(), factory.latency());
        let mut rng = Rng::new(1);
        for spec in factory.specs() {
            let host = spec.host();
            assert!(router.resolve(&host).is_some(), "{host}");
            let sample = latency.lookup(&host).sample(&mut rng);
            assert!(sample.as_micros() > 0);
        }
    }

    #[test]
    fn client_sites_get_own_ad_server() {
        let (factory, sites) = small_world();
        let router = factory.router();
        let mut seen = false;
        for site in sites
            .iter()
            .filter(|s| s.facet == Some(hb_adtech::HbFacet::ClientSide))
        {
            seen = true;
            let host = factory.runtime_for(site).ad_server_host;
            assert_eq!(host, site.own_ad_server_host());
            let status = reply(&router, &ad_request(&host, site), 1).map(|r| r.0);
            assert_eq!(status, Some(Status::OK.0), "{host} has no account");
        }
        assert!(seen, "tiny world should include client-side sites");
    }

    #[test]
    fn provider_sites_point_at_provider_ads_host() {
        let (factory, sites) = small_world();
        let router = factory.router();
        for site in sites.iter().filter(|s| s.provider_id.is_some()) {
            let host = factory.runtime_for(site).ad_server_host;
            assert!(host.starts_with("ads."));
            assert!(host.ends_with("-adnet.example"));
            let status = reply(&router, &ad_request(&host, site), 1).map(|r| r.0);
            assert_eq!(status, Some(Status::OK.0), "{host} has no account");
        }
    }

    #[test]
    fn page_html_reflects_hb_configuration() {
        let (factory, sites) = small_world();
        let router = factory.router();
        let hb_site = sites.iter().find(|s| s.facet.is_some()).unwrap();
        let html = page_html(&router, hb_site);
        assert!(html.contains("prebid.js"));
        assert!(html.contains("ad-slot-1"));
        let plain = sites.iter().find(|s| s.facet.is_none()).unwrap();
        assert!(!page_html(&router, plain).contains("prebid.js"));
    }

    #[test]
    fn lazy_world_matches_eager_world() {
        // The lazy world's claim is byte-parity with the eager one:
        // identical page bodies, identical latency models, identical
        // ad-server decisions for the same (request, rng). Exercise every
        // site of the tiny universe against both worlds.
        let cfg = EcosystemConfig::tiny_scale();
        let gen = Arc::new(SiteGen::new(cfg.clone()));
        let sites: Vec<SiteProfile> = (1..=cfg.n_sites).map(|r| gen.site(r)).collect();
        let eager = build_world(&sites, &gen.specs, &gen.profiles);
        let lazy = build_lazy_world(&gen);

        for site in &sites {
            // Page endpoint parity.
            let page = page_request(site);
            assert_eq!(
                reply(&eager.router, &page, site.rank as u64),
                reply(&lazy.router, &page, site.rank as u64),
                "page body differs for {}",
                site.domain
            );
            // Latency-model parity for the page host and its ads host
            // (the lazy side resolves both dynamically).
            for host in [site.domain.clone(), site.own_ad_server_host()] {
                let mut a = Rng::new(site.rank as u64);
                let mut b = Rng::new(site.rank as u64);
                assert_eq!(
                    eager.latency.lookup(&host).sample(&mut a),
                    lazy.latency.lookup(&host).sample(&mut b),
                    "latency model differs for {host}"
                );
            }
            // Ad-server parity: same decisioning reply from the host the
            // wrapper would actually contact (resolver-derived accounts
            // must equal the eager registrations).
            if site.facet.is_some() {
                let ads_host = gen.runtime_for(site).ad_server_host;
                let req = ad_request(&ads_host, site);
                let a = reply(&eager.router, &req, 1000 + site.rank as u64);
                let b = reply(&lazy.router, &req, 1000 + site.rank as u64);
                assert!(a.is_some(), "eager world drops {ads_host}");
                assert_eq!(a, b, "ad-server reply differs for {}", site.domain);
            }
        }
    }

    #[test]
    fn site_runtime_is_complete() {
        let (factory, sites) = small_world();
        let site = sites.iter().find(|s| s.facet.is_some()).unwrap();
        let rt = factory.runtime_shared(site.rank);
        assert_eq!(rt.rank, site.rank);
        assert_eq!(rt.ad_units.len(), site.ad_units.len());
        assert_eq!(rt.client_partners.len(), site.client_partner_ids.len());
        assert!(!rt.waterfall_tiers.is_empty());
        assert!(!rt.degraded_posture);
    }
}

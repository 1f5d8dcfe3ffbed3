//! Server-side endpoints and host routing.
//!
//! The simulated "Internet" is a router mapping hostnames to [`Endpoint`]
//! implementations. An endpoint receives a request plus a deterministic RNG
//! and returns a [`ServerReply`]: the response together with the server-side
//! processing delay (network RTT is added separately by the latency model).

use crate::hstr::HStr;
use crate::message::{Request, Response};
use hb_simnet::rng::Rng;
use hb_simnet::time::SimDuration;
use hb_simnet::FxHashMap;

/// What a server does with a request.
#[derive(Debug)]
pub struct ServerReply {
    /// The response to deliver.
    pub response: Response,
    /// Server-side processing time (added on top of network RTT).
    pub processing: SimDuration,
}

impl ServerReply {
    /// Reply instantly.
    pub fn instant(response: Response) -> ServerReply {
        ServerReply {
            response,
            processing: SimDuration::ZERO,
        }
    }

    /// Reply after a processing delay.
    pub fn after(response: Response, processing: SimDuration) -> ServerReply {
        ServerReply {
            response,
            processing,
        }
    }
}

/// A simulated remote server.
pub trait Endpoint {
    /// Handle one request. `rng` is a per-request deterministic stream.
    fn handle(&self, req: &Request, rng: &mut Rng) -> ServerReply;
}

impl<F> Endpoint for F
where
    F: Fn(&Request, &mut Rng) -> ServerReply,
{
    fn handle(&self, req: &Request, rng: &mut Rng) -> ServerReply {
        self(req, rng)
    }
}

/// Routes requests to endpoints by hostname.
///
/// Registration supports exact hosts and wildcard-ish base domains: a
/// request to `fast.cdn.example.com` matches a registration for
/// `example.com` when no more specific host is registered.
#[derive(Default)]
pub struct Router {
    // Fx-hashed: resolved twice per request (DNS check + dispatch);
    // lookups only, never iterated for output. Keys are compact `HStr`s
    // (equality/hash delegate to the text), so registering an interned
    // hostname is a handle clone, not a fresh `String`.
    exact: FxHashMap<HStr, Box<dyn Endpoint + Send + Sync>>,
    by_domain: FxHashMap<HStr, Box<dyn Endpoint + Send + Sync>>,
}

impl Router {
    /// Empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Register an endpoint for an exact hostname.
    pub fn register(&mut self, host: impl Into<HStr>, ep: impl Endpoint + Send + Sync + 'static) {
        self.exact
            .insert(host.into().into_lower_ascii(), Box::new(ep));
    }

    /// Register an endpoint for a base domain (matches all subdomains).
    pub fn register_domain(
        &mut self,
        domain: impl Into<HStr>,
        ep: impl Endpoint + Send + Sync + 'static,
    ) {
        self.by_domain
            .insert(domain.into().into_lower_ascii(), Box::new(ep));
    }

    /// Look up the endpoint for a host.
    pub fn resolve(&self, host: &str) -> Option<&dyn Endpoint> {
        if let Some(ep) = self.exact.get(host) {
            return Some(ep.as_ref());
        }
        // Walk suffixes: a.b.c.com -> b.c.com -> c.com
        let mut rest = host;
        loop {
            if let Some(ep) = self.by_domain.get(rest) {
                return Some(ep.as_ref());
            }
            match rest.split_once('.') {
                Some((_, suffix)) if !suffix.is_empty() => rest = suffix,
                _ => return None,
            }
        }
    }

    /// Dispatch a request; `None` when the host is unknown (NXDOMAIN).
    pub fn dispatch(&self, req: &Request, rng: &mut Rng) -> Option<ServerReply> {
        self.resolve(&req.url.host).map(|ep| ep.handle(req, rng))
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.exact.len() + self.by_domain.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.by_domain.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Body, RequestId, Status};
    use crate::url::Url;

    fn req(u: &str) -> Request {
        Request::get(RequestId(1), Url::parse(u).unwrap())
    }

    fn ok_endpoint(tag: &'static str) -> impl Endpoint {
        move |r: &Request, _rng: &mut Rng| ServerReply::instant(Response::text(r.id, tag))
    }

    #[test]
    fn exact_match_wins_over_domain() {
        let mut router = Router::new();
        router.register("api.example.com", ok_endpoint("exact"));
        router.register_domain("example.com", ok_endpoint("domain"));
        let mut rng = Rng::new(1);
        let r = router
            .dispatch(&req("https://api.example.com/x"), &mut rng)
            .unwrap();
        assert_eq!(r.response.body, Body::Text(HStr::from_static("exact")));
        let r2 = router
            .dispatch(&req("https://other.example.com/x"), &mut rng)
            .unwrap();
        assert_eq!(r2.response.body, Body::Text(HStr::from_static("domain")));
    }

    #[test]
    fn unknown_host_is_none() {
        let router = Router::new();
        let mut rng = Rng::new(2);
        assert!(router
            .dispatch(&req("https://ghost.example/x"), &mut rng)
            .is_none());
    }

    #[test]
    fn suffix_walk_matches_deep_subdomains() {
        let mut router = Router::new();
        router.register_domain("adnet.example", ok_endpoint("d"));
        let mut rng = Rng::new(3);
        let r = router
            .dispatch(&req("https://a.b.c.adnet.example/bid"), &mut rng)
            .unwrap();
        assert_eq!(r.response.status, Status::OK);
    }

    #[test]
    fn closure_endpoints_get_rng() {
        let mut router = Router::new();
        router.register("rand.example", |r: &Request, rng: &mut Rng| {
            let v = rng.below(10);
            ServerReply::instant(Response::text(r.id, format!("{v}")))
        });
        let mut rng_a = Rng::new(7);
        let mut rng_b = Rng::new(7);
        let a = router
            .dispatch(&req("https://rand.example/"), &mut rng_a)
            .unwrap();
        let b = router
            .dispatch(&req("https://rand.example/"), &mut rng_b)
            .unwrap();
        assert_eq!(a.response.body, b.response.body, "same seed, same reply");
    }

    #[test]
    fn len_counts_both_kinds() {
        let mut router = Router::new();
        assert!(router.is_empty());
        router.register("a.example", ok_endpoint("a"));
        router.register_domain("b.example", ok_endpoint("b"));
        assert_eq!(router.len(), 2);
    }
}

//! The page-visit simulation world and its network machinery.
//!
//! [`PageWorld`] is the world type driven by `hb_simnet::Simulation`. It
//! owns the browser, the RNG, the connection to the simulated Internet
//! (router + latency directory + fault injector), and whatever per-visit
//! protocol state the active flow (HB wrapper / waterfall) needs.
//!
//! [`Net::exchange`] is the network step, shared by the crawl and the
//! serving plane: route, fault decision, latency sample, then endpoint.
//! [`send_request`] is its browser wrapper: it notifies webRequest
//! observers, applies the site's RTT scale, surfaces failures the way a
//! browser does, serializes the response handler through the page's
//! single JS thread, and finally calls the caller's continuation.

use hb_dom::{Browser, FailureReason};
use hb_http::{MsgScratch, Request, Response, Router, Url};
use hb_simnet::{
    Dist, FaultDecision, FaultInjector, LatencyModel, Rng, Scheduler, SimDuration, SimTime,
};

use std::sync::Arc;

/// Per-host latency directory with domain-suffix fallback.
#[derive(Default)]
pub struct HostDirectory {
    // Fx-hashed: the suffix walk hashes several host strings per request.
    // `HStr` keys: registering an interned hostname never rebuilds it.
    models: hb_simnet::FxHashMap<hb_http::HStr, LatencyModel>,
    /// On-demand model derivation for lazily generated universes: consulted
    /// with the *original* host after the static map (and its suffix walk)
    /// misses, before the default applies.
    dynamic: Option<LatencyResolver>,
    default: Option<LatencyModel>,
}

/// Callback deriving a host's latency model on demand.
pub type LatencyResolver = Box<dyn Fn(&str) -> Option<LatencyModel> + Send + Sync>;

impl HostDirectory {
    /// Empty directory (uses a 80 ms log-normal default).
    pub fn new() -> HostDirectory {
        HostDirectory::default()
    }

    /// Register a latency model for a host (and all its subdomains).
    pub fn insert(&mut self, host: impl Into<hb_http::HStr>, model: LatencyModel) {
        self.models.insert(host.into().into_lower_ascii(), model);
    }

    /// Set the default model for unknown hosts.
    pub fn set_default(&mut self, model: LatencyModel) {
        self.default = Some(model);
    }

    /// Set the dynamic resolver consulted when the static map misses.
    pub fn set_dynamic(
        &mut self,
        resolver: impl Fn(&str) -> Option<LatencyModel> + Send + Sync + 'static,
    ) {
        self.dynamic = Some(Box::new(resolver));
    }

    /// Look up the model for `host` (suffix walk, then dynamic resolver,
    /// then default).
    pub fn lookup(&self, host: &str) -> LatencyModel {
        let mut rest = host;
        loop {
            if let Some(m) = self.models.get(rest) {
                return m.clone();
            }
            match rest.split_once('.') {
                Some((_, suffix)) if !suffix.is_empty() => rest = suffix,
                _ => break,
            }
        }
        if let Some(m) = self.dynamic.as_ref().and_then(|d| d(host)) {
            return m;
        }
        self.default
            .clone()
            .unwrap_or_else(|| LatencyModel::log_normal(80.0, 0.4))
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no hosts are registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// The simulated Internet a visit talks to.
#[derive(Clone)]
pub struct Net {
    /// Hostname → endpoint routing.
    pub router: Arc<Router>,
    /// Hostname → latency model.
    pub latency: Arc<HostDirectory>,
    /// Ambient fault injection.
    pub faults: Arc<FaultInjector>,
}

impl Net {
    /// Wire up a network.
    pub fn new(router: Arc<Router>, latency: Arc<HostDirectory>, faults: Arc<FaultInjector>) -> Net {
        Net {
            router,
            latency,
            faults,
        }
    }

    /// Carry `req` across the network, eagerly: route it, let the fault
    /// injector decide its fate, sample the link latency, then run the
    /// endpoint — drawing from `rng` in exactly that order. An unknown
    /// host draws nothing; a dropped request draws only the fault
    /// decision. The endpoint is a pure function of `(request, rng)`, so
    /// the whole exchange is deterministic at dispatch.
    pub fn exchange(&self, req: &Request, rng: &mut Rng) -> Result<Delivery, FailureReason> {
        let host = &req.url.host;
        let endpoint = self.router.resolve(host).ok_or(FailureReason::NoSuchHost)?;
        let slowdown = match self.faults.decide(host, rng) {
            FaultDecision::Drop => return Err(FailureReason::NetworkDropped),
            FaultDecision::Slow(penalty) => penalty,
            FaultDecision::Deliver => SimDuration::ZERO,
        };
        let rtt = self.latency.lookup(host).sample(rng);
        let reply = endpoint.handle(req, rng);
        Ok(Delivery {
            rtt,
            service: reply.processing + slowdown,
            response: reply.response,
        })
    }
}

/// A request [`Net::exchange`] delivered. It arrives `rtt + service`
/// after it left.
#[derive(Debug)]
pub struct Delivery {
    /// The link's sampled round-trip time (the browser scales it by the
    /// site's network quality).
    pub rtt: SimDuration,
    /// Server processing time plus any fault slowdown.
    pub service: SimDuration,
    /// The endpoint's response.
    pub response: Response,
}

/// How long the browser waits before declaring a dropped request failed.
pub const BROWSER_NET_TIMEOUT: SimDuration = SimDuration(30_000_000);

/// Result of a network exchange, delivered to the continuation.
#[derive(Clone, Debug)]
pub enum NetOutcome {
    /// The response arrived (after JS-thread scheduling).
    Response(Response),
    /// The request could not be delivered or timed out.
    Failed(FailureReason),
}

/// Per-visit world state.
pub struct PageWorld {
    /// The browser instance.
    pub browser: Browser,
    /// The network.
    pub net: Net,
    /// Deterministic randomness for this visit.
    pub rng: Rng,
    /// JS handler service-time distribution (ms per response callback).
    pub handler_service_ms: Dist,
    /// Number of requests currently in flight.
    pub in_flight: u32,
    /// Multiplier applied to all sampled RTTs (site network quality).
    pub rtt_scale: f64,
    /// Auction bookkeeping shared by the flows (wrapper state machine).
    pub flow: crate::wrapper::FlowState,
    /// Per-worker buffer pool: query/header storage recycled between
    /// messages and across visits (see [`MsgScratch`]).
    pub scratch: MsgScratch,
}

/// Default JS handler service-time distribution (ms per response
/// callback) — single source of truth for the cold and pooled paths, so
/// a pooled visit always starts from the same defaults as a fresh world.
const DEFAULT_HANDLER_SERVICE_MS: Dist = Dist::Uniform { lo: 1.0, hi: 6.0 };
/// Default RTT multiplier (neutral until `begin_visit` applies the
/// site's network quality).
const DEFAULT_RTT_SCALE: f64 = 1.0;

impl PageWorld {
    /// Create a world for one visit.
    pub fn new(url: Url, net: Net, rng: Rng) -> PageWorld {
        PageWorld::from_parts(
            Browser::open_untraced(url, SimTime::ZERO),
            net,
            rng,
            MsgScratch::new(),
        )
    }

    /// Create a world around a reused browser and buffer pool — the
    /// pooled crawl path: the worker keeps one browser (with the detector
    /// attached) and one scratch alive across visits and threads them
    /// through here each time.
    pub fn from_parts(browser: Browser, net: Net, rng: Rng, scratch: MsgScratch) -> PageWorld {
        PageWorld {
            browser,
            net,
            rng,
            handler_service_ms: DEFAULT_HANDLER_SERVICE_MS,
            in_flight: 0,
            rtt_scale: DEFAULT_RTT_SCALE,
            flow: crate::wrapper::FlowState::default(),
            scratch,
        }
    }

    /// Re-arm a pooled world for its next visit: per-visit state (RNG,
    /// network handle, flow bookkeeping) returns to the
    /// [`PageWorld::from_parts`] defaults while the browser and the
    /// buffer pools — the expensive parts — stay. The caller resets the
    /// browser separately (it owns the detector taps).
    pub fn reset_for_visit(&mut self, net: Net, rng: Rng) {
        self.net = net;
        self.rng = rng;
        self.handler_service_ms = DEFAULT_HANDLER_SERVICE_MS;
        self.in_flight = 0;
        self.rtt_scale = DEFAULT_RTT_SCALE;
        self.flow.reset_for_visit();
    }

    /// Enable the diagnostic trace (examples / debugging). Toggles the
    /// browser's existing trace in place, so a pooled browser keeps one
    /// ring allocation no matter how often tracing flips on and off.
    pub fn with_trace(mut self) -> PageWorld {
        self.browser.trace.set_capacity(8192);
        self.browser.trace.set_enabled(true);
        self
    }
}

/// Continuation invoked when a request resolves.
///
/// Call sites pass the closure *unboxed*: [`send_request`] is generic
/// over the continuation, which lets the scheduler's type-keyed callback
/// pool recycle each call site's closure (continuation included) instead
/// of paying a fresh `Box<dyn FnOnce>` per request. The boxed form still
/// satisfies the bound for callers that need type erasure.
pub type NetContinuation = Box<dyn FnOnce(&mut PageWorld, &mut Scheduler<PageWorld>, NetOutcome)>;

/// Issue a request on behalf of the page.
///
/// Semantics, in order:
/// 1. webRequest observers see the request leave *now*;
/// 2. [`Net::exchange`] carries it; an unknown host fails fast (DNS
///    error) after a 1 ms bounce, and a dropped exchange surfaces only
///    when the browser's network timeout fires;
/// 3. otherwise the response arrives after the site-scaled RTT plus
///    server processing (+ fault slowdown), observers see it at arrival
///    time, and the continuation runs once the single JS thread has a
///    free slot.
pub fn send_request<F>(
    w: &mut PageWorld,
    s: &mut Scheduler<PageWorld>,
    req: Request,
    on_done: F,
) where
    F: FnOnce(&mut PageWorld, &mut Scheduler<PageWorld>, NetOutcome) + 'static,
{
    w.in_flight += 1;
    w.browser.note_request_out(&req, s.now());
    let delivery = match w.net.exchange(&req, &mut w.rng) {
        Ok(delivery) => delivery,
        Err(reason) => {
            let wait = match reason {
                FailureReason::NoSuchHost => SimDuration::from_millis(1),
                _ => BROWSER_NET_TIMEOUT,
            };
            s.after(wait, move |w: &mut PageWorld, s| {
                w.in_flight -= 1;
                w.browser.note_request_failed(&req, reason.clone(), s.now());
                w.scratch.recycle_request(req);
                on_done(w, s, NetOutcome::Failed(reason));
            });
            return;
        }
    };
    let rtt = SimDuration::from_millis_f64(delivery.rtt.as_millis_f64() * w.rtt_scale.max(0.05));
    let response = delivery.response;
    s.after(rtt + delivery.service, move |w: &mut PageWorld, s| {
        let arrived = s.now();
        w.in_flight -= 1;
        w.browser.note_response_in(&req, &response, arrived);
        // The request's buffers die here; return them to the worker pool.
        w.scratch.recycle_request(req);
        // Serialize the handler through the JS thread.
        let service = w.handler_service_ms.sample_ms(&mut w.rng);
        let slot = w.browser.js.run_task(arrived, service);
        let run_at = slot.end;
        s.at(run_at, move |w: &mut PageWorld, s| {
            on_done(w, s, NetOutcome::Response(response));
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_http::{RequestId, ServerReply, Status};
    use std::rc::Rc as Rc2;
    use hb_simnet::Simulation;

    fn test_net(drop_all: bool) -> Net {
        let mut router = Router::new();
        router.register("fast.example", |r: &Request, _: &mut Rng| {
            ServerReply::instant(Response::text(r.id, "ok"))
        });
        router.register("slow.example", |r: &Request, _: &mut Rng| {
            ServerReply::after(Response::text(r.id, "slow"), SimDuration::from_millis(500))
        });
        let mut latency = HostDirectory::new();
        latency.insert("fast.example", LatencyModel::constant(10.0));
        latency.insert("slow.example", LatencyModel::constant(10.0));
        let faults = if drop_all {
            FaultInjector::none().with_drop_chance(1.0)
        } else {
            FaultInjector::none()
        };
        Net::new(Arc::new(router), Arc::new(latency), Arc::new(faults))
    }

    fn world(net: Net) -> Simulation<PageWorld> {
        let url = Url::parse("https://pub.example/").unwrap();
        Simulation::new(PageWorld::new(url, net, Rng::new(1)))
    }

    #[test]
    fn response_arrives_after_rtt_and_processing() {
        let mut sim = world(test_net(false));
        let req = {
            let w = sim.world_mut();
            let id = w.browser.next_request_id();
            Request::get(id, Url::parse("https://slow.example/x").unwrap())
        };
        let done: Rc2<std::cell::RefCell<Option<SimTime>>> =
            Rc2::new(std::cell::RefCell::new(None));
        let d2 = done.clone();
        {
            let sched = sim.scheduler();
            sched.after(SimDuration::ZERO, move |w: &mut PageWorld, s| {
                send_request(w, s, req, move |_w, s, out| {
                    assert!(matches!(out, NetOutcome::Response(_)));
                    *d2.borrow_mut() = Some(s.now());
                });
            });
        }
        sim.run_to_idle(100);
        let t = done.borrow().unwrap();
        // 10ms RTT + 500ms processing + 1-6ms JS service.
        assert!(t >= SimTime::from_millis(510), "t = {t}");
        assert!(t <= SimTime::from_millis(520), "t = {t}");
        assert_eq!(sim.world().in_flight, 0);
    }

    #[test]
    fn unknown_host_fails_fast() {
        let mut sim = world(test_net(false));
        let req = {
            let w = sim.world_mut();
            let id = w.browser.next_request_id();
            Request::get(id, Url::parse("https://ghost.example/x").unwrap())
        };
        let failed = Rc2::new(std::cell::RefCell::new(false));
        let f2 = failed.clone();
        sim.scheduler().after(SimDuration::ZERO, move |w: &mut PageWorld, s| {
            send_request(
                w,
                s,
                req,
                move |_w, _s, out| {
                    assert!(matches!(
                        out,
                        NetOutcome::Failed(FailureReason::NoSuchHost)
                    ));
                    *f2.borrow_mut() = true;
                },
            );
        });
        sim.run_to_idle(100);
        assert!(*failed.borrow());
        assert!(sim.now() < SimTime::from_millis(5));
    }

    #[test]
    fn dropped_request_surfaces_at_browser_timeout() {
        let mut sim = world(test_net(true));
        let req = {
            let w = sim.world_mut();
            let id = w.browser.next_request_id();
            Request::get(id, Url::parse("https://fast.example/x").unwrap())
        };
        let failed_at = Rc2::new(std::cell::RefCell::new(None));
        let f2 = failed_at.clone();
        sim.scheduler().after(SimDuration::ZERO, move |w: &mut PageWorld, s| {
            send_request(
                w,
                s,
                req,
                move |_w, s, out| {
                    assert!(matches!(
                        out,
                        NetOutcome::Failed(FailureReason::NetworkDropped)
                    ));
                    *f2.borrow_mut() = Some(s.now());
                },
            );
        });
        sim.run_to_idle(100);
        assert_eq!(failed_at.borrow().unwrap(), SimTime::ZERO + BROWSER_NET_TIMEOUT);
    }

    #[test]
    fn js_thread_serializes_continuations() {
        // Two simultaneous responses: the second continuation must run
        // after the first one's service time.
        let mut sim = world(test_net(false));
        let (r1, r2) = {
            let w = sim.world_mut();
            let a = Request::get(
                w.browser.next_request_id(),
                Url::parse("https://fast.example/1").unwrap(),
            );
            let b = Request::get(
                w.browser.next_request_id(),
                Url::parse("https://fast.example/2").unwrap(),
            );
            (a, b)
        };
        let order: Rc2<std::cell::RefCell<Vec<(u64, SimTime)>>> =
            Rc2::new(std::cell::RefCell::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        sim.scheduler().after(SimDuration::ZERO, move |w: &mut PageWorld, s| {
            send_request(
                w,
                s,
                r1,
                move |_w, s, _| o1.borrow_mut().push((1, s.now())),
            );
            send_request(
                w,
                s,
                r2,
                move |_w, s, _| o2.borrow_mut().push((2, s.now())),
            );
        });
        sim.run_to_idle(100);
        let got = order.borrow().clone();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 2);
        assert!(got[1].1 > got[0].1, "second handler queued behind first");
    }

    #[test]
    fn webrequest_observers_see_all_traffic() {
        let mut sim = world(test_net(false));
        let seen = Rc2::new(std::cell::RefCell::new(0u32));
        let s2 = seen.clone();
        sim.world_mut().browser.webrequest.tap(move |_| {
            *s2.borrow_mut() += 1;
        });
        let req = {
            let w = sim.world_mut();
            Request::get(
                w.browser.next_request_id(),
                Url::parse("https://fast.example/y").unwrap(),
            )
        };
        sim.scheduler().after(SimDuration::ZERO, move |w: &mut PageWorld, s| {
            send_request(w, s, req, |_, _, _| {});
        });
        sim.run_to_idle(100);
        assert_eq!(*seen.borrow(), 2, "Before + Completed");
    }

    /// A network whose fault decision, latency and endpoint all draw
    /// from the RNG, so the exchange's draw order shows in its result.
    fn drawing_net(faults: FaultInjector) -> Net {
        let mut router = Router::new();
        router.register("draw.example", |r: &Request, rng: &mut Rng| {
            let body = crate::types::decimal(rng.below(1_000_000));
            ServerReply::after(
                Response::text(r.id, body),
                SimDuration::from_millis(rng.below(50)),
            )
        });
        let mut latency = HostDirectory::new();
        latency.insert("draw.example", LatencyModel::log_normal(80.0, 0.4));
        Net::new(Arc::new(router), Arc::new(latency), Arc::new(faults))
    }

    fn get(host: &str) -> Request {
        Request::get(RequestId(1), Url::https(host, "/x"))
    }

    #[test]
    fn exchange_with_unknown_host_draws_nothing() {
        let net = drawing_net(FaultInjector::none().with_drop_chance(0.5));
        let mut rng = Rng::new(9);
        let mut untouched = rng.clone();
        let out = net.exchange(&get("ghost.example"), &mut rng);
        assert_eq!(out.unwrap_err(), FailureReason::NoSuchHost);
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn dropped_exchange_draws_only_the_fault_decision() {
        let net = drawing_net(FaultInjector::none().with_drop_chance(1.0));
        let mut rng = Rng::new(9);
        let mut hand = rng.clone();
        let out = net.exchange(&get("draw.example"), &mut rng);
        assert_eq!(out.unwrap_err(), FailureReason::NetworkDropped);
        assert_eq!(
            net.faults.decide("draw.example", &mut hand),
            FaultDecision::Drop
        );
        assert_eq!(rng.next_u64(), hand.next_u64());
    }

    #[test]
    fn delivered_exchange_draws_fault_then_latency_then_endpoint() {
        let net = drawing_net(
            FaultInjector::none().with_slowdown(0.5, Dist::Uniform { lo: 10.0, hi: 90.0 }),
        );
        let req = get("draw.example");
        for seed in 0..16 {
            let mut rng = Rng::new(seed);
            let mut hand = rng.clone();
            let got = net.exchange(&req, &mut rng).expect("delivered");
            let slowdown = match net.faults.decide("draw.example", &mut hand) {
                FaultDecision::Slow(penalty) => penalty,
                FaultDecision::Deliver => SimDuration::ZERO,
                FaultDecision::Drop => panic!("no drops configured"),
            };
            let rtt = net.latency.lookup("draw.example").sample(&mut hand);
            let reply = net
                .router
                .resolve("draw.example")
                .unwrap()
                .handle(&req, &mut hand);
            assert_eq!(got.rtt, rtt, "seed {seed}");
            assert_eq!(got.service, reply.processing + slowdown, "seed {seed}");
            assert_eq!(got.response, reply.response, "seed {seed}");
            assert_eq!(
                rng.next_u64(),
                hand.next_u64(),
                "seed {seed}: nothing drawn after the endpoint"
            );
        }
    }

    #[test]
    fn host_directory_suffix_lookup() {
        let mut d = HostDirectory::new();
        d.insert("adnet.example", LatencyModel::constant(42.0));
        let mut rng = Rng::new(1);
        assert_eq!(
            d.lookup("fast.adnet.example").sample(&mut rng),
            SimDuration::from_millis(42)
        );
        // Unknown host gets the default model.
        let dur = d.lookup("unknown.example").sample(&mut rng);
        assert!(dur > SimDuration::ZERO);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn status_helpers() {
        assert!(Status::OK.is_success());
        assert_eq!(RequestId(3), RequestId(3));
    }
}

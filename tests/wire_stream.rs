//! Wire-stream oracle: an XXH64 over every webRequest exchange a
//! test-scale crawl performs — day 0 over the whole toplist plus two
//! revisit days over the HB sites, once healthy and once under a stressed
//! scenario (a lossy partner, an outage, a degraded link and the degraded
//! robustness posture, so the retry, deadline and passback paths shape
//! the stream too).
//!
//! Each exchange hashes its method, its serialized URL (query in order),
//! its serialized request body (compact JSON, text or form), and either the
//! response status and body or the failure reason. Any change to a wire
//! shape builder, a parameter formatter or the RNG draw order moves the
//! digest. This is the request-stream digest ROADMAP item 3 asks to pin
//! before the wrapper and waterfall are routed through one provider layer.
//!
//! The same crawls also pin the detector's other channel, the DOM event
//! stream: each event's name, sim time and compact JSON payload.

mod common;

use common::stressed_scenario;
use hb_repro::adtech::{begin_visit, PageWorld};
use hb_repro::core::xxh64;
use hb_repro::dom::{DomEvent, WebRequestEvent};
use hb_repro::http::{Body, Request};
use hb_repro::prelude::*;
use hb_repro::simnet::Simulation;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

fn write_request(out: &mut String, req: &Request) {
    let _ = writeln!(out, "{} {}", req.method, req.url);
    write_body(out, &req.body);
}

/// A body as `kind:payload`, the payload as it travels on the wire.
fn write_body(out: &mut String, body: &Body) {
    let _ = match body {
        Body::Empty => writeln!(out, "empty:"),
        Body::Text(t) => writeln!(out, "text:{t}"),
        Body::Json(j) => writeln!(out, "json:{}", j.to_string_compact()),
        Body::Form(q) => writeln!(out, "form:{}", q.encode()),
    };
}

/// One of the detector's two observation channels.
#[derive(Clone, Copy)]
enum Channel {
    /// webRequest exchanges, in completion order.
    WebRequest,
    /// DOM events, in firing order.
    Dom,
}

/// Serialized observations of one visit on `channel`.
fn visit_stream(
    eco: &SiteFactory,
    site: &hb_repro::ecosystem::SiteProfile,
    day: u32,
    channel: Channel,
) -> String {
    let session = SessionConfig::default();
    let runtime = Arc::new(eco.runtime_for(site));
    let world = PageWorld::new(
        runtime.page_url.clone(),
        eco.net_for_day(day),
        eco.visit_rng(site.rank, day),
    );
    let mut sim = Simulation::new(world);
    let stream = Rc::new(RefCell::new(String::new()));
    let tap = stream.clone();
    let browser = &mut sim.world_mut().browser;
    match channel {
        Channel::WebRequest => browser.webrequest.tap(move |ev| {
            let mut out = tap.borrow_mut();
            match ev {
                WebRequestEvent::Before { .. } => {}
                WebRequestEvent::Completed {
                    request, response, ..
                } => {
                    write_request(&mut out, request);
                    let _ = writeln!(out, "<- {}", response.status.0);
                    write_body(&mut out, &response.body);
                }
                WebRequestEvent::Failed {
                    request, reason, ..
                } => {
                    write_request(&mut out, request);
                    let _ = writeln!(out, "<- failed {reason:?}");
                }
            }
        }),
        Channel::Dom => browser.events.tap(move |ev: &DomEvent<'_>| {
            let _ = writeln!(
                tap.borrow_mut(),
                "{} {} {}",
                ev.name,
                ev.at.0,
                ev.payload.to_string_compact()
            );
        }),
    }
    sim.scheduler()
        .after(SimDuration::ZERO, move |w: &mut PageWorld, s| {
            begin_visit(w, s, runtime);
        });
    // The crawl session's two phases: the page deadline, then the settle
    // window after load.
    sim.run_until(SimTime::ZERO + session.page_timeout, session.max_events);
    let loaded_at = sim.world().browser.page.loaded.unwrap_or_else(|| sim.now());
    let settle = (loaded_at + session.settle).max(sim.now());
    sim.run_until(
        settle.min(SimTime::ZERO + session.page_timeout + session.settle),
        session.max_events,
    );
    drop(sim);
    Rc::try_unwrap(stream).expect("tap dropped").into_inner()
}

/// The whole `channel` stream of a 3-day crawl over `eco`.
fn campaign_stream(eco: &SiteFactory, channel: Channel) -> String {
    let mut all = String::new();
    for site in eco.sites() {
        all.push_str(&visit_stream(eco, &site, 0, channel));
    }
    for day in 1..=2 {
        for site in eco.hb_sites() {
            all.push_str(&visit_stream(eco, &site, day, channel));
        }
    }
    all
}

/// The healthy and the stressed test-scale factories.
fn factories() -> [SiteFactory; 2] {
    let base = EcosystemConfig::test_scale();
    [
        SiteFactory::new(base.clone()),
        SiteFactory::new(base.clone().with_scenario(stressed_scenario(&base))),
    ]
}

/// XXH64 of a stream and the number of exchanges it holds (every
/// exchange's outcome line follows a body line).
fn digest(stream: &str) -> (u64, usize) {
    (xxh64(stream.as_bytes()), stream.matches("\n<- ").count())
}

#[test]
fn wire_stream_digest_is_pinned() {
    let [healthy, stressed] = factories().map(|eco| campaign_stream(&eco, Channel::WebRequest));
    // The stressed crawl really puts the degraded shapes on the wire:
    // partner retries, waterfall tier retries and failed exchanges.
    for marker in ["hb_retry=1", "&rt=1", "<- failed"] {
        assert!(
            stressed.contains(marker),
            "stressed stream lacks {marker:?}"
        );
    }
    let got = [digest(&healthy), digest(&stressed)];
    println!(
        "wire stream: healthy {:#018x} ({} exchanges), stressed {:#018x} ({} exchanges)",
        got[0].0, got[0].1, got[1].0, got[1].1
    );
    assert_eq!(
        got,
        [
            (0x000d_4127_ccfa_6dcb, 10_485),
            (0x439f_b7da_8897_986b, 10_560),
        ]
    );
}

#[test]
fn dom_event_stream_digest_is_pinned() {
    let [healthy, stressed] = factories().map(|eco| campaign_stream(&eco, Channel::Dom));
    let got = [healthy, stressed].map(|s| (xxh64(s.as_bytes()), s.lines().count()));
    println!(
        "DOM event stream: healthy {:#018x} ({} events), stressed {:#018x} ({} events)",
        got[0].0, got[0].1, got[1].0, got[1].1
    );
    assert_eq!(
        got,
        [
            (0x6e50_1374_11bd_2c79, 5_296),
            (0x44f6_b623_974b_b1f1, 5_384),
        ]
    );
}

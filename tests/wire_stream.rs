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

mod common;

use common::stressed_scenario;
use hb_repro::adtech::{begin_visit, PageWorld};
use hb_repro::core::xxh64;
use hb_repro::dom::WebRequestEvent;
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

fn write_body(out: &mut String, body: &Body) {
    let tag = match body {
        Body::Empty => "empty",
        Body::Text(_) => "text",
        Body::Json(_) => "json",
        Body::Form(_) => "form",
    };
    let _ = writeln!(out, "{tag}:{}", body.as_text().unwrap_or_default());
}

/// Serialized exchanges of one visit, in completion order.
fn visit_stream(eco: &SiteFactory, site: &hb_repro::ecosystem::SiteProfile, day: u32) -> String {
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
    sim.world_mut().browser.webrequest.tap(move |ev| {
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
    });
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

/// The whole wire stream of a 3-day crawl over `eco`.
fn campaign_stream(eco: &SiteFactory) -> String {
    let mut all = String::new();
    for site in eco.sites() {
        all.push_str(&visit_stream(eco, &site, 0));
    }
    for day in 1..=2 {
        for site in eco.hb_sites() {
            all.push_str(&visit_stream(eco, &site, day));
        }
    }
    all
}

/// XXH64 of a stream and the number of exchanges it holds (every
/// exchange's outcome line follows a body line).
fn digest(stream: &str) -> (u64, usize) {
    (xxh64(stream.as_bytes()), stream.matches("\n<- ").count())
}

#[test]
fn wire_stream_digest_is_pinned() {
    let base = EcosystemConfig::test_scale();
    let healthy = SiteFactory::new(base.clone());
    let stressed = SiteFactory::new(base.clone().with_scenario(stressed_scenario(&base)));
    let (healthy, stressed) = (campaign_stream(&healthy), campaign_stream(&stressed));
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

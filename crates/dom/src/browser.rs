//! The browser: glue object owning the page, DOM event bus, webRequest bus
//! and JS thread.
//!
//! The browser is *passive* with respect to the simulation driver: the
//! orchestration layer (hb-adtech) owns request dispatch and scheduling,
//! and calls into the browser to record what happened. Extensions (the
//! detector) attach through [`Browser::events`] and [`Browser::webrequest`],
//! exactly like a content script plus a webRequest listener. The two buses
//! are the only way to observe a visit.

use crate::event::EventBus;
use crate::event_loop::JsThread;
use crate::page::Page;
use crate::webrequest::WebRequestBus;
use hb_http::{Request, RequestId, Url};
use hb_simnet::SimTime;

/// A simulated browser instance (one per page visit — the crawler uses a
/// clean slate for every site).
pub struct Browser {
    /// The page being visited.
    pub page: Page,
    /// DOM event target.
    pub events: EventBus,
    /// Network observation bus.
    pub webrequest: WebRequestBus,
    /// The single JS execution thread.
    pub js: JsThread,
    next_request_id: u64,
}

impl Browser {
    /// Open a fresh browser navigating to `url` at `now`.
    pub fn open(url: Url, now: SimTime) -> Browser {
        Browser {
            page: Page::navigate(url, now),
            events: EventBus::new(),
            webrequest: WebRequestBus::new(),
            js: JsThread::new(),
            next_request_id: 1,
        }
    }

    /// Re-arm this browser for a fresh clean-slate visit, keeping the
    /// registered taps (the detector's) and all bus storage. The pooled
    /// crawl path calls this instead of building a new browser per visit;
    /// semantics are identical to a fresh [`Browser::open`] apart from the
    /// retained taps.
    pub fn reset_for_visit(&mut self, url: Url, now: SimTime) {
        self.page = Page::navigate(url, now);
        self.js = JsThread::new();
        self.next_request_id = 1;
    }

    /// Allocate the next request id.
    pub fn next_request_id(&mut self) -> RequestId {
        let id = RequestId(self.next_request_id);
        self.next_request_id += 1;
        id
    }

    /// Record an outgoing request (notifies webRequest taps).
    pub fn note_request_out(&mut self, req: &Request, now: SimTime) {
        self.webrequest
            .notify(&crate::webrequest::WebRequestEvent::Before {
                request: req,
                at: now,
            });
    }

    /// Record a completed response (notifies webRequest taps).
    pub fn note_response_in(&mut self, req: &Request, rsp: &hb_http::Response, now: SimTime) {
        self.webrequest
            .notify(&crate::webrequest::WebRequestEvent::Completed {
                request: req,
                response: rsp,
                at: now,
            });
    }

    /// Record a failed request (notifies webRequest taps).
    pub fn note_request_failed(
        &mut self,
        req: &Request,
        reason: crate::webrequest::FailureReason,
        now: SimTime,
    ) {
        self.webrequest
            .notify(&crate::webrequest::WebRequestEvent::Failed {
                request: req,
                reason,
                at: now,
            });
    }

    /// Fire a DOM event (notifies DOM event taps).
    pub fn fire_event(&mut self, now: SimTime, name: &str, payload: &hb_http::Json) {
        self.events.emit(now, name, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_http::{Json, Response};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn browser() -> Browser {
        Browser::open(Url::parse("https://pub.example/").unwrap(), SimTime::ZERO)
    }

    #[test]
    fn request_ids_are_sequential() {
        let mut b = browser();
        assert_eq!(b.next_request_id(), RequestId(1));
        assert_eq!(b.next_request_id(), RequestId(2));
    }

    #[test]
    fn request_notifications_reach_taps() {
        let mut b = browser();
        let count = Rc::new(RefCell::new(0u32));
        let c2 = count.clone();
        b.webrequest.tap(move |_| *c2.borrow_mut() += 1);
        let id = b.next_request_id();
        let req = Request::get(id, Url::parse("https://dsp.example/bid").unwrap());
        b.note_request_out(&req, SimTime::from_millis(1));
        b.note_response_in(&req, &Response::no_content(id), SimTime::from_millis(9));
        assert_eq!(*count.borrow(), 2);
    }

    #[test]
    fn dom_events_reach_taps() {
        let mut b = browser();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen.clone();
        b.events
            .tap(move |e| s2.borrow_mut().push(e.name.to_string()));
        b.fire_event(SimTime::from_millis(2), "auctionInit", &Json::Null);
        assert_eq!(&*seen.borrow(), &["auctionInit".to_string()]);
    }
}

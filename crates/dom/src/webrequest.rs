//! The webRequest observation bus.
//!
//! Chrome extensions observe network traffic through the `webRequest` API:
//! callbacks fire before a request leaves and when a response completes or
//! fails. [`WebRequestBus`] reproduces that read-only vantage point: the
//! browser notifies the bus, and observers (the detector) record what they
//! see without being able to alter traffic — matching the paper's note that
//! HBDetector inspects requests "without altering them".

use hb_http::{Request, RequestId, Response};
use hb_simnet::SimTime;

/// Why a request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureReason {
    /// The host could not be resolved.
    NoSuchHost,
    /// The request was dropped by the network (fault injection / outage).
    NetworkDropped,
    /// The page was torn down before the response arrived.
    Aborted,
}

/// A webRequest lifecycle notification.
///
/// Borrows the in-flight message instead of cloning it: observers get the
/// same read-only vantage point, and the browser no longer deep-copies
/// every request/response (URL, query multimap, JSON body) just to
/// announce it — that copy used to dominate the per-request cost.
#[derive(Clone, Debug, PartialEq)]
pub enum WebRequestEvent<'a> {
    /// A request is about to leave the browser.
    Before {
        /// The outgoing request.
        request: &'a Request,
        /// When it left.
        at: SimTime,
    },
    /// A response arrived.
    Completed {
        /// The original request.
        request: &'a Request,
        /// The response.
        response: &'a Response,
        /// When it arrived.
        at: SimTime,
    },
    /// The request will never complete.
    Failed {
        /// The original request.
        request: &'a Request,
        /// Why it failed.
        reason: FailureReason,
        /// When the failure was determined.
        at: SimTime,
    },
}

impl WebRequestEvent<'_> {
    /// The request id this notification concerns.
    pub fn request_id(&self) -> RequestId {
        match self {
            WebRequestEvent::Before { request, .. }
            | WebRequestEvent::Completed { request, .. }
            | WebRequestEvent::Failed { request, .. } => request.id,
        }
    }

    /// The timestamp of this notification.
    pub fn at(&self) -> SimTime {
        match self {
            WebRequestEvent::Before { at, .. }
            | WebRequestEvent::Completed { at, .. }
            | WebRequestEvent::Failed { at, .. } => *at,
        }
    }
}

/// Read-only network observation bus: a list of taps. Taps stay
/// registered across pooled visits.
#[derive(Default)]
pub struct WebRequestBus {
    taps: Vec<Box<dyn FnMut(&WebRequestEvent<'_>)>>,
}

impl WebRequestBus {
    /// Create an empty bus.
    pub fn new() -> Self {
        WebRequestBus::default()
    }

    /// Register a tap receiving every notification.
    pub fn tap<F: FnMut(&WebRequestEvent<'_>) + 'static>(&mut self, f: F) {
        self.taps.push(Box::new(f));
    }

    /// Notify every tap.
    pub fn notify(&mut self, ev: &WebRequestEvent<'_>) {
        for t in &mut self.taps {
            t(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_http::{Method, Url};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn mk_request(id: u64) -> Request {
        Request::get(RequestId(id), Url::parse("https://x.example/a").unwrap())
    }

    #[test]
    fn observers_receive_all_phases() {
        let mut bus = WebRequestBus::new();
        let log: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        bus.tap(move |ev| {
            let tag = match ev {
                WebRequestEvent::Before { .. } => "before",
                WebRequestEvent::Completed { .. } => "done",
                WebRequestEvent::Failed { .. } => "fail",
            };
            l2.borrow_mut()
                .push(format!("{}:{}", tag, ev.request_id().0));
        });
        let req = mk_request(7);
        bus.notify(&WebRequestEvent::Before {
            request: &req,
            at: SimTime::ZERO,
        });
        let rsp = Response::no_content(req.id);
        bus.notify(&WebRequestEvent::Completed {
            request: &req,
            response: &rsp,
            at: SimTime::from_millis(10),
        });
        bus.notify(&WebRequestEvent::Failed {
            request: &req,
            reason: FailureReason::NetworkDropped,
            at: SimTime::from_millis(20),
        });
        assert_eq!(
            &*log.borrow(),
            &[
                "before:7".to_string(),
                "done:7".to_string(),
                "fail:7".to_string()
            ]
        );
    }

    #[test]
    fn event_accessors() {
        let req = mk_request(3);
        assert_eq!(req.method, Method::Get);
        let ev = WebRequestEvent::Before {
            request: &req,
            at: SimTime::from_millis(4),
        };
        assert_eq!(ev.request_id(), RequestId(3));
        assert_eq!(ev.at(), SimTime::from_millis(4));
    }

    #[test]
    fn multiple_observers_all_notified() {
        let mut bus = WebRequestBus::new();
        let a = Rc::new(RefCell::new(0u32));
        let b = Rc::new(RefCell::new(0u32));
        let (a2, b2) = (a.clone(), b.clone());
        bus.tap(move |_| *a2.borrow_mut() += 1);
        bus.tap(move |_| *b2.borrow_mut() += 1);
        let req = mk_request(1);
        bus.notify(&WebRequestEvent::Before {
            request: &req,
            at: SimTime::ZERO,
        });
        assert_eq!(*a.borrow(), 1);
        assert_eq!(*b.borrow(), 1);
    }
}

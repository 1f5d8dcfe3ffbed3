//! DOM events and the event bus.
//!
//! HB wrapper libraries signal auction progress by firing DOM-level events
//! (`auctionInit`, `bidResponse`, `bidWon`, …). The paper's detector taps
//! these events via `addEventListener`; here, [`EventBus`] plays the role of
//! the DOM event target and its taps play the role of content-script
//! listeners. Taps are passive (they cannot reschedule simulation
//! work), which mirrors the extension's read-only vantage point.

use hb_http::Json;
use hb_simnet::SimTime;

/// A DOM event as seen by a listener.
///
/// Borrows the name and payload from the emitter: listeners copy what they
/// need (the detector extracts a handful of fields), and firing an event
/// costs no allocation beyond the payload the library built anyway.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DomEvent<'a> {
    /// Event name (e.g. `auctionEnd`).
    pub name: &'a str,
    /// Structured payload attached by the emitting library.
    pub payload: &'a Json,
    /// When the event fired.
    pub at: SimTime,
}

/// One registered DOM event listener.
type DomTap = Box<dyn FnMut(&DomEvent<'_>)>;

/// The DOM event target for a page: a list of taps, each receiving every
/// event (the detector's content-script listener is one). Taps stay
/// registered across pooled visits.
#[derive(Default)]
pub struct EventBus {
    taps: Vec<DomTap>,
}

impl EventBus {
    /// Create an empty bus.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Register a tap receiving every event.
    pub fn tap<F: FnMut(&DomEvent<'_>) + 'static>(&mut self, f: F) {
        self.taps.push(Box::new(f));
    }

    /// Fire an event to every tap.
    pub fn emit(&mut self, at: SimTime, name: &str, payload: &Json) {
        let ev = DomEvent { name, payload, at };
        for t in &mut self.taps {
            t(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn wildcard_sees_everything() {
        let mut bus = EventBus::new();
        let count = Rc::new(RefCell::new(0u32));
        let c2 = count.clone();
        bus.tap(move |_| *c2.borrow_mut() += 1);
        bus.emit(SimTime::ZERO, "a", &Json::Null);
        bus.emit(SimTime::ZERO, "b", &Json::Null);
        bus.emit(SimTime::ZERO, "c", &Json::Null);
        assert_eq!(*count.borrow(), 3);
    }

    #[test]
    fn payload_and_time_delivered() {
        let mut bus = EventBus::new();
        let got: Rc<RefCell<Option<(String, Json, SimTime)>>> = Rc::new(RefCell::new(None));
        let g2 = got.clone();
        bus.tap(move |e| *g2.borrow_mut() = Some((e.name.to_string(), e.payload.clone(), e.at)));
        let payload = Json::obj([("cpm", Json::num(0.4))]);
        bus.emit(SimTime::from_millis(33), "bidResponse", &payload);
        let (name, got_payload, at) = got.borrow().clone().unwrap();
        assert_eq!(at, SimTime::from_millis(33));
        assert_eq!(got_payload, payload);
        assert_eq!(name, "bidResponse");
    }
}

//! # hb-dom
//!
//! Browser substrate for the header bidding reproduction: the DOM event
//! target, a tiny HTML scanner, the single-threaded JS event loop model,
//! page lifecycle timing, the `webRequest` observation bus, and the
//! [`Browser`] glue object.
//!
//! The crate is deliberately *passive*: it notifies, while the ad-tech
//! orchestration layer (hb-adtech) drives the simulation. Each bus is a
//! plain list of taps, and tapping [`EventBus`] and [`WebRequestBus`] is
//! the only way to observe a visit: the detector in hb-core attaches there,
//! reproducing the Chrome extension vantage point of the paper's
//! HBDetector, and any other observer uses the same two taps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod browser;
pub mod event;
pub mod event_loop;
pub mod html;
pub mod page;
pub mod webrequest;

pub use browser::Browser;
pub use event::{DomEvent, EventBus};
pub use event_loop::{JsThread, TaskSlot};
pub use html::{find_ci, AdSlotDiv, HtmlBuilder, HtmlDoc, ScriptTag};
pub use page::{Page, PageState};
pub use webrequest::{FailureReason, WebRequestBus, WebRequestEvent};

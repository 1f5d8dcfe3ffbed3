//! # hb-http
//!
//! Simulation-level HTTP substrate for the header bidding reproduction:
//!
//! * [`Url`] + [`QueryParams`] — URL parsing with a query-string multimap
//!   and percent-encoding (the detector's parameter-extraction surface);
//! * [`Json`] — a minimal, auditable JSON value type for bid payloads;
//! * [`Request`] / [`Response`] — webRequest-level message types;
//! * [`Endpoint`] / [`Router`] — the simulated server side of the web.
//!
//! Everything is implemented in-repo (no external parsers) so the
//! measurement pipeline is fully auditable end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod json;
pub mod message;
pub mod scratch;
pub mod url;

// `HStr` moved down to `hb-simnet` (so the engine's fault injector can
// key outage sets on it without a dependency cycle); re-export the module
// so every historical `hb_http::hstr::`/`hb_http::HStr` path still works.
pub use hb_simnet::hstr;

pub use endpoint::{Endpoint, Router, ServerReply};
pub use hb_simnet::HStr;
pub use json::{Json, JsonError, JsonObj, JsonScratch};
pub use message::{Body, Headers, Method, Request, RequestId, Response, Status};
pub use scratch::MsgScratch;
pub use url::{percent_decode, percent_encode, percent_encode_into, QueryParams, Url, UrlError};

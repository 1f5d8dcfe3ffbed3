//! Live auction serving for the header-bidding ecosystem.
//!
//! Where the crawler crates *measure* the ecosystem from the browser
//! side, `hb-serve` runs the publisher/exchange side: an
//! [`AuctionOrchestrator`](orchestrator) that accepts OpenRTB-shaped
//! [`AdRequest`]s from a synthetic user population and mediates each one
//! across the site's demand — parallel header bidding, server-side
//! mediation, and the sequential waterfall — inside a robustness
//! envelope of deadline budgets, per-provider circuit breakers, hedged
//! requests, and admission control. See `docs/serving.md` for the
//! request flow and determinism invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod loadgen;
pub mod orchestrator;
pub mod request;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use loadgen::LoadGenConfig;
pub use orchestrator::{
    serve_load_with, serve_requests, start_auction, ServeConfig, ServeReport, ServeStats,
    ServeWorld, ShardReport,
};
pub use request::{AdRequest, AuctionOutcome, Channel, Decision};

//! # hb-simnet
//!
//! Deterministic discrete-event simulation engine underpinning the header
//! bidding reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time;
//! * [`Rng`] — a self-contained xoshiro256++ generator with stream
//!   derivation (so parallel crawls are order-independent);
//! * [`Dist`] — declarative scalar distributions used by the ecosystem
//!   generators and latency models;
//! * [`EventQueue`] / [`Simulation`] — the future-event list and driver:
//!   a slab of generation-stamped payload slots under a POD
//!   `(time, seq, slot)` heap (O(1) cancel, storage persisting across
//!   [`Simulation::reset`]) with a type-keyed recycling pool for callback
//!   boxes — a steady-state simulation schedules without allocating;
//! * [`LatencyModel`] — per-endpoint round-trip models with heavy tails;
//! * [`FaultInjector`] — drops, slowdowns and outages (keyed on [`HStr`]);
//! * [`HStr`] — the 24-byte compact string shared by the whole stack
//!   (re-exported by `hb-http`, which historically owned it).
//!
//! The engine records nothing on its own: what a visit did is observed
//! through the browser's two buses in `hb-dom`, the same taps the
//! detector uses.
//!
//! The engine is intentionally single-threaded and allocation-light; the
//! crawler achieves parallelism by running many independent simulations.

// `deny` rather than `forbid`: the single audited exception is
// `hstr::HStr::as_str`, which skips per-access UTF-8 re-validation of the
// inline small-string buffer (see the invariant documented there). All
// other modules remain unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod fault;
pub mod hash;
pub mod hstr;
pub mod link;
pub mod rng;
pub mod sim;
pub mod time;

pub use dist::Dist;
pub use event::{EventId, EventQueue};
pub use fault::{FaultDecision, FaultInjector, HostFaultProfile};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hstr::HStr;
pub use link::LatencyModel;
pub use rng::{fnv1a, Rng};
pub use sim::{Callback, QueuedCb, Scheduler, Simulation, StopReason};
pub use time::{SimDuration, SimTime};

//! # hb-distd — fault-tolerant distributed campaign fabric
//!
//! Scales a crawl campaign across processes (or machines) without giving
//! up one byte of determinism. A lease-based coordinator ([`coord`])
//! hands out `(day, shard, seq)` rank blocks over a checksummed TCP
//! protocol ([`proto`]); crash-safe workers ([`worker`]) crawl each block
//! with the exact in-process machinery and ship back sealed columnar
//! chunk frames; an optional spool ([`spool`]), one append-only log of
//! those frames synced in group commits, makes every acked chunk durable
//! so a coordinator restart resumes the campaign instead of restarting
//! it.
//!
//! The load-bearing property is inherited from the campaign layer:
//! **visits are pure functions of `(seed, rank, day)`**. That is what
//! turns every hard distributed-systems problem here into bookkeeping —
//! an expired lease can be re-issued to any worker (same bytes come
//! back), a duplicate submission can be dropped by key, and a resumed
//! campaign's figures are byte-identical to a single-process run.
//!
//! Byte streams flow through the [`transport`] abstraction: production
//! uses plain TCP, and the deterministic fault-injection harness
//! ([`chaos`]) wraps the same sockets in a seeded schedule of resets,
//! truncations, bit flips, stalls, duplicated submissions and heartbeat
//! blackouts — so the recovery paths above are exercised, on every CI
//! run, by reproducible storms. See `docs/distd.md` for the protocol
//! state machine and recovery invariants.
//!
//! ```no_run
//! use hb_distd::{CoordConfig, Coordinator, WorkerConfig, run_worker};
//! use hb_ecosystem::EcosystemConfig;
//!
//! let cfg = CoordConfig::new(EcosystemConfig::tiny_scale());
//! let coordinator = Coordinator::bind("127.0.0.1:0", cfg.clone()).unwrap();
//! let addr = coordinator.local_addr().unwrap().to_string();
//! std::thread::spawn(move || {
//!     let wcfg = WorkerConfig {
//!         chunk_visits: cfg.chunk_visits,
//!         ..WorkerConfig::new(addr, cfg.eco.clone())
//!     };
//!     run_worker(&wcfg).unwrap();
//! });
//! let mut chunks = Vec::new();
//! coordinator.run(&mut |c| chunks.push(c)).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod coord;
pub mod proto;
pub mod spool;
pub mod transport;
pub mod worker;

pub use chaos::{ChaosConfig, ChaosConnector, ChaosLedger, ChaosSchedule, RxFault, TxFault};
pub use coord::{CoordConfig, CoordStats, Coordinator};
pub use proto::{config_fingerprint, recv_msg, send_msg, DistdError, Msg, MAX_PAYLOAD};
pub use spool::{spool_load, SpoolReplay};
pub use transport::{is_timeout, Connector, TcpConnector, TcpTransport, Transport};
pub use worker::{reconnect_backoff, run_worker, run_worker_session, WorkerConfig, WorkerStats};

//! Crawl worker binary.
//!
//! Connects to a coordinator, crawls leased blocks until the campaign is
//! done, then prints a parseable `WORKER` stats line. Exit codes: 0 on a
//! completed campaign, 2 on a malformed command line, 3 when the
//! coordinator was lost (clean shutdown after the retry budget), 1 on
//! anything else.
//!
//! ```text
//! distd-worker --connect 127.0.0.1:45123 --scale tiny \
//!     --chunk-visits 64 --heartbeat-ms 500 --visit-delay-us 2000
//! ```

use hb_distd::cli::{flag_parse, flag_value, Scale, EXIT_USAGE};
use hb_distd::{run_worker, DistdError, WorkerConfig};
use std::time::Duration;

const USAGE: &str =
    "usage: distd-worker --connect ADDR [--scale tiny|test|medium|paper] [--seed N] \
[--chunk-visits N] [--heartbeat-ms N] [--visit-delay-us N] \
[--io-timeout-ms N] [--hb-deadline-ms N] [--connect-attempts N] \
[--backoff-ms N] [--reconnect-budget-ms N] [--instance N]";

fn die(msg: String) -> ! {
    eprintln!("distd-worker: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE);
}

fn main() {
    let mut connect: Option<String> = None;
    let mut scale = Scale::Tiny;
    let mut seed: Option<u64> = None;
    let mut chunk_visits: usize = 64;
    let mut heartbeat = Duration::from_secs(2);
    let mut visit_delay = Duration::ZERO;
    let mut io_timeout = Duration::from_secs(10);
    let mut hb_deadline = Duration::from_secs(1);
    let mut connect_attempts: u32 = 5;
    let mut backoff_base = Duration::from_millis(100);
    let mut reconnect_budget = Duration::from_secs(10);
    let mut instance: u64 = 0;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let r = match flag {
            "--connect" => flag_value(&mut args, flag).map(|v| connect = Some(v)),
            "--scale" => flag_parse(&mut args, flag).map(|v| scale = v),
            "--seed" => flag_parse(&mut args, flag).map(|v| seed = Some(v)),
            "--chunk-visits" => flag_parse(&mut args, flag).map(|v| chunk_visits = v),
            "--heartbeat-ms" => {
                flag_parse(&mut args, flag).map(|v: u64| heartbeat = Duration::from_millis(v))
            }
            "--visit-delay-us" => {
                flag_parse(&mut args, flag).map(|v: u64| visit_delay = Duration::from_micros(v))
            }
            "--io-timeout-ms" => {
                flag_parse(&mut args, flag).map(|v: u64| io_timeout = Duration::from_millis(v))
            }
            "--hb-deadline-ms" => {
                flag_parse(&mut args, flag).map(|v: u64| hb_deadline = Duration::from_millis(v))
            }
            "--connect-attempts" => flag_parse(&mut args, flag).map(|v| connect_attempts = v),
            "--backoff-ms" => {
                flag_parse(&mut args, flag).map(|v: u64| backoff_base = Duration::from_millis(v))
            }
            "--reconnect-budget-ms" => flag_parse(&mut args, flag)
                .map(|v: u64| reconnect_budget = Duration::from_millis(v)),
            "--instance" => flag_parse(&mut args, flag).map(|v| instance = v),
            other => Err(format!("unrecognized argument {other:?}")),
        };
        if let Err(e) = r {
            die(e);
        }
    }
    let Some(addr) = connect else {
        die("missing required --connect ADDR".to_string())
    };

    let mut eco = scale.config();
    if let Some(s) = seed {
        eco = eco.with_seed(s);
    }
    let cfg = WorkerConfig {
        chunk_visits,
        heartbeat_every: heartbeat,
        visit_delay,
        io_timeout,
        hb_deadline,
        connect_attempts,
        backoff_base,
        reconnect_budget,
        instance,
        ..WorkerConfig::new(addr, eco)
    };

    match run_worker(&cfg) {
        Ok(stats) => {
            println!(
                "WORKER id={} blocks_completed={} visits={} leases_expired={} \
                 duplicates={} reconnects={} conn_breaks={} connect_failures={} \
                 wire_rejected={} leases_abandoned={}",
                stats.worker_id,
                stats.blocks_completed,
                stats.visits,
                stats.leases_expired,
                stats.duplicates,
                stats.reconnects,
                stats.conn_breaks,
                stats.connect_failures,
                stats.wire_rejected,
                stats.leases_abandoned,
            );
        }
        Err(DistdError::CoordinatorLost) => {
            eprintln!("distd-worker: coordinator lost; exiting");
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("distd-worker: {e}");
            std::process::exit(1);
        }
    }
}

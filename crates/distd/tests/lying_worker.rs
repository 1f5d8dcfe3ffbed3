//! A worker that lies: it leases a block and submits, under that block's
//! key, a chunk crawled from other ranks. The frame is well formed and
//! its key is leased, so only the coordinator's row check can catch it.
//! The chunk must be refused and counted in `frames_rejected`, its block
//! must stay leasable and be crawled again by an honest worker once the
//! liar's lease lapses, and the folded chunks and figures must be
//! byte-identical to `run_campaign_streamed`'s.

use hb_analysis::{indexed_reports, DatasetIndexBuilder};
use hb_crawler::{run_campaign_streamed, CampaignConfig, VisitChunk};
use hb_distd::{
    config_fingerprint, recv_msg, run_worker_session, send_msg, Connector, CoordConfig,
    Coordinator, Msg, TcpConnector, WorkerConfig, WorkerStats,
};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use std::collections::BTreeMap;
use std::time::Duration;

const CHUNK_VISITS: usize = 32;

fn render(chunks: &[VisitChunk], eco: &EcosystemConfig) -> BTreeMap<String, String> {
    let mut builder = DatasetIndexBuilder::new(eco.n_sites, eco.crawl_days);
    for chunk in chunks {
        builder.push_chunk(chunk);
    }
    indexed_reports(&builder.finish())
        .into_iter()
        .map(|r| (format!("{}.csv", r.id), r.render()))
        .collect()
}

/// Lease a batch, submit another block's visits under its first block's
/// key, and return the ack; the connection then drops, leaving the lease
/// to lapse.
fn lie(addr: &str, cfg: &CoordConfig, want: &[VisitChunk]) -> Msg {
    let mut t = TcpConnector::new(addr.to_string()).connect().expect("dial");
    let fingerprint = config_fingerprint(&cfg.eco, cfg.chunk_visits, &cfg.session);
    send_msg(&mut *t, &Msg::Hello { fingerprint }).expect("hello");
    let Ok(Msg::Welcome { worker_id }) = recv_msg(&mut *t) else {
        panic!("handshake refused");
    };
    send_msg(&mut *t, &Msg::RequestLease { worker_id }).expect("request");
    let Ok(Msg::Lease { lease_id, blocks }) = recv_msg(&mut *t) else {
        panic!("no lease for the liar");
    };
    let key = blocks[0].key();
    let mut forged = want
        .iter()
        .find(|c| c.day == key.0 && c.seq != key.1)
        .expect("another block on the leased day")
        .clone();
    (forged.day, forged.seq) = key;
    send_msg(
        &mut *t,
        &Msg::SubmitChunk {
            lease_id,
            frame: forged.encode(),
        },
    )
    .expect("submit");
    recv_msg(&mut *t).expect("ack")
}

#[test]
fn chunk_from_the_wrong_ranks_is_refused_and_recrawled() {
    let eco = EcosystemConfig::tiny_scale();
    let mut want = Vec::new();
    run_campaign_streamed(
        &SiteFactory::new(eco.clone()),
        &CampaignConfig {
            chunk_visits: CHUNK_VISITS,
            ..CampaignConfig::default()
        },
        &mut |c| want.push(c),
    );
    let cfg = CoordConfig {
        chunk_visits: CHUNK_VISITS,
        lease_timeout: Duration::from_millis(300),
        ..CoordConfig::new(eco.clone())
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg.clone()).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();

    let mut got = Vec::new();
    let (coord, ack, honest) = std::thread::scope(|s| {
        let fabric = s.spawn(|| {
            let ack = lie(&addr, &cfg, &want);
            let wcfg = WorkerConfig {
                chunk_visits: CHUNK_VISITS,
                heartbeat_every: Duration::from_millis(50),
                ..WorkerConfig::new(addr.clone(), eco.clone())
            };
            let mut stats = WorkerStats::default();
            let session = run_worker_session(&wcfg, &TcpConnector::new(addr.clone()), &mut stats);
            (ack, session.map(|()| stats))
        });
        let coord = coordinator
            .run(&mut |c| got.push(c))
            .expect("coordinator run");
        let (ack, honest) = fabric.join().expect("fabric thread");
        (coord, ack, honest.expect("honest worker"))
    });

    assert!(
        matches!(
            ack,
            Msg::SubmitAck {
                accepted: false,
                duplicate: false,
                ..
            }
        ),
        "the forged chunk was acked: {ack:?}"
    );
    assert_eq!(coord.frames_rejected, 1, "the refusal is counted once");
    assert!(
        coord.leases_reissued >= 1,
        "the liar's lease lapsed and its blocks were leased again"
    );
    assert_eq!(honest.blocks_completed as usize, want.len());
    assert_eq!(coord.chunks_folded, want.len());
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.encode(), w.encode(), "chunk {:?} differs", w.key());
    }
    assert_eq!(render(&got, &eco), render(&want, &eco), "figures differ");
}

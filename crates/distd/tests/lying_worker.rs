//! A worker that lies: it leases a batch of blocks and submits it with
//! the honest chunks of every block but the first, and, under the first
//! block's key, a chunk crawled from other ranks. Every frame is well
//! formed and its key is leased, so only the coordinator's row check can
//! catch the forgery. The whole submission must be refused, with the one
//! forged frame counted in `frames_rejected` and nothing of it spooled
//! or folded; every block must stay leasable and be crawled again by an
//! honest worker once the liar's lease lapses, and the folded chunks and
//! figures must be byte-identical to `run_campaign_streamed`'s.

use hb_analysis::{indexed_reports, DatasetIndexBuilder};
use hb_crawler::{run_campaign_streamed, CampaignConfig, VisitChunk};
use hb_distd::{
    config_fingerprint, recv_msg, run_worker_session, send_msg, spool_load, Connector, CoordConfig,
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

/// Lease a batch and submit it with another block's visits under its
/// first block's key and the honest chunks of the rest; return the ack.
/// The connection then drops, leaving the lease to lapse.
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
    assert!(blocks.len() >= 2, "a batch to hide the forgery in");
    let key = blocks[0].key();
    let mut forged = want
        .iter()
        .find(|c| c.day == key.0 && c.seq != key.1)
        .expect("another block on the leased day")
        .clone();
    (forged.day, forged.seq) = key;
    let mut frames = vec![forged.encode()];
    for block in &blocks[1..] {
        let honest = want
            .iter()
            .find(|c| c.key() == block.key())
            .expect("a leased block of the campaign");
        frames.push(honest.encode());
    }
    send_msg(&mut *t, &Msg::SubmitChunk { lease_id, frames }).expect("submit");
    recv_msg(&mut *t).expect("ack")
}

#[test]
fn chunk_from_the_wrong_ranks_is_refused_and_recrawled() {
    let spool = std::env::temp_dir().join(format!("hb-distd-liar-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
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
        spool_dir: Some(spool.clone()),
        ..CoordConfig::new(eco.clone())
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg.clone()).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();

    let mut got = Vec::new();
    let (coord, ack, spooled, honest) = std::thread::scope(|s| {
        let fabric = s.spawn(|| {
            let ack = lie(&addr, &cfg, &want);
            // What the liar's submission left on disk.
            let spooled = spool_load(&spool).map(|r| r.chunks.len());
            let wcfg = WorkerConfig {
                chunk_visits: CHUNK_VISITS,
                heartbeat_every: Duration::from_millis(50),
                ..WorkerConfig::new(addr.clone(), eco.clone())
            };
            let mut stats = WorkerStats::default();
            let session = run_worker_session(&wcfg, &TcpConnector::new(addr.clone()), &mut stats);
            (ack, spooled, session.map(|()| stats))
        });
        let coord = coordinator
            .run(&mut |c| got.push(c))
            .expect("coordinator run");
        let (ack, spooled, honest) = fabric.join().expect("fabric thread");
        (coord, ack, spooled, honest.expect("honest worker"))
    });

    assert!(
        matches!(
            ack,
            Msg::SubmitAck {
                accepted: false,
                duplicates: 0,
                ..
            }
        ),
        "the forged chunk was acked: {ack:?}"
    );
    assert_eq!(coord.frames_rejected, 1, "only the forged frame counts");
    assert_eq!(
        spooled.expect("spool replay"),
        0,
        "a refused submission reached the spool"
    );
    assert!(
        coord.leases_reissued >= 1,
        "the liar's lease lapsed and its blocks were leased again"
    );
    assert_eq!(honest.blocks_completed as usize, want.len());
    assert_eq!(honest.duplicates + coord.chunks_duplicate_dropped, 0);
    assert_eq!(coord.chunks_folded, want.len());
    assert_eq!(coord.chunks_compacted as usize, want.len());
    let _ = std::fs::remove_dir_all(&spool);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.encode(), w.encode(), "chunk {:?} differs", w.key());
    }
    assert_eq!(render(&got, &eco), render(&want, &eco), "figures differ");
}

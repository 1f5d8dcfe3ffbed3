//! The HBDetector: attachment, observation, and reconstruction.
//!
//! Combines the paper's detection methods 2 (DOM event inspection) and 3
//! (webRequest inspection). The detector attaches to a [`Browser`] before
//! navigation, records everything relevant during the visit, and
//! [`HbDetector::finish_into`] reconstructs the visit as one row of
//! [`VisitColumns`]: HB presence, facet, partners, bids, latencies, late
//! bids, prices, sizes.
//!
//! The webRequest tap is allocation-conscious: each observed request
//! stores its traffic class and a partner *index* into the list (not
//! cloned strings), and response bodies are only parsed when they carry
//! bid/winner payloads. All strings entering the visit's row are
//! interned at reconstruction time.

use crate::classify::{classify_request, response_has_hb_params, RequestKind};
use crate::columns::{VisitColumns, VisitScalars};
use crate::events::{CapturedEvent, HbEventKind};
use crate::intern::{Interner, Symbol};
use crate::list::PartnerList;
use crate::record::{BidSource, DetectedBid, DetectedFacet, DetectedSlot, PartnerLatency};
use hb_dom::{Browser, WebRequestEvent};
use hb_http::{HStr, Json, RequestId};
use hb_simnet::FxHashMap;
use hb_simnet::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// One observed request with its lifecycle timing and extracted content.
/// Parsed bid/winner entries live in the state's flattened side tables
/// (`raw_bids`/`raw_winners`) as half-open ranges, so the per-request
/// record is flat data and clearing the state keeps every capacity.
#[derive(Clone, Copy, Debug)]
struct ObservedRequest {
    kind: RequestKind,
    /// Matched partner, as an index into the detector's list.
    partner_index: Option<u32>,
    sent_at: SimTime,
    completed_at: Option<SimTime>,
    failed: bool,
    /// Was this request a marked retry (`hb_retry` query param)?
    retry: bool,
    /// Range of parsed bid entries in `DetectorState::raw_bids`.
    bids: (u32, u32),
    /// Range of parsed winner entries in `DetectorState::raw_winners`.
    winners: (u32, u32),
    /// Did the response body carry HB params (server-side signal)?
    response_has_hb_params: bool,
}

/// A bid parsed from response JSON (before enrichment).
#[derive(Clone, Debug)]
struct RawBid {
    bidder: HStr,
    slot: HStr,
    cpm: f64,
    size: HStr,
}

/// A winner parsed from an ad-server response.
#[derive(Clone, Debug)]
struct RawWinner {
    slot: HStr,
    bidder: HStr,
    pb: f64,
    size: HStr,
    channel: HStr,
}

/// Accumulated observation state (shared with the browser taps).
#[derive(Default)]
struct DetectorState {
    events: Vec<CapturedEvent>,
    /// Observed requests in classification order — reconstruction walks
    /// this flat, cache-friendly slice directly (the former per-finish
    /// `Vec<&ObservedRequest>` temporaries are gone).
    requests: Vec<ObservedRequest>,
    // Fx-hashed: touched 1-2 times per classified request on the visit
    // hot path; iteration for output goes through `requests`.
    index: FxHashMap<RequestId, u32>,
    /// Flattened parsed bid entries, windowed by `ObservedRequest::bids`.
    raw_bids: Vec<RawBid>,
    /// Flattened parsed winner entries, windowed by
    /// `ObservedRequest::winners`.
    raw_winners: Vec<RawWinner>,
}

/// Reusable reconstruction buffers (capacity survives across visits).
#[derive(Default)]
struct FinishScratch {
    /// Distinct participating partners, as list indices.
    partners: Vec<u32>,
    /// `(event name, count)` pairs being sorted for output.
    events: Vec<(&'static str, u32)>,
    /// Distinct bid slots (slots-auctioned fallback count).
    slots: Vec<Symbol>,
    /// Distinct partners with an uncompleted bid request, as list indices.
    timed_out: Vec<u32>,
}

/// The HBDetector. Create with a partner list, [`attach`](Self::attach) to
/// a browser, run the visit, then [`finish_into`](Self::finish_into).
pub struct HbDetector {
    list: Arc<PartnerList>,
    state: Rc<RefCell<DetectorState>>,
    scratch: RefCell<FinishScratch>,
}

impl HbDetector {
    /// Create a detector with the given known-partner list.
    pub fn new(list: PartnerList) -> HbDetector {
        HbDetector::with_list(Arc::new(list))
    }

    /// Create a detector sharing an already-built partner list (the
    /// crawler path: one list per campaign, not one rebuild per visit).
    pub fn with_list(list: Arc<PartnerList>) -> HbDetector {
        HbDetector {
            list,
            state: Rc::new(RefCell::new(DetectorState::default())),
            scratch: RefCell::new(FinishScratch::default()),
        }
    }

    /// Attach the detector's taps to a browser (content script + webRequest
    /// observer). Must be called before the visit starts.
    pub fn attach(&self, browser: &mut Browser) {
        // DOM event tap (method 2).
        let state = self.state.clone();
        browser.events.tap(move |ev| {
            if let Some(captured) = CapturedEvent::from_dom(ev) {
                state.borrow_mut().events.push(captured);
            }
        });
        // webRequest tap (method 3).
        let state = self.state.clone();
        let list = self.list.clone();
        browser.webrequest.tap(move |ev| {
            let st = &mut *state.borrow_mut();
            match ev {
                WebRequestEvent::Before { request, at } => {
                    let classification = classify_request(&list, request);
                    if classification.kind == RequestKind::Unrelated {
                        return;
                    }
                    st.index.insert(request.id, st.requests.len() as u32);
                    st.requests.push(ObservedRequest {
                        kind: classification.kind,
                        partner_index: classification.partner_index,
                        sent_at: *at,
                        completed_at: None,
                        failed: false,
                        retry: request.url.query.get("hb_retry").is_some(),
                        bids: (0, 0),
                        winners: (0, 0),
                        response_has_hb_params: false,
                    });
                }
                WebRequestEvent::Completed {
                    request,
                    response,
                    at,
                } => {
                    let DetectorState {
                        requests,
                        index,
                        raw_bids,
                        raw_winners,
                        ..
                    } = st;
                    if let Some(obs) = index.get(&request.id).map(|&i| &mut requests[i as usize]) {
                        obs.completed_at = Some(*at);
                        obs.response_has_hb_params = response_has_hb_params(response);
                        // Read every JSON body, not just hb_-flagged ones:
                        // bid/winner extraction must not depend on the
                        // payload carrying an hb_ key alongside the lists.
                        // The tree is borrowed, not cloned; text bodies
                        // (pages, scripts) carry no bids.
                        if let Some(body) = response.body.json() {
                            parse_response_content(obs, raw_bids, raw_winners, body);
                        }
                    }
                }
                WebRequestEvent::Failed { request, .. } => {
                    if let Some(obs) = st
                        .index
                        .get(&request.id)
                        .map(|&i| &mut st.requests[i as usize])
                    {
                        obs.failed = true;
                    }
                }
            }
        });
    }

    /// Clear all accumulated observation state for a fresh visit while
    /// keeping the allocated capacity (vectors, request map). The pooled
    /// crawl path attaches the detector to a reused browser once per
    /// worker and calls `reset` between visits.
    pub fn reset(&self) {
        let mut st = self.state.borrow_mut();
        st.events.clear();
        st.requests.clear();
        st.index.clear();
        st.raw_bids.clear();
        st.raw_winners.clear();
    }

    /// Reconstruct the visit and append it as one row directly into
    /// `cols` — detected bids, slots and latencies stream into the
    /// worker's columnar storage without materializing an owned
    /// [`VisitRecord`](crate::VisitRecord) (the crawl hot path: nothing
    /// escapes the visit but the column tails). `domain`, `rank` and `day`
    /// are crawl metadata; `page_load_ms` comes from the page timing. All
    /// strings are interned into `strings` — resolve the row against it.
    pub fn finish_into(
        &self,
        domain: &str,
        rank: u32,
        day: u32,
        page_load_ms: Option<f64>,
        strings: &mut Interner,
        cols: &mut VisitColumns,
    ) {
        let st = self.state.borrow();
        let scratch = &mut *self.scratch.borrow_mut();
        let entry = |idx: Option<u32>| idx.map(|i| self.list.entry(i));
        let mut scalars = VisitScalars {
            domain: strings.intern(domain),
            rank,
            day,
            page_load_ms,
            ..VisitScalars::default()
        };
        let mut row = cols.begin_visit();

        // --- Gather the key requests -------------------------------------
        // `st.requests` is already the classification-ordered flat slice;
        // the reconstruction passes below re-walk it instead of collecting
        // per-kind temporaries.
        let bid_requests = || {
            st.requests
                .iter()
                .filter(|r| r.kind == RequestKind::BidRequest)
        };
        let adserver_calls = || {
            st.requests
                .iter()
                .filter(|r| r.kind == RequestKind::AdServerCall)
        };

        // --- HB present? ---------------------------------------------------
        let has_proof_event = st.events.iter().any(|e| e.kind.proves_hb());
        let has_hb_response_params = adserver_calls().any(|r| r.response_has_hb_params)
            || bid_requests().any(|r| r.response_has_hb_params);
        let has_bid_requests = bid_requests().next().is_some();
        scalars.hb_detected = has_proof_event || has_bid_requests || has_hb_response_params;
        if !scalars.hb_detected {
            row.finish_row(scalars);
            return;
        }

        // --- Facet --------------------------------------------------------
        let adserver_call = adserver_calls().next();
        let adserver_is_partner = adserver_call
            .map(|c| c.partner_index.is_some())
            .unwrap_or(false);
        scalars.facet = Some(if !has_bid_requests {
            DetectedFacet::Server
        } else if adserver_is_partner {
            DetectedFacet::Hybrid
        } else {
            DetectedFacet::Client
        });

        // --- Partners (request-level evidence) ------------------------------
        // Distinct list indices, deduped and sorted by display name in a
        // reusable buffer, interned in sorted order (matching the former
        // `Vec<&str>` path symbol for symbol).
        let partners = &mut scratch.partners;
        partners.clear();
        for r in bid_requests().chain(adserver_call) {
            if let Some(i) = r.partner_index {
                let name = &self.list.entry(i).name;
                if !partners.iter().any(|&j| self.list.entry(j).name == *name) {
                    partners.push(i);
                }
            }
        }
        partners.sort_unstable_by(|&a, &b| self.list.entry(a).name.cmp(&self.list.entry(b).name));
        for &i in partners.iter() {
            let sym = strings.intern(&self.list.entry(i).name);
            row.push_partner(sym);
        }

        // --- Timing ---------------------------------------------------------
        let first_hb_request_at = bid_requests()
            .map(|r| r.sent_at)
            .chain(adserver_call.map(|r| r.sent_at))
            .min();
        let adserver_sent_at = adserver_call.map(|c| c.sent_at);
        let adserver_done_at = adserver_call.and_then(|c| c.completed_at);
        if let (Some(t0), Some(t1)) = (first_hb_request_at, adserver_done_at) {
            scalars.hb_latency_ms = Some(t1.saturating_since(t0).as_millis_f64());
        }

        // --- Bids -----------------------------------------------------------
        for r in bid_requests() {
            let late = match (r.completed_at, adserver_sent_at) {
                (Some(done), Some(sent)) => done > sent,
                // Never completed: counts as lost, not late.
                _ => false,
            };
            let latency_ms = r
                .completed_at
                .map(|done| done.saturating_since(r.sent_at).as_millis_f64());
            if let Some(e) = entry(r.partner_index) {
                if let Some(lat) = latency_ms {
                    row.push_partner_latency(PartnerLatency {
                        partner_name: strings.intern(&e.name),
                        bidder_code: strings.intern(&e.code),
                        latency_ms: lat,
                        late,
                    });
                }
            }
            for bid in &st.raw_bids[r.bids.0 as usize..r.bids.1 as usize] {
                let partner_name = match self.list.by_code(&bid.bidder) {
                    Some(e) => strings.intern(&e.name),
                    None => strings.intern(&bid.bidder),
                };
                row.push_bid(DetectedBid {
                    bidder_code: strings.intern(&bid.bidder),
                    partner_name,
                    slot: strings.intern(&bid.slot),
                    cpm: bid.cpm,
                    size: strings.intern(&bid.size),
                    late,
                    latency_ms,
                    source: BidSource::ClientVisible,
                });
            }
        }
        // Provider latency for the ad-server call itself (the paper's
        // partner-latency view includes the providers).
        if let Some(c) = adserver_call {
            if let (Some(e), Some(done)) = (entry(c.partner_index), c.completed_at) {
                row.push_partner_latency(PartnerLatency {
                    partner_name: strings.intern(&e.name),
                    bidder_code: strings.intern(&e.code),
                    latency_ms: done.saturating_since(c.sent_at).as_millis_f64(),
                    late: false,
                });
            }
        }

        // --- Winners / slots -------------------------------------------------
        for c in adserver_calls() {
            for w in &st.raw_winners[c.winners.0 as usize..c.winners.1 as usize] {
                let slot = strings.intern(&w.slot);
                let size = strings.intern(&w.size);
                let winner = strings.intern(&w.bidder);
                if w.channel == "hb" && !w.bidder.is_empty() {
                    // Server-reported wins: visible bid evidence for
                    // Server-Side and Hybrid HB (the only price signal the
                    // client gets there). Skip bidders already seen as
                    // client bids for this slot to avoid double counting.
                    let already = row.bids().iter().any(|b| {
                        b.source == BidSource::ClientVisible
                            && b.bidder_code == winner
                            && b.slot == slot
                    });
                    if !already {
                        let partner_name = match self.list.by_code(&w.bidder) {
                            Some(e) => strings.intern(&e.name),
                            None => winner,
                        };
                        row.push_bid(DetectedBid {
                            bidder_code: winner,
                            partner_name,
                            slot,
                            cpm: w.pb,
                            size,
                            late: false,
                            latency_ms: None,
                            source: BidSource::ServerReported,
                        });
                    }
                }
                row.push_slot(DetectedSlot {
                    slot,
                    size,
                    winner,
                    price: w.pb,
                    channel: strings.intern(&w.channel),
                });
            }
        }

        // --- Slots auctioned --------------------------------------------------
        // The auctionInit adUnitCodes are not stored per event, so count
        // the row's slots, falling back to its distinct bid slots.
        let from_slots = row.slots_len() as u32;
        scalars.slots_auctioned = if from_slots > 0 {
            from_slots
        } else {
            // Distinct bid slots, counted in a reusable buffer (the
            // former per-finish `BTreeSet`).
            let distinct = &mut scratch.slots;
            distinct.clear();
            distinct.extend(row.bids().iter().map(|b| b.slot));
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len() as u32
        };

        // --- Fault accounting -------------------------------------------------
        // A bid request with no completion never produced a response on
        // the wire (dropped, hard-down partner, or past the browser
        // network timeout) — the robustness figures slice on these.
        let timed_out = &mut scratch.timed_out;
        timed_out.clear();
        for r in bid_requests() {
            if r.completed_at.is_none() {
                scalars.bids_dropped += 1;
                if let Some(i) = r.partner_index {
                    if !timed_out.contains(&i) {
                        timed_out.push(i);
                    }
                }
            }
            if r.retry {
                scalars.retries += 1;
            }
        }
        scalars.timed_out_partners = timed_out.len() as u32;
        scalars.passback_served = st.events.iter().any(|e| e.kind == HbEventKind::Passback);

        // --- Event counters ----------------------------------------------------
        // Fixed-size count array indexed by kind; emitted sorted by event
        // name, skipping kinds that never fired.
        let mut counts = [0u32; HbEventKind::ALL.len()];
        for e in &st.events {
            counts[e.kind as usize] += 1;
        }
        let names = &mut scratch.events;
        names.clear();
        names.extend(
            HbEventKind::ALL
                .iter()
                .map(|k| (k.event_name(), counts[*k as usize]))
                .filter(|(_, n)| *n > 0),
        );
        names.sort_unstable();
        for &(name, n) in names.iter() {
            let sym = strings.intern(name);
            row.push_event_count(sym, n);
        }

        row.finish_row(scalars);
    }
}

/// Parse bid-response and ad-server-response JSON into the flattened raw
/// tables, recording the half-open ranges on the request.
fn parse_response_content(
    obs: &mut ObservedRequest,
    raw_bids: &mut Vec<RawBid>,
    raw_winners: &mut Vec<RawWinner>,
    body: &Json,
) {
    // Keep the body's own `HStr` handles instead of rebuilding from
    // `&str`: a string past the inline cap would otherwise spill into a
    // fresh `Arc<str>` per bid field, which was the last steady-state
    // allocation in the detector's response path.
    let hstr = |v: Option<&Json>| v.and_then(Json::as_hstr).cloned().unwrap_or(HStr::EMPTY);
    let bid_start = raw_bids.len() as u32;
    if let Some(bids) = body.get("bids").and_then(|b| b.as_arr()) {
        for b in bids {
            let bidder = hstr(b.get("bidder"));
            if bidder.is_empty() {
                continue;
            }
            raw_bids.push(RawBid {
                bidder,
                slot: hstr(b.get("hb_slot")),
                cpm: b.get("cpm").and_then(|v| v.as_f64()).unwrap_or(0.0),
                size: hstr(b.get("hb_size")),
            });
        }
    }
    obs.bids = (bid_start, raw_bids.len() as u32);
    let win_start = raw_winners.len() as u32;
    if let Some(winners) = body.get("winners").and_then(|w| w.as_arr()) {
        for w in winners {
            raw_winners.push(RawWinner {
                slot: hstr(w.get("hb_slot")),
                bidder: hstr(w.get("hb_bidder")),
                pb: w
                    .get("hb_pb")
                    .and_then(|v| v.as_str())
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or(0.0),
                size: hstr(w.get("hb_size")),
                channel: hstr(w.get("channel")),
            });
        }
    }
    obs.winners = (win_start, raw_winners.len() as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::VisitRecord;
    use hb_http::{Request, Response, Url};
    use hb_simnet::SimTime;

    fn browser() -> Browser {
        Browser::open(Url::parse("https://pub.example/").unwrap(), SimTime::ZERO)
    }

    /// Reconstruct the visit and read it back as a row.
    fn finish(
        det: &HbDetector,
        domain: &str,
        rank: u32,
        day: u32,
        page_load_ms: Option<f64>,
        strings: &mut Interner,
    ) -> VisitRecord {
        let mut cols = VisitColumns::new();
        det.finish_into(domain, rank, day, page_load_ms, strings, &mut cols);
        cols.get(0).to_record()
    }

    /// Resolve a symbol list to strings for assertions.
    fn resolved(strings: &Interner, syms: &[crate::intern::Symbol]) -> Vec<String> {
        syms.iter()
            .map(|s| strings.resolve(*s).to_string())
            .collect()
    }

    /// Drive a synthetic client-side HB visit directly against the browser
    /// notification API (no simulator needed at this level).
    fn synthetic_client_visit(b: &mut Browser) {
        // auctionInit
        b.fire_event(
            SimTime::from_millis(100),
            "auctionInit",
            &Json::obj([("hb_auction", Json::str("a1"))]),
        );
        // bid request to AppNexus at t=100, response at t=300 with one bid.
        let id = b.next_request_id();
        let req = Request::get(
            id,
            Url::parse(
                "https://appnexus-adnet.example/hb/bid?hb_auction=a1&hb_bidder=appnexus&hb_source=client",
            )
            .unwrap(),
        );
        b.note_request_out(&req, SimTime::from_millis(100));
        let rsp_body = Json::parse(
            r#"{"hb_auction":"a1","bids":[{"bidder":"appnexus","hb_slot":"s1","cpm":0.4,"hb_size":"300x250","hb_adid":"cr1","hb_currency":"USD"}]}"#,
        )
        .unwrap();
        b.note_response_in(
            &req,
            &Response::json(id, rsp_body),
            SimTime::from_millis(300),
        );
        b.fire_event(
            SimTime::from_millis(300),
            "bidResponse",
            &Json::obj([("bidder", Json::str("appnexus")), ("cpm", Json::num(0.4))]),
        );
        // auctionEnd + ad server call to the publisher's own server.
        b.fire_event(SimTime::from_millis(400), "auctionEnd", &Json::obj([]));
        let id2 = b.next_request_id();
        let req2 = Request::get(
            id2,
            Url::parse(
                "https://ads.pub.example/gampad/ads?account=pub-1&hb_auction=a1&hb_slot=s1&hb_bidder=appnexus&hb_pb=0.40&hb_size=300x250",
            )
            .unwrap(),
        );
        b.note_request_out(&req2, SimTime::from_millis(400));
        let winners = Json::parse(
            r#"{"hb_auction":"a1","winners":[{"hb_slot":"s1","channel":"hb","hb_bidder":"appnexus","hb_pb":"0.40","hb_size":"300x250","hb_adid":"cr1"}]}"#,
        )
        .unwrap();
        b.note_response_in(
            &req2,
            &Response::json(id2, winners),
            SimTime::from_millis(460),
        );
        b.fire_event(
            SimTime::from_millis(470),
            "bidWon",
            &Json::obj([("hb_bidder", Json::str("appnexus"))]),
        );
    }

    #[test]
    fn client_side_reconstruction() {
        let det = HbDetector::new(PartnerList::demo());
        let mut b = browser();
        det.attach(&mut b);
        synthetic_client_visit(&mut b);
        let mut strings = Interner::new();
        let rec = finish(&det, "pub.example", 10, 0, Some(900.0), &mut strings);
        assert!(rec.hb_detected);
        assert_eq!(strings.resolve(rec.domain), "pub.example");
        assert_eq!(rec.facet, Some(DetectedFacet::Client));
        assert_eq!(resolved(&strings, &rec.partners), vec!["AppNexus"]);
        assert_eq!(rec.bids.len(), 1);
        assert_eq!(strings.resolve(rec.bids[0].bidder_code), "appnexus");
        assert!(!rec.bids[0].late);
        assert_eq!(rec.bids[0].latency_ms, Some(200.0));
        // 100 → 460 ms.
        assert_eq!(rec.hb_latency_ms, Some(360.0));
        assert_eq!(rec.slots_auctioned, 1);
        assert_eq!(rec.slots.len(), 1);
        assert_eq!(strings.resolve(rec.slots[0].channel), "hb");
        assert_eq!(rec.page_load_ms, Some(900.0));
        // Winner already counted as a client bid: no double count.
        assert_eq!(rec.bids.len(), 1);
    }

    #[test]
    fn server_side_reconstruction() {
        let det = HbDetector::new(PartnerList::demo());
        let mut b = browser();
        det.attach(&mut b);
        // Single call to DFP, hb params only in request/response; no events
        // except render.
        let id = b.next_request_id();
        let req = Request::get(
            id,
            Url::parse(
                "https://doubleclick-adnet.example/gampad/ads?account=pub-2&hb_auction=a2&hb_source=s2s&hb_slot=s1&hb_slot=s2",
            )
            .unwrap(),
        );
        b.note_request_out(&req, SimTime::from_millis(50));
        let winners = Json::parse(
            r#"{"hb_auction":"a2","winners":[
                {"hb_slot":"s1","channel":"hb","hb_bidder":"rubicon","hb_pb":"0.30","hb_size":"300x250","hb_adid":"x"},
                {"hb_slot":"s2","channel":"fallback","hb_size":"728x90"}
            ]}"#,
        )
        .unwrap();
        b.note_response_in(
            &req,
            &Response::json(id, winners),
            SimTime::from_millis(320),
        );
        b.fire_event(
            SimTime::from_millis(340),
            "slotRenderEnded",
            &Json::obj([("hb_slot", Json::str("s1"))]),
        );
        let mut strings = Interner::new();
        let rec = finish(&det, "pub2.example", 20, 3, None, &mut strings);
        assert!(rec.hb_detected);
        assert_eq!(rec.facet, Some(DetectedFacet::Server));
        assert_eq!(resolved(&strings, &rec.partners), vec!["DFP"]);
        assert_eq!(rec.hb_latency_ms, Some(270.0));
        // One server-reported bid (the winner), one fallback slot.
        assert_eq!(rec.bids.len(), 1);
        assert_eq!(rec.bids[0].source, BidSource::ServerReported);
        assert_eq!(strings.resolve(rec.bids[0].partner_name), "Rubicon");
        assert_eq!(rec.slots.len(), 2);
        assert_eq!(rec.slots_auctioned, 2);
        assert_eq!(rec.day, 3);
    }

    #[test]
    fn hybrid_reconstruction() {
        let det = HbDetector::new(PartnerList::demo());
        let mut b = browser();
        det.attach(&mut b);
        // Client bid to rubicon + ad-server call to DFP (a known partner).
        let id = b.next_request_id();
        let req = Request::get(
            id,
            Url::parse(
                "https://rubicon-adnet.example/hb/bid?hb_auction=a3&hb_bidder=rubicon&hb_source=client",
            )
            .unwrap(),
        );
        b.note_request_out(&req, SimTime::from_millis(10));
        b.note_response_in(&req, &Response::no_content(id), SimTime::from_millis(150));
        let id2 = b.next_request_id();
        let req2 = Request::get(
            id2,
            Url::parse(
                "https://doubleclick-adnet.example/gampad/ads?account=pub-3&hb_auction=a3&hb_source=client&hb_slot=s1",
            )
            .unwrap(),
        );
        b.note_request_out(&req2, SimTime::from_millis(200));
        b.note_response_in(&req2, &Response::no_content(id2), SimTime::from_millis(350));
        let mut strings = Interner::new();
        let rec = finish(&det, "pub3.example", 30, 1, None, &mut strings);
        assert!(rec.hb_detected);
        assert_eq!(rec.facet, Some(DetectedFacet::Hybrid));
        let mut partners = resolved(&strings, &rec.partners);
        partners.sort();
        assert_eq!(partners, vec!["DFP".to_string(), "Rubicon".to_string()]);
        // No-bid from rubicon still yields a latency observation.
        assert_eq!(rec.partner_latencies.len(), 2, "rubicon + provider");
    }

    #[test]
    fn late_bids_detected_from_timing() {
        let det = HbDetector::new(PartnerList::demo());
        let mut b = browser();
        det.attach(&mut b);
        // Bid request out at 10; ad server call sent at 100; bid response
        // arrives at 500 → late.
        let id = b.next_request_id();
        let req = Request::get(
            id,
            Url::parse(
                "https://appnexus-adnet.example/hb/bid?hb_auction=a4&hb_bidder=appnexus&hb_source=client",
            )
            .unwrap(),
        );
        b.note_request_out(&req, SimTime::from_millis(10));
        let id2 = b.next_request_id();
        let req2 = Request::get(
            id2,
            Url::parse("https://ads.pub.example/gampad/ads?account=p&hb_auction=a4&hb_slot=s1")
                .unwrap(),
        );
        b.note_request_out(&req2, SimTime::from_millis(100));
        b.note_response_in(&req2, &Response::no_content(id2), SimTime::from_millis(160));
        let body = Json::parse(
            r#"{"hb_auction":"a4","bids":[{"bidder":"appnexus","hb_slot":"s1","cpm":0.2,"hb_size":"300x250","hb_adid":"c","hb_currency":"USD"}]}"#,
        )
        .unwrap();
        b.note_response_in(&req, &Response::json(id, body), SimTime::from_millis(500));
        let mut strings = Interner::new();
        let rec = finish(&det, "pub4.example", 40, 0, None, &mut strings);
        assert_eq!(rec.bids.len(), 1);
        assert!(rec.bids[0].late);
        assert_eq!(rec.late_fraction(), Some(1.0));
        assert_eq!(rec.partner_latencies.len(), 1);
        assert!(rec.partner_latencies[0].late);
    }

    #[test]
    fn waterfall_site_not_detected() {
        let det = HbDetector::new(PartnerList::demo());
        let mut b = browser();
        det.attach(&mut b);
        // RTB-style traffic to a known partner without hb params.
        let id = b.next_request_id();
        let req = Request::get(
            id,
            Url::parse("https://rubicon-adnet.example/rtb/ad?floor=0.10&size=300x250&cb=7")
                .unwrap(),
        );
        b.note_request_out(&req, SimTime::from_millis(10));
        b.note_response_in(&req, &Response::no_content(id), SimTime::from_millis(90));
        let id2 = b.next_request_id();
        let req2 = Request::get(
            id2,
            Url::parse("https://rubicon-adnet.example/rtb/notify?wp=0.21&cb=9").unwrap(),
        );
        b.note_request_out(&req2, SimTime::from_millis(100));
        let mut strings = Interner::new();
        let rec = finish(&det, "wf.example", 50, 0, None, &mut strings);
        assert!(!rec.hb_detected, "waterfall must not be flagged");
        assert!(rec.facet.is_none());
        assert!(rec.bids.is_empty());
    }

    #[test]
    fn fault_accounting_counts_drops_retries_and_passback() {
        let det = HbDetector::new(PartnerList::demo());
        let mut b = browser();
        det.attach(&mut b);
        // First attempt to AppNexus: never completes (dropped on the wire).
        let id = b.next_request_id();
        let req = Request::get(
            id,
            Url::parse(
                "https://appnexus-adnet.example/hb/bid?hb_auction=a7&hb_bidder=appnexus&hb_source=client",
            )
            .unwrap(),
        );
        b.note_request_out(&req, SimTime::from_millis(10));
        // Deterministic retry, marked with hb_retry: also dropped.
        let id2 = b.next_request_id();
        let req2 = Request::get(
            id2,
            Url::parse(
                "https://appnexus-adnet.example/hb/bid?hb_auction=a7&hb_bidder=appnexus&hb_source=client&hb_retry=1",
            )
            .unwrap(),
        );
        b.note_request_out(&req2, SimTime::from_millis(250));
        // Every bidder failed: the wrapper serves a passback house ad.
        b.fire_event(SimTime::from_millis(3300), "passbackServed", &Json::obj([]));
        let mut strings = Interner::new();
        let rec = finish(&det, "pub7.example", 70, 0, None, &mut strings);
        assert!(rec.hb_detected, "bid requests alone prove HB");
        assert_eq!(rec.bids_dropped, 2);
        assert_eq!(rec.retries, 1);
        assert_eq!(rec.timed_out_partners, 1, "both drops are the same partner");
        assert!(rec.passback_served);
        assert!(rec.bids.is_empty());
        // passbackServed is counted but proves nothing by itself.
        assert_eq!(rec.event_counts.len(), 1, "only the passback event fired");
    }

    #[test]
    fn healthy_visit_has_zero_fault_counters() {
        let det = HbDetector::new(PartnerList::demo());
        let mut b = browser();
        det.attach(&mut b);
        synthetic_client_visit(&mut b);
        let mut strings = Interner::new();
        let rec = finish(&det, "pub.example", 10, 0, None, &mut strings);
        assert_eq!(rec.bids_dropped, 0);
        assert_eq!(rec.retries, 0);
        assert_eq!(rec.timed_out_partners, 0);
        assert!(!rec.passback_served);
    }

    #[test]
    fn empty_visit_not_detected() {
        let det = HbDetector::new(PartnerList::demo());
        let mut b = browser();
        det.attach(&mut b);
        let mut strings = Interner::new();
        let rec = finish(&det, "static.example", 60, 0, Some(120.0), &mut strings);
        assert!(!rec.hb_detected);
        assert_eq!(rec.partner_count(), 0);
    }
}

//! Per-worker scratch storage for visit execution.
//!
//! A simulated visit builds and tears down dozens of short-lived messages:
//! URLs with query multimaps, headers, request/response shells. Left to
//! the global allocator, each visit repeats the same pattern of small
//! `Vec` allocations. [`MsgScratch`] is the per-worker recycling pool
//! that breaks the cycle: buffers are loaned out during a visit, returned
//! when a message dies, and reused by the next visit on the same worker.
//!
//! ## Invariants
//!
//! * One scratch per worker thread — never shared, never `Send`-required.
//! * [`MsgScratch::begin_visit`] starts a new *generation* (a visit
//!   counter, exposed for diagnostics); buffers recycled under an older
//!   generation are still safe to reuse because every buffer is cleared
//!   on return to the pool.
//! * Recycling is best-effort: a message that escapes (e.g. stored in
//!   ground truth) is simply dropped by the allocator as before. The pool
//!   only ever *reduces* allocator traffic; it never changes behaviour.

use crate::hstr::HStr;
use crate::json::{Json, JsonScratch};
use crate::message::{Body, Request};
use crate::url::QueryParams;

/// Upper bound on pooled buffers of each kind (a visit rarely has more
/// than a dozen messages alive at once; anything beyond this cap is
/// returned to the allocator).
const POOL_CAP: usize = 32;

/// Per-worker recycling pool for visit-scoped message storage.
#[derive(Default)]
pub struct MsgScratch {
    /// Recycled query/header entry buffers.
    params: Vec<Vec<(HStr, HStr)>>,
    /// Monotonic visit counter (diagnostics; see module invariants).
    generation: u64,
}

impl MsgScratch {
    /// Fresh, empty scratch.
    pub fn new() -> MsgScratch {
        MsgScratch::default()
    }

    /// Start a new visit generation.
    pub fn begin_visit(&mut self) {
        self.generation += 1;
    }

    /// The current visit generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Loan an empty `QueryParams` backed by recycled storage.
    pub fn take_params(&mut self) -> QueryParams {
        match self.params.pop() {
            Some(buf) => QueryParams::with_storage(buf),
            None => QueryParams::new(),
        }
    }

    /// Recycle every pooled component of a finished request. The `HStr`
    /// components (host, path, initiator) are cheap to drop; only the
    /// entry vectors (and any JSON tree's spines) are worth keeping.
    pub fn recycle_request(&mut self, req: Request) {
        let Request {
            url, headers, body, ..
        } = req;
        self.keep(url.query.into_storage());
        self.keep(headers.into_storage());
        self.recycle_body(body);
    }

    /// Recycle a finished message body: form entry vectors return to this
    /// pool, JSON trees hand their spines to the thread's [`JsonScratch`].
    pub fn recycle_body(&mut self, body: Body) {
        match body {
            Body::Form(q) => self.keep(q.into_storage()),
            Body::Json(j) => JsonScratch::recycle(j),
            Body::Text(_) | Body::Empty => {}
        }
    }

    /// Recycle a dead JSON tree (see [`JsonScratch::recycle`]) — the
    /// worker-side door for payloads that die outside a message, e.g.
    /// DOM event payloads after they have been fired.
    pub fn recycle_json(&mut self, j: Json) {
        JsonScratch::recycle(j);
    }

    /// Keep a buffer for reuse when it holds real capacity and the pool
    /// has room; otherwise let the allocator reclaim it.
    fn keep(&mut self, mut buf: Vec<(HStr, HStr)>) {
        if buf.capacity() > 0 && self.params.len() < POOL_CAP {
            buf.clear();
            self.params.push(buf);
        }
    }

    /// Number of buffers currently cached (diagnostics).
    pub fn pooled_buffers(&self) -> usize {
        self.params.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RequestId;
    use crate::url::Url;

    #[test]
    fn params_roundtrip_through_pool() {
        let mut s = MsgScratch::new();
        s.begin_visit();
        let mut q = s.take_params();
        q.append("hb_bidder", "appnexus");
        s.recycle_body(Body::Form(q));
        assert_eq!(s.pooled_buffers(), 1);
        let q2 = s.take_params();
        assert!(q2.is_empty(), "recycled storage is cleared");
        assert_eq!(s.pooled_buffers(), 0);
    }

    #[test]
    fn requests_recycle_their_query_storage() {
        let mut s = MsgScratch::new();
        s.begin_visit();
        let mut q = s.take_params();
        q.append("k", "v");
        let url = Url::https_pooled(HStr::new("x.example"), HStr::from_static("/bid"), q);
        let req = Request::get(RequestId(1), url);
        s.recycle_request(req);
        assert!(s.pooled_buffers() >= 1);
    }

    #[test]
    fn generations_advance() {
        let mut s = MsgScratch::new();
        s.begin_visit();
        let g1 = s.generation();
        s.begin_visit();
        assert_eq!(s.generation(), g1 + 1);
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = MsgScratch::new();
        for _ in 0..100 {
            let mut q = QueryParams::new();
            q.append("a", "b"); // force a real allocation to pool
            s.recycle_body(Body::Form(q));
        }
        assert!(s.pooled_buffers() <= super::POOL_CAP);
    }
}

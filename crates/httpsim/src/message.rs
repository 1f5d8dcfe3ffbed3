//! HTTP request/response message types.
//!
//! These are simulation-level messages, not wire-format parsers: the
//! simulated browser and endpoints exchange structured values, and the
//! detector inspects them exactly the way a browser extension inspects
//! `webRequest` details (method, URL, headers, body).

use crate::hstr::{lower_ascii, HStr};
use crate::json::Json;
use crate::url::{QueryParams, Url};
use std::fmt;

/// HTTP method subset used by ad-tech traffic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// Safe retrieval.
    Get,
    /// Submission (bid requests are POSTs in prebid).
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// Case-insensitive header map (names stored lower-cased).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(HStr, HStr)>,
}

impl Headers {
    /// Empty header set.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Take the entry storage back for recycling (see
    /// [`MsgScratch`](crate::MsgScratch)).
    pub fn into_storage(self) -> Vec<(HStr, HStr)> {
        self.entries
    }

    /// Set a header, replacing existing values.
    pub fn set(&mut self, name: &str, value: impl Into<HStr>) {
        let lname = lower_ascii(name);
        self.entries.retain(|(n, _)| *n != lname);
        self.entries.push((lname, value.into()));
    }

    /// Get a header value.
    pub fn get(&self, name: &str) -> Option<&str> {
        let lname = lower_ascii(name);
        self.entries
            .iter()
            .find(|(n, _)| *n == lname)
            .map(|(_, v)| v.as_str())
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }
}

/// A message body.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Body {
    /// No body.
    #[default]
    Empty,
    /// Plain text (HTML pages, scripts). Stored as [`HStr`], so a long
    /// shared document (a memoized publisher page) is one `Arc<str>`
    /// cloned per response instead of a fresh `String` copy.
    Text(HStr),
    /// Structured JSON (bid requests/responses).
    Json(Json),
    /// `application/x-www-form-urlencoded` pairs.
    Form(QueryParams),
}

impl Body {
    /// Borrow the structured JSON body, without parsing or cloning.
    /// `None` for every other body: text bodies (pages, scripts) are
    /// never parsed as JSON.
    pub fn json(&self) -> Option<&Json> {
        match self {
            Body::Json(j) => Some(j),
            _ => None,
        }
    }

    /// Consume a structured JSON body, moving the tree out without
    /// cloning; `None` for every other body, as for [`Body::json`].
    pub fn into_json(self) -> Option<Json> {
        match self {
            Body::Json(j) => Some(j),
            _ => None,
        }
    }

    /// True when no payload is present.
    pub fn is_empty(&self) -> bool {
        matches!(self, Body::Empty)
    }

    /// Visit the parameters this body exposes: form pairs in order, or
    /// the scalar fields of a JSON body, recursing into arrays and nested
    /// objects (each key at its own name, matching how ad servers echo
    /// `hb_*` targeting maps). Text and empty bodies expose none. Form and
    /// empty bodies visit without heap allocation; JSON numbers/bools are
    /// formatted into one reusable buffer.
    pub fn for_each_visible_param<F: FnMut(&str, &str)>(&self, f: &mut F) {
        self.any_visible_param(&mut |k, v| {
            f(k, v);
            false
        });
    }

    /// Short-circuiting scan over this body's visible parameters: stops
    /// at the first pair for which `pred` returns true, skipping the
    /// value formatting and traversal of everything after it.
    pub fn any_visible_param<F: FnMut(&str, &str) -> bool>(&self, pred: &mut F) -> bool {
        match self {
            Body::Form(q) => q.iter().any(|(k, v)| pred(k, v)),
            Body::Json(j) => {
                let mut buf = String::new();
                probe_json_params(j, pred, &mut buf)
            }
            Body::Text(_) | Body::Empty => false,
        }
    }
}

/// Pass each scalar field of `j` to `pred` (strings borrowed, whole
/// numbers below 1e15 printed as integers, booleans as `true`/`false`,
/// nulls skipped), stopping once `pred` returns true.
fn probe_json_params<F: FnMut(&str, &str) -> bool>(
    j: &Json,
    pred: &mut F,
    buf: &mut String,
) -> bool {
    use std::fmt::Write as _;
    match j {
        Json::Obj(m) => {
            for (k, v) in m {
                let hit = match v {
                    Json::Str(s) => pred(k, s),
                    Json::Num(n) => {
                        buf.clear();
                        if n.fract() == 0.0 && n.abs() < 1e15 {
                            let _ = write!(buf, "{}", *n as i64);
                        } else {
                            let _ = write!(buf, "{n}");
                        }
                        pred(k, buf)
                    }
                    Json::Bool(b) => pred(k, if *b { "true" } else { "false" }),
                    Json::Arr(_) | Json::Obj(_) => probe_json_params(v, pred, buf),
                    Json::Null => false,
                };
                if hit {
                    return true;
                }
            }
            false
        }
        Json::Arr(items) => items.iter().any(|item| probe_json_params(item, pred, buf)),
        _ => false,
    }
}

/// Monotonic id correlating a request with its response within one page load.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// An outgoing HTTP request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Correlation id, unique within a browser session.
    pub id: RequestId,
    /// Method.
    pub method: Method,
    /// Target URL.
    pub url: Url,
    /// Headers.
    pub headers: Headers,
    /// Body.
    pub body: Body,
    /// Who initiated it (document, script name, extension) — mirrors the
    /// `initiator` field of the Chrome webRequest API.
    pub initiator: HStr,
}

impl Request {
    /// Construct a GET request.
    pub fn get(id: RequestId, url: Url) -> Request {
        Request {
            id,
            method: Method::Get,
            url,
            headers: Headers::new(),
            body: Body::Empty,
            initiator: HStr::EMPTY,
        }
    }

    /// Construct a POST request with a body.
    pub fn post(id: RequestId, url: Url, body: Body) -> Request {
        Request {
            id,
            method: Method::Post,
            url,
            headers: Headers::new(),
            body,
            initiator: HStr::EMPTY,
        }
    }

    /// Builder-style initiator tag.
    pub fn from_initiator(mut self, initiator: impl Into<HStr>) -> Request {
        self.initiator = initiator.into();
        self
    }

    /// Visit every parameter visible in this request: URL query pairs,
    /// then the body's (see [`Body::for_each_visible_param`]). This is the
    /// surface the detector scans for `hb_*` keys. Requests with form or
    /// empty bodies are visited with zero heap allocation — this is the
    /// detector's per-request hot path.
    pub fn for_each_visible_param<F: FnMut(&str, &str)>(&self, mut f: F) {
        for (k, v) in self.url.query.iter() {
            f(k, v);
        }
        self.body.for_each_visible_param(&mut f);
    }
}

/// HTTP status code (only the handful the simulation uses).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Status(pub u16);

impl Status {
    /// 200 OK
    pub const OK: Status = Status(200);
    /// 204 No Content (no-bid responses)
    pub const NO_CONTENT: Status = Status(204);
    /// 400 Bad Request
    pub const BAD_REQUEST: Status = Status(400);
    /// 404 Not Found
    pub const NOT_FOUND: Status = Status(404);
    /// 500 Internal Server Error
    pub const SERVER_ERROR: Status = Status(500);
    /// 504 Gateway Timeout
    pub const TIMEOUT: Status = Status(504);

    /// Is this a success status?
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An incoming HTTP response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Correlates with [`Request::id`].
    pub request_id: RequestId,
    /// Status code.
    pub status: Status,
    /// Headers.
    pub headers: Headers,
    /// Body.
    pub body: Body,
}

impl Response {
    /// A 200 response with a JSON body.
    pub fn json(request_id: RequestId, body: Json) -> Response {
        Response {
            request_id,
            status: Status::OK,
            headers: Headers::new(),
            body: Body::Json(body),
        }
    }

    /// A 200 response with a text body. Accepts anything `HStr`-able —
    /// pass an existing `HStr` to share its storage across responses.
    pub fn text(request_id: RequestId, body: impl Into<HStr>) -> Response {
        Response {
            request_id,
            status: Status::OK,
            headers: Headers::new(),
            body: Body::Text(body.into()),
        }
    }

    /// A 204 no-content response (e.g. a no-bid).
    pub fn no_content(request_id: RequestId) -> Response {
        Response {
            request_id,
            status: Status::NO_CONTENT,
            headers: Headers::new(),
            body: Body::Empty,
        }
    }

    /// An error response with the given status.
    pub fn error(request_id: RequestId, status: Status) -> Response {
        Response {
            request_id,
            status,
            headers: Headers::new(),
            body: Body::Empty,
        }
    }

    /// Visit every parameter visible in this response body (see
    /// [`Body::for_each_visible_param`]); this is what the detector scans
    /// to find `hb_*` keys in Server-Side HB.
    pub fn for_each_visible_param<F: FnMut(&str, &str)>(&self, mut f: F) {
        self.body.for_each_visible_param(&mut f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn headers_case_insensitive() {
        let mut h = Headers::new();
        h.set("Content-Type", "application/json");
        assert_eq!(h.get("content-type"), Some("application/json"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("application/json"));
        h.set("content-type", "text/html");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("Content-Type"), Some("text/html"));
    }

    #[test]
    fn request_constructors() {
        let r = Request::get(RequestId(1), url("https://x.com/a"));
        assert_eq!(r.method, Method::Get);
        assert!(r.body.is_empty());
        let p = Request::post(
            RequestId(2),
            url("https://x.com/bid"),
            Body::Json(Json::obj([("cpm", Json::num(1.0))])),
        )
        .from_initiator("prebid.js");
        assert_eq!(p.method, Method::Post);
        assert_eq!(p.initiator, "prebid.js");
    }

    /// Every `(key, value)` a request exposes, in visit order.
    fn params(r: &Request) -> Vec<(String, String)> {
        let mut out = Vec::new();
        r.for_each_visible_param(|k, v| out.push((k.to_string(), v.to_string())));
        out
    }

    #[test]
    fn visible_params_merges_url_and_body() {
        let mut form = QueryParams::new();
        form.append("hb_bidder", "rubicon");
        let r = Request::post(
            RequestId(3),
            url("https://x.com/bid?hb_pb=0.50"),
            Body::Form(form),
        );
        // URL pairs first, then the form body's.
        assert_eq!(
            params(&r),
            [
                ("hb_pb".into(), "0.50".into()),
                ("hb_bidder".into(), "rubicon".into())
            ]
        );
    }

    #[test]
    fn visible_params_flattens_json() {
        let body = Json::obj([
            ("hb_adid", Json::str("ad-77")),
            (
                "targeting",
                Json::obj([("hb_size", Json::str("300x250")), ("cpm", Json::num(0.42))]),
            ),
            (
                "seats",
                Json::Arr(vec![Json::obj([("hb_bidder", Json::str("openx"))])]),
            ),
            ("x", Json::num(1.0)),
            ("ok", Json::Bool(true)),
            ("gone", Json::Null),
        ]);
        let r = Request::post(RequestId(4), url("https://x.com/bid"), Body::Json(body));
        // Object keys visit in sorted order; nulls are skipped.
        let want: Vec<(String, String)> = [
            ("hb_adid", "ad-77"),
            ("ok", "true"),
            ("hb_bidder", "openx"),
            ("cpm", "0.42"),
            ("hb_size", "300x250"),
            ("x", "1"),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .into();
        assert_eq!(params(&r), want);
        // The probe stops at the first match.
        let mut seen = 0;
        assert!(r.body.any_visible_param(&mut |k, _| {
            seen += 1;
            k == "hb_bidder"
        }));
        assert_eq!(seen, 3);
        // Text bodies are pages and scripts: they expose no params, even
        // when they happen to hold JSON.
        let text = Response::text(RequestId(5), r#"{"hb_price":"0.31"}"#);
        let mut any = false;
        text.for_each_visible_param(|_, _| any = true);
        assert!(!any);
    }

    #[test]
    fn status_predicates() {
        assert!(Status::OK.is_success());
        assert!(Status::NO_CONTENT.is_success());
        assert!(!Status::NOT_FOUND.is_success());
        assert!(!Status::TIMEOUT.is_success());
    }

    #[test]
    fn body_json_borrows_without_parsing_text() {
        let j = Body::Json(Json::obj([("k", Json::Bool(true))]));
        assert_eq!(j.json().unwrap().get("k").unwrap().as_bool(), Some(true));
        // Borrowing accessor never parses text opportunistically.
        assert!(Body::Text(r#"{"k":true}"#.into()).json().is_none());
        assert!(Body::Empty.json().is_none());
    }

    #[test]
    fn body_into_json_moves_structured_bodies() {
        assert!(Body::Text(r#"{"k":true}"#.into()).into_json().is_none());
        assert!(Body::Empty.into_json().is_none());
        let owned = Body::Json(Json::obj([("n", Json::num(4.0))]));
        assert_eq!(
            owned.into_json().unwrap().get("n").unwrap().as_f64(),
            Some(4.0)
        );
    }
}

//! WebRequest classification.
//!
//! The request inspector checks every request/response pair against the
//! partner list and the library-fixed `hb_*` parameter dictionary, then
//! classifies it into the traffic classes the reconstruction needs. This is
//! the paper's third detection method ("monitor the web requests of a page
//! in real-time, and detect all the requests sent to and received from
//! known HB Demand Partners").
//!
//! The classifier is the detector's per-request hot path, so it borrows
//! everything: [`Classification`] holds a reference into the
//! [`PartnerList`] rather than cloned strings, and the parameter scan
//! walks the request in place. Classifying a request with a form or empty
//! body performs **zero heap allocations**.

use crate::list::{PartnerEntry, PartnerList};
use hb_http::{Request, Response};

/// The prefix the HB parameter dictionary shares.
pub const HB_PARAM_PREFIX: &str = "hb_";

/// Parameter keys that alone indicate HB even without the prefix.
const BARE_HB_KEYS: [&str; 2] = ["bidder", "cpm"];

/// Traffic classes relevant to HB reconstruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RequestKind {
    /// A bid request to a known partner.
    BidRequest,
    /// A call to an ad-server-like decisioning endpoint carrying HB
    /// targeting (either the publisher's own ad server or a provider).
    AdServerCall,
    /// A win notification carrying an HB clearing price.
    WinNotification,
    /// A wrapper / ad-manager library fetch.
    LibraryLoad,
    /// Request to a known partner that carries no HB parameters (pixels,
    /// cookie syncs, trackers).
    PartnerOther,
    /// Not related to HB.
    Unrelated,
}

/// Does this key belong to the HB parameter dictionary?
pub fn is_hb_param(key: &str) -> bool {
    key.starts_with(HB_PARAM_PREFIX) || BARE_HB_KEYS.contains(&key)
}

/// Extract the HB parameters visible in a request (URL + body).
///
/// Allocating convenience for tests and tooling; the detector itself
/// scans in place via [`Request::for_each_visible_param`].
pub fn hb_params_of_request(req: &Request) -> Vec<(String, String)> {
    let mut out = Vec::new();
    req.for_each_visible_param(|k, v| {
        if is_hb_param(k) {
            out.push((k.to_string(), v.to_string()));
        }
    });
    out
}

/// Extract the HB parameters visible in a response body.
pub fn hb_params_of_response(rsp: &Response) -> Vec<(String, String)> {
    let mut out = Vec::new();
    rsp.for_each_visible_param(|k, v| {
        if is_hb_param(k) {
            out.push((k.to_string(), v.to_string()));
        }
    });
    out
}

/// Does the response body carry any HB dictionary key? (The detector's
/// server-side signal — checked on every completed response, so it avoids
/// materializing the parameter list.)
pub fn response_has_hb_params(rsp: &Response) -> bool {
    rsp.body.any_visible_param(&mut |k, _| is_hb_param(k))
}

/// Classification result, borrowing the matched partner from the list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Classification<'a> {
    /// The traffic class.
    pub kind: RequestKind,
    /// Index of the matched partner in the list, when the host matched.
    pub partner_index: Option<u32>,
    /// The matched partner entry, when the host matched.
    pub partner: Option<&'a PartnerEntry>,
}

impl<'a> Classification<'a> {
    /// Partner display name when the host matched the list.
    pub fn partner_name(&self) -> Option<&'a str> {
        self.partner.map(|e| e.name.as_str())
    }

    /// Partner bidder code when the host matched the list.
    pub fn partner_code(&self) -> Option<&'a str> {
        self.partner.map(|e| e.code.as_str())
    }

    /// Whether the matched partner is a known ad-server operator.
    pub fn partner_is_ad_server(&self) -> bool {
        self.partner.is_some_and(|e| e.is_ad_server)
    }
}

/// Classify one outgoing request. Zero-allocation for requests with form
/// or empty bodies (the no-match fast path in particular).
pub fn classify_request<'a>(list: &'a PartnerList, req: &Request) -> Classification<'a> {
    let partner_index = list.match_host_index(&req.url.host);
    let partner = partner_index.map(|i| list.entry(i));

    // Single in-place scan over the visible parameters.
    let mut has_hb = false;
    let mut has_price = false;
    let mut has_slot = false;
    let mut has_account = false;
    let mut first_source_is_s2s: Option<bool> = None;
    req.for_each_visible_param(|k, v| {
        if is_hb_param(k) {
            has_hb = true;
        }
        match k {
            "hb_price" => has_price = true,
            "hb_slot" => has_slot = true,
            "account" => has_account = true,
            "hb_source" => {
                if first_source_is_s2s.is_none() {
                    first_source_is_s2s = Some(v == "s2s");
                }
            }
            _ => {}
        }
    });
    let path = req.url.path.as_str();

    let kind = if path.ends_with(".js")
        || path.contains("prebid")
        || path.contains("gpt")
        || path.contains("pubfood")
    {
        RequestKind::LibraryLoad
    } else if has_hb {
        // The parameter *shape* separates the message types:
        // win notifications carry a clearing price; decisioning calls carry
        // slot lists / source tags; everything else with hb_ keys to a
        // partner is a bid request.
        if has_price {
            RequestKind::WinNotification
        } else if has_slot || first_source_is_s2s == Some(true) || has_account {
            RequestKind::AdServerCall
        } else if partner.is_some() {
            RequestKind::BidRequest
        } else {
            // hb_ params to an unknown host: treat as the publisher's own
            // ad server only when slot/source info is present (handled
            // above); otherwise it is unclassifiable bid-like traffic.
            RequestKind::AdServerCall
        }
    } else if partner.is_some() {
        RequestKind::PartnerOther
    } else {
        RequestKind::Unrelated
    };

    Classification {
        kind,
        partner_index,
        partner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_http::{Body, Json, RequestId, Url};

    fn list() -> PartnerList {
        PartnerList::demo()
    }

    fn get(url: &str) -> Request {
        Request::get(RequestId(1), Url::parse(url).unwrap())
    }

    #[test]
    fn hb_param_dictionary() {
        assert!(is_hb_param("hb_pb"));
        assert!(is_hb_param("hb_bidder"));
        assert!(is_hb_param("bidder"));
        assert!(is_hb_param("cpm"));
        assert!(!is_hb_param("price"));
        assert!(!is_hb_param("q"));
        assert!(!is_hb_param("hbx"));
    }

    #[test]
    fn bid_request_classified() {
        let req = get(
            "https://appnexus-adnet.example/hb/bid?hb_auction=a1&hb_bidder=appnexus&hb_source=client",
        );
        let list = list();
        let c = classify_request(&list, &req);
        assert_eq!(c.kind, RequestKind::BidRequest);
        assert_eq!(c.partner_name(), Some("AppNexus"));
        assert!(!c.partner_is_ad_server());
    }

    #[test]
    fn adserver_call_to_partner() {
        let req = get(
            "https://doubleclick-adnet.example/gampad/ads?account=pub-1&hb_auction=a1&hb_source=s2s&hb_slot=s1",
        );
        let list = list();
        let c = classify_request(&list, &req);
        assert_eq!(c.kind, RequestKind::AdServerCall);
        assert!(c.partner_is_ad_server());
        assert_eq!(c.partner_name(), Some("DFP"));
    }

    #[test]
    fn adserver_call_to_own_host() {
        let req = get(
            "https://ads.pub77.example/gampad/ads?account=pub-77&hb_auction=a1&hb_slot=s1&hb_bidder=rubicon&hb_pb=0.50",
        );
        let list = list();
        let c = classify_request(&list, &req);
        assert_eq!(c.kind, RequestKind::AdServerCall);
        assert!(
            c.partner_name().is_none(),
            "own ad server is not in the list"
        );
    }

    #[test]
    fn win_notification_classified() {
        let req =
            get("https://rubicon-adnet.example/hb/win?hb_price=0.40&hb_adid=cr-1&hb_auction=a1");
        let list = list();
        let c = classify_request(&list, &req);
        assert_eq!(c.kind, RequestKind::WinNotification);
        assert_eq!(c.partner_code(), Some("rubicon"));
    }

    #[test]
    fn library_load_classified() {
        let req = get("https://cdn.example/prebid.js");
        let list = list();
        let c = classify_request(&list, &req);
        assert_eq!(c.kind, RequestKind::LibraryLoad);
    }

    #[test]
    fn partner_tracker_without_hb_params() {
        let req = get("https://rubicon-adnet.example/pixel?uid=123");
        let list = list();
        let c = classify_request(&list, &req);
        assert_eq!(c.kind, RequestKind::PartnerOther);
    }

    #[test]
    fn rtb_waterfall_traffic_is_partner_other_not_hb() {
        // Waterfall notification: DSP-specific param names, no hb_ keys.
        let req = get("https://rubicon-adnet.example/rtb/notify?wp=0.3021&cb=99");
        let list = list();
        let c = classify_request(&list, &req);
        assert_eq!(c.kind, RequestKind::PartnerOther);
    }

    #[test]
    fn unrelated_traffic() {
        let req = get("https://images.news.example/logo.png");
        let list = list();
        let c = classify_request(&list, &req);
        assert_eq!(c.kind, RequestKind::Unrelated);
        assert!(c.partner_name().is_none());
        assert!(c.partner_index.is_none());
    }

    #[test]
    fn body_params_also_scanned() {
        let body = Json::obj([("hb_auction", Json::str("a9"))]);
        let req = Request::post(
            RequestId(2),
            Url::parse("https://appnexus-adnet.example/hb/bid").unwrap(),
            Body::Json(body),
        );
        let list = list();
        let c = classify_request(&list, &req);
        assert_eq!(c.kind, RequestKind::BidRequest);
        let params = hb_params_of_request(&req);
        assert!(params.iter().any(|(k, v)| k == "hb_auction" && v == "a9"));
    }

    #[test]
    fn response_param_extraction() {
        let rsp = hb_http::Response::json(
            RequestId(3),
            Json::obj([
                ("hb_bidder", Json::str("ix")),
                ("hb_pb", Json::str("0.30")),
                ("other", Json::str("x")),
            ]),
        );
        let params = hb_params_of_response(&rsp);
        assert_eq!(params.len(), 2);
        assert!(params.iter().all(|(k, _)| k.starts_with("hb_")));
        assert!(response_has_hb_params(&rsp));
        let empty = hb_http::Response::no_content(RequestId(4));
        assert!(!response_has_hb_params(&empty));
    }

    #[test]
    fn partner_index_resolves_to_entry() {
        let list = list();
        let req = get("https://fast.cdn.appnexus-adnet.example/hb/bid?hb_auction=a1");
        let c = classify_request(&list, &req);
        let idx = c.partner_index.unwrap();
        assert_eq!(list.entry(idx).code, "appnexus");
        assert_eq!(c.partner_code(), Some("appnexus"));
    }
}

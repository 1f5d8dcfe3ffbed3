//! Property tests for the detector's classification, list-matching and
//! static script scan invariants.

use hb_core::{
    analyze_html, classify_request, is_hb_param, LibrarySignatures, PartnerEntry, PartnerList,
    RequestKind,
};
use hb_dom::any_script;
use hb_http::{Request, RequestId, Url};
use proptest::prelude::*;

fn arb_host() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9]{0,10}(\\.[a-z][a-z0-9]{0,10}){1,3}").unwrap()
}

fn arb_path() -> impl Strategy<Value = String> {
    proptest::string::string_regex("(/[a-z0-9._-]{0,12}){0,4}").unwrap()
}

fn arb_query() -> impl Strategy<Value = String> {
    proptest::string::string_regex("([a-z_]{1,10}=[a-zA-Z0-9.%-]{0,10}&?){0,6}").unwrap()
}

/// One generated `<script>`: `src` (empty: no attribute), inline body,
/// tag spelling (case and an extra attribute), `src` quoting, and the
/// non-script markup before it.
type ScriptSpec = (String, String, usize, usize, usize);

fn arb_script() -> impl Strategy<Value = ScriptSpec> {
    (
        "([a-zA-Z0-9:/._?=&-]{1,24})?",
        "[a-zA-Z0-9 ;.(){}=,'\"]{0,30}",
        0usize..3,
        0usize..4,
        0usize..5,
    )
}

/// Markup that is not a script tag (nor contains one).
const FILLER: [&str; 5] = [
    "",
    "<div id=\"ad-slot-1\" class=\"ad-unit\"></div>\n",
    "<p>src=\"x.js\" is not a script</p>",
    "<title>news</title>",
    "<link rel=stylesheet href=s.css>",
];

/// Render the scripts as one page, spelling each tag the way its spec says.
fn script_page(scripts: &[ScriptSpec]) -> String {
    const TAGS: [(&str, &str, &str); 3] = [
        ("<script", " src=", "</script>"),
        ("<SCRIPT", " SRC=", "</SCRIPT>"),
        ("<ScRiPt type=\"text/javascript\"", " Src=", "</sCrIpT>"),
    ];
    let mut html = String::from("<!DOCTYPE html>\n<html><head>");
    for (src, inline, tag, quote, filler) in scripts {
        let (open, attr, close) = TAGS[*tag];
        html.push_str(FILLER[*filler]);
        html.push_str(open);
        if !src.is_empty() {
            html.push_str(attr);
            html.push_str(&match quote {
                0 => format!("\"{src}\""),
                1 => format!("'{src}'"),
                2 => format!("{src} async"),
                _ => src.clone(),
            });
        }
        html.push('>');
        html.push_str(inline);
        html.push_str(close);
    }
    html.push_str("</head></html>\n");
    html
}

/// Fragments that truncate tags, leave quotes open or are not ASCII.
const FRAGMENTS: [&str; 12] = [
    "<script",
    "<SCRIPT src=",
    " src=\"",
    "src='",
    "'",
    "\"",
    ">",
    "</script>",
    "</scr",
    "pbjs.requestBids(",
    "\u{e9}\u{4e2d}",
    "\u{1F600}",
];

proptest! {
    /// The script scan returns exactly the generated `(src, inline)`
    /// pairs, whatever the tag case, `src` quoting and markup around them.
    #[test]
    fn script_scan_matches_reference(scripts in proptest::collection::vec(arb_script(), 0..8)) {
        let html = script_page(&scripts);
        let mut got = Vec::new();
        any_script(&html, |src, inline| {
            got.push((src.to_string(), inline.to_string()));
            false
        });
        let want: Vec<(String, String)> = scripts
            .iter()
            .map(|(src, inline, ..)| (src.clone(), inline.trim().to_string()))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// No input reaches a panic: the scan and `analyze_html` are total on
    /// arbitrary text, truncated tags and unterminated quotes included.
    #[test]
    fn script_scan_total(
        parts in proptest::collection::vec((0usize..FRAGMENTS.len(), "\\PC{0,6}"), 0..24),
        tail in "\\PC{0,64}",
    ) {
        let mut html: String = parts.iter().map(|(i, s)| format!("{}{s}", FRAGMENTS[*i])).collect();
        html.push_str(&tail);
        for text in [html.as_str(), tail.as_str()] {
            any_script(text, |_, inline| {
                assert_eq!(inline, inline.trim());
                false
            });
            let _ = analyze_html(&LibrarySignatures::default(), text);
        }
    }

    /// Classification never panics and always returns a coherent result on
    /// arbitrary URLs.
    #[test]
    fn classification_total(host in arb_host(), path in arb_path(), query in arb_query()) {
        let list = PartnerList::demo();
        let raw = format!("https://{host}{}{}{}",
            if path.is_empty() { "/" } else { &path },
            if query.is_empty() { "" } else { "?" },
            query);
        let url = Url::parse(&raw).unwrap();
        let url_host = url.host.clone();
        let req = Request::get(RequestId(1), url);
        let c = classify_request(&list, &req);
        // The borrowed classification agrees with an independent list
        // lookup: same entry (by index), same name.
        let expected = list.match_host(&url_host);
        prop_assert_eq!(c.partner_name(), expected.map(|e| e.name.as_str()));
        prop_assert_eq!(
            c.partner_index.map(|i| list.entry(i).code.as_str()),
            expected.map(|e| e.code.as_str())
        );
        if c.kind == RequestKind::PartnerOther {
            prop_assert!(c.partner_name().is_some());
        }
    }

    /// Traffic without hb_* params to unknown hosts is never HB-classified.
    #[test]
    fn no_hb_params_no_hb_class(host in arb_host(), path in arb_path()) {
        let list = PartnerList::demo();
        prop_assume!(list.match_host(&host).is_none());
        prop_assume!(!path.ends_with(".js"));
        prop_assume!(!path.contains("prebid") && !path.contains("gpt") && !path.contains("pubfood"));
        let url = Url::parse(&format!("https://{host}{}", if path.is_empty() { "/" } else { &path })).unwrap();
        let req = Request::get(RequestId(1), url);
        let c = classify_request(&list, &req);
        prop_assert_eq!(c.kind, RequestKind::Unrelated);
    }

    /// The hb_ param dictionary is prefix-consistent.
    #[test]
    fn hb_param_prefix(key in "[a-z_]{1,16}") {
        if key.starts_with("hb_") {
            prop_assert!(is_hb_param(&key));
        }
        if is_hb_param(&key) {
            prop_assert!(key.starts_with("hb_") || key == "bidder" || key == "cpm");
        }
    }

    /// Subdomains of listed partner domains always match; unrelated
    /// suffix-similar hosts never do.
    #[test]
    fn partner_list_matching(sub in "[a-z]{1,8}", decoy in "[a-z]{1,8}") {
        let list = PartnerList::new([PartnerEntry {
            name: "X".into(),
            code: "x".into(),
            domains: vec!["x-adnet.example".into()],
            is_ad_server: false,
        }]);
        let sub_host = format!("{sub}.x-adnet.example");
        let decoy_host = format!("{decoy}x-adnet.example");
        prop_assert!(list.match_host(&sub_host).is_some());
        prop_assert!(list.match_host(&decoy_host).is_none());
    }
}

fn arb_token() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9._-]{0,12}").unwrap()
}

proptest! {
    /// Interning then resolving always returns the original string, and
    /// re-interning returns the same symbol (dedup invariant).
    #[test]
    fn intern_resolve_roundtrip(words in proptest::collection::vec(arb_token(), 0..40)) {
        let mut interner = hb_core::Interner::new();
        let symbols: Vec<hb_core::Symbol> = words.iter().map(|w| interner.intern(w)).collect();
        for (word, sym) in words.iter().zip(&symbols) {
            prop_assert_eq!(interner.resolve(*sym), word.as_str());
            prop_assert_eq!(interner.intern(word), *sym);
        }
    }

    /// The interner stores exactly one entry per distinct string: its size
    /// equals the distinct word count plus the pre-interned "".
    #[test]
    fn intern_dedup_invariant(words in proptest::collection::vec(arb_token(), 0..40)) {
        let mut interner = hb_core::Interner::new();
        for w in &words {
            interner.intern(w);
        }
        let distinct: std::collections::BTreeSet<&str> =
            words.iter().map(|w| w.as_str()).collect();
        let expected = distinct.len() + usize::from(!distinct.contains(""));
        prop_assert_eq!(interner.len(), expected);
        // Equal strings map to equal symbols; distinct strings to distinct.
        let mut seen: std::collections::HashMap<&str, hb_core::Symbol> = Default::default();
        for w in &words {
            let sym = interner.intern(w);
            match seen.get(w.as_str()) {
                Some(prev) => prop_assert_eq!(*prev, sym),
                None => {
                    prop_assert!(!seen.values().any(|s| *s == sym));
                    seen.insert(w, sym);
                }
            }
        }
    }

    /// Interning order is stable: symbols are handed out densely in
    /// first-sight order, and iteration replays it.
    #[test]
    fn intern_iteration_replays_first_sight_order(words in proptest::collection::vec(arb_token(), 0..24)) {
        let mut interner = hb_core::Interner::new();
        let mut first_sight: Vec<String> = vec![String::new()];
        for w in &words {
            if !first_sight.iter().any(|s| s == w) {
                first_sight.push(w.clone());
            }
            interner.intern(w);
        }
        let replayed: Vec<String> = interner.iter().map(|(_, s)| s.to_string()).collect();
        prop_assert_eq!(replayed, first_sight);
    }
}

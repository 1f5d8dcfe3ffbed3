//! Property tests for the HTTP substrate: URL and JSON round-trips, and
//! the JSON object against a `BTreeMap` model.

use hb_http::json::LINEAR_LOOKUP_MAX;
use hb_http::{percent_decode, percent_encode, HStr, Json, JsonObj, QueryParams, Url};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy for URL-safe-ish arbitrary strings (anything printable).
fn any_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,24}").unwrap()
}

fn hostish() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9]{0,8}(\\.[a-z][a-z0-9]{0,8}){1,3}").unwrap()
}

fn json_leaf() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite, roundtrip-safe numbers.
        (-1.0e12f64..1.0e12).prop_map(|n| Json::Num((n * 1000.0).round() / 1000.0)),
        any_text().prop_map(|s| Json::Str(HStr::from(s))),
    ]
}

fn json_value() -> impl Strategy<Value = Json> {
    json_leaf().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            proptest::collection::btree_map(
                proptest::string::string_regex("[a-zA-Z_][a-zA-Z0-9_]{0,10}").unwrap(),
                inner,
                0..4
            )
            .prop_map(|m| Json::Obj(m.into_iter().map(|(k, v)| (HStr::from(k), v)).collect())),
        ]
    })
}

/// Keys probed against every object: the whole alphabet the pair
/// strategy draws from, plus one key outside it.
fn probe_keys() -> Vec<String> {
    let letters = ["a", "b", "c", "d", "e", "f"];
    let mut keys = vec![String::new(), "zz".to_owned()];
    for a in letters {
        keys.push(a.to_owned());
        for b in letters {
            keys.push(format!("{a}{b}"));
        }
    }
    keys
}

/// A `JsonObj` collected from `pairs` must equal the last-write-wins
/// `BTreeMap` model of the same pairs: the same entries in the same
/// order, the same compact bytes, and the same `get` / `get_mut` for
/// present and absent keys.
fn check_obj_against_model(pairs: &[(String, Json)]) -> Result<(), TestCaseError> {
    let mut model: BTreeMap<&str, &Json> = BTreeMap::new();
    for (k, v) in pairs {
        model.insert(k, v);
    }
    let mut obj: JsonObj = pairs
        .iter()
        .map(|(k, v)| (HStr::from(k.as_str()), v.clone()))
        .collect();

    let got: Vec<(&str, &Json)> = obj.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let want: Vec<(&str, &Json)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert_eq!(got, want);

    let mut bytes = String::from("{");
    for (i, (k, v)) in model.iter().enumerate() {
        if i > 0 {
            bytes.push(',');
        }
        bytes.push_str(&Json::str(*k).to_string_compact());
        bytes.push(':');
        bytes.push_str(&v.to_string_compact());
    }
    bytes.push('}');
    prop_assert_eq!(Json::Obj(obj.clone()).to_string_compact(), bytes);

    let probes = probe_keys();
    for key in probes
        .iter()
        .map(String::as_str)
        .chain(model.keys().copied())
    {
        let want = model.get(key).copied();
        prop_assert_eq!(obj.get(key), want, "get({:?}) on {} keys", key, obj.len());
        let got_mut = obj.get_mut(key).map(|v| v.clone());
        prop_assert_eq!(got_mut.as_ref(), want);
    }
    Ok(())
}

#[test]
fn json_obj_matches_model_at_the_linear_scan_threshold() {
    // Objects just below, at and above the linear-scan threshold, keys
    // fed in descending order, three of them written twice.
    for n in [
        LINEAR_LOOKUP_MAX - 1,
        LINEAR_LOOKUP_MAX,
        LINEAR_LOOKUP_MAX + 1,
        3 * LINEAR_LOOKUP_MAX,
    ] {
        let key = |i: usize| format!("k{i:02}");
        let mut pairs: Vec<(String, Json)> = (0..n)
            .rev()
            .map(|i| (key(i), Json::num(i as f64)))
            .collect();
        for (i, dup) in [0, n / 2, n - 1].into_iter().enumerate() {
            pairs.insert(2 * i + 1, (key(dup), Json::str(format!("rewrite {i}"))));
        }
        check_obj_against_model(&pairs).unwrap();
    }
}

proptest! {
    /// A `JsonObj` built from arbitrary pairs — duplicates common, sizes
    /// on both sides of the linear-scan threshold — equals the
    /// last-write-wins `BTreeMap` model.
    #[test]
    fn json_obj_matches_btreemap_model(
        pairs in proptest::collection::vec(("[a-f]{0,2}", json_leaf()), 0..40),
    ) {
        check_obj_against_model(&pairs)?;
    }

    /// Percent-encoding always decodes back to the original string.
    #[test]
    fn percent_roundtrip(s in "\\PC*") {
        let encoded = percent_encode(&s);
        prop_assert_eq!(percent_decode(&encoded), s);
    }

    /// Query strings round-trip through encode/parse.
    #[test]
    fn query_roundtrip(pairs in proptest::collection::vec((any_text(), any_text()), 0..12)) {
        let mut q = QueryParams::new();
        for (k, v) in &pairs {
            q.append(k.clone(), v.clone());
        }
        let parsed = QueryParams::parse(&q.encode());
        // encode always emits `k=v` (even for empty k and v), so the
        // round-trip is exact — only bare `&&` segments are skipped by the
        // parser, and encode never produces those.
        let got: Vec<(String, String)> =
            parsed.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        prop_assert_eq!(got, pairs);
    }

    /// URLs round-trip through to_string/parse.
    #[test]
    fn url_roundtrip(
        host in hostish(),
        path in proptest::string::string_regex("(/[a-z0-9]{0,6}){0,4}").unwrap(),
        pairs in proptest::collection::vec((any_text(), any_text()), 0..6),
    ) {
        let mut u = Url::https(&host, if path.is_empty() { "/" } else { &path });
        for (k, v) in &pairs {
            if k.is_empty() && v.is_empty() { continue; }
            u.query.append(k.clone(), v.clone());
        }
        let reparsed = Url::parse(&u.to_string_full()).unwrap();
        prop_assert_eq!(u, reparsed);
    }

    /// JSON values round-trip through serialize/parse.
    #[test]
    fn json_roundtrip(v in json_value()) {
        let s = v.to_string_compact();
        let parsed = Json::parse(&s).unwrap();
        prop_assert_eq!(v, parsed);
    }

    /// The JSON parser never panics on arbitrary input.
    #[test]
    fn json_parser_total(s in "\\PC{0,64}") {
        let _ = Json::parse(&s);
    }

    /// The URL parser never panics on arbitrary input.
    #[test]
    fn url_parser_total(s in "\\PC{0,64}") {
        let _ = Url::parse(&s);
    }
}

//! Property tests for the ad-tech protocol layer.

use hb_adtech::protocol::{bid_response_body, parse_bid_response};
use hb_adtech::{
    first_price_winner, AdSize, BidPayload, Cpm, FillChannel, InternalAuction, WinnerPayload,
};
use hb_simnet::{Dist, Rng};
use proptest::prelude::*;

fn arb_size() -> impl Strategy<Value = AdSize> {
    (1u32..2000, 1u32..2000).prop_map(|(w, h)| AdSize::new(w, h))
}

fn arb_cpm() -> impl Strategy<Value = Cpm> {
    (0.0f64..50.0).prop_map(|v| Cpm((v * 10_000.0).round() / 10_000.0))
}

fn arb_code() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9_]{1,14}").unwrap()
}

fn arb_bid() -> impl Strategy<Value = BidPayload> {
    (arb_code(), arb_code(), arb_cpm(), arb_size()).prop_map(|(bidder, slot, cpm, size)| {
        BidPayload {
            bidder: bidder.into(),
            slot: slot.into(),
            cpm,
            size,
            ad_id: "cr-1".into(),
            currency: "USD".into(),
        }
    })
}

/// The six standard sizes.
const STANDARD: [AdSize; 6] = [
    AdSize::MEDIUM_RECT,
    AdSize::LEADERBOARD,
    AdSize::HALF_PAGE,
    AdSize::MOBILE_BANNER,
    AdSize::BILLBOARD,
    AdSize::SKYSCRAPER,
];

/// Any size: a standard one, a small one, or any `u32` pair.
fn any_size() -> impl Strategy<Value = AdSize> {
    prop_oneof![
        (0usize..6).prop_map(|i| STANDARD[i]),
        (0u32..2000, 0u32..2000).prop_map(|(w, h)| AdSize::new(w, h)),
        (any::<u32>(), any::<u32>()).prop_map(|(w, h)| AdSize::new(w, h)),
    ]
}

/// Text near the size notation: standard labels, the same with
/// whitespace or stray characters around either number, and free-form
/// digit/`x`/space soup.
fn size_text() -> impl Strategy<Value = String> {
    let label = (0usize..6).prop_map(|i| STANDARD[i].to_string());
    let padded = (0usize..6, " {0,2}", " {0,2}", " {0,2}", "[ 0a]{0,1}").prop_map(
        |(i, lead, mid, trail, stray)| {
            let s = STANDARD[i];
            format!("{lead}{}{mid}x{mid}{}{trail}{stray}", s.w, s.h)
        },
    );
    prop_oneof![label, padded, "[0-9x ]{0,10}", "[0-9]{1,4}x[0-9]{1,4}"]
}

/// `AdSize::parse` without its fast path: split at the first `x`, trim,
/// parse both numbers.
fn general_parse(s: &str) -> Option<AdSize> {
    let (w, h) = s.split_once('x')?;
    Some(AdSize::new(w.trim().parse().ok()?, h.trim().parse().ok()?))
}

/// Prices on the edges of the fast path's domain.
const EDGE_PRICES: [f64; 9] = [
    -0.0,
    0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    999_999_999.995,
    1e9,
    0.005,
];

/// Prices across every branch of `Cpm::to_param`: arbitrary magnitudes
/// of both signs, exact cents, exact binary `.5`-cent ties (`m/8`),
/// decimal `.xx5` literals that sit a hair off a tie, `-0.0`, NaN, ±inf,
/// and values at and beyond the 1e9 bound.
fn any_price() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        (0u64..10_000_000).prop_map(|c| c as f64 / 100.0),
        (0u64..10_000_000).prop_map(|m| (2 * m + 1) as f64 / 8.0),
        (0u64..1_000_000).prop_map(|k| format!("{}.{:02}5", k / 100, k % 100).parse().unwrap()),
        (0usize..EDGE_PRICES.len()).prop_map(|i| EDGE_PRICES[i]),
        1e8f64..1e12,
        -1e6f64..0.0,
    ]
}

proptest! {
    /// `AdSize::parse`'s standard-label fast path agrees with the general
    /// path on every input, whitespace forms included.
    #[test]
    fn adsize_parse_fast_path_agrees(s in size_text()) {
        prop_assert_eq!(AdSize::parse(&s), general_parse(&s), "input {:?}", s);
    }

    /// `Cpm::to_param` renders exactly `format!("{:.2}")` for any `f64`.
    #[test]
    fn cpm_to_param_matches_format(x in any_price()) {
        let (param, formatted) = (Cpm(x).to_param(), format!("{x:.2}"));
        prop_assert_eq!(param.as_str(), formatted.as_str(), "price {:?}: {} vs {}", x, param, formatted);
    }

    /// `AdSize::label` renders exactly what `Display` does, for any size,
    /// and parses back.
    #[test]
    fn adsize_roundtrip(size in any_size()) {
        let (label, shown) = (size.label(), size.to_string());
        prop_assert_eq!(label.as_str(), shown.as_str());
        prop_assert_eq!(AdSize::parse(&label), Some(size));
    }

    /// Price buckets never exceed the raw price and are idempotent.
    #[test]
    fn bucket_is_monotone_floor(v in 0.0f64..100.0, g in 0.001f64..1.0) {
        let c = Cpm(v);
        let b = c.bucket(g);
        prop_assert!(b.0 <= c.0 + 1e-12);
        prop_assert!(c.0 - b.0 < g + 1e-9);
        let bb = b.bucket(g);
        prop_assert!((bb.0 - b.0).abs() < 1e-9, "idempotent: {} vs {}", bb.0, b.0);
    }

    /// Bid payloads round-trip through JSON.
    #[test]
    fn bid_payload_roundtrip(bid in arb_bid()) {
        let back = BidPayload::from_json(&bid.to_json()).unwrap();
        prop_assert_eq!(back.bidder, bid.bidder);
        prop_assert_eq!(back.slot, bid.slot);
        prop_assert!((back.cpm.0 - bid.cpm.0).abs() < 1e-9);
        prop_assert_eq!(back.size, bid.size);
    }

    /// Bid-response bodies round-trip with arbitrary bid lists.
    #[test]
    fn bid_response_roundtrip(bids in proptest::collection::vec(arb_bid(), 0..8)) {
        let body = bid_response_body("auc-x", &bids);
        let (auction, back) = parse_bid_response(&body).unwrap();
        prop_assert_eq!(auction, "auc-x");
        prop_assert_eq!(back.len(), bids.len());
    }

    /// Winner payloads round-trip for every channel.
    #[test]
    fn winner_roundtrip(
        channel_idx in 0usize..4,
        size in arb_size(),
        pb in arb_cpm(),
        bidder in arb_code(),
    ) {
        let channel = [
            FillChannel::HeaderBid,
            FillChannel::DirectOrder,
            FillChannel::Fallback,
            FillChannel::Unfilled,
        ][channel_idx];
        let w = WinnerPayload {
            slot: "s1".into(),
            bidder: if channel == FillChannel::HeaderBid { bidder.into() } else { hb_http::HStr::EMPTY },
            pb: if channel == FillChannel::HeaderBid { Cpm((pb.0 * 100.0).round() / 100.0) } else { Cpm::ZERO },
            size,
            ad_id: if channel == FillChannel::HeaderBid { "a".into() } else { hb_http::HStr::EMPTY },
            channel,
        };
        let back = WinnerPayload::from_json(&w.to_json()).unwrap();
        prop_assert_eq!(back.channel, w.channel);
        prop_assert_eq!(back.slot, w.slot);
        prop_assert_eq!(back.size, w.size);
        if channel == FillChannel::HeaderBid {
            prop_assert_eq!(back.bidder, w.bidder);
        }
    }

    /// Second-price auctions never charge above the winning bid, and the
    /// clearing price equals one of the submitted bids.
    #[test]
    fn second_price_invariants(seed in any::<u64>(), seats in 1u32..12, price_mid in 0.01f64..2.0) {
        let d = Dist::LogNormal { mu: price_mid.ln(), sigma: 0.7 };
        let a = InternalAuction::new(seats, &d);
        let mut rng = Rng::new(seed);
        if let Some(out) = a.run_detailed(&mut rng) {
            prop_assert!(out.clearing_price.0 <= out.winner.price.0 + 1e-12);
            prop_assert!(out.n_bids >= 1);
            prop_assert!(out.clearing_price.0 > 0.0);
        }
    }

    /// First-price winner selection returns the maximum.
    #[test]
    fn first_price_max(prices in proptest::collection::vec(0.0f64..10.0, 1..12)) {
        let candidates: Vec<(usize, Cpm)> =
            prices.iter().enumerate().map(|(i, &p)| (i, Cpm(p))).collect();
        let (_, won) = first_price_winner(&candidates).unwrap();
        let max = prices.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((won.0 - max).abs() < 1e-12);
    }

    /// Cpm::parse accepts what to_param produces.
    #[test]
    fn cpm_param_roundtrip(c in arb_cpm()) {
        let parsed = Cpm::parse(&c.to_param()).unwrap();
        prop_assert!((parsed.0 - c.0).abs() < 0.005 + 1e-9);
    }
}

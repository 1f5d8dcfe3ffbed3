//! The Demand Partner catalog: 84 partners with calibrated behaviour.
//!
//! Partner names follow the entities reported in the paper's figures
//! (Figures 8, 11, 14, 18); the hostnames live in a synthetic `.example`
//! namespace. Latency medians/spreads, bid rates and price distributions
//! are calibrated so that the detector *measures* the paper's shapes:
//!
//! * Fig. 14 — fastest partners 41–217 ms median, slowest 646–1290 ms;
//! * Fig. 16 — popular partners show smaller latency variability;
//! * Fig. 22/24 — popular partners bid low and consistently; niche
//!   partners bid higher with more variance;
//! * Fig. 18 — a set of "late-prone" partners whose bids mostly miss the
//!   auction (they live on badly configured long-tail sites).

use hb_adtech::{PartnerId, PartnerKind, PartnerProfile};
use hb_core::{PartnerEntry, PartnerList};
use hb_simnet::{Dist, LatencyModel};

/// Declarative spec for one partner (converted into a runtime profile).
#[derive(Clone, Debug)]
pub struct PartnerSpec {
    /// Display name (paper figure labels).
    pub name: &'static str,
    /// Bidder/adapter code.
    pub code: &'static str,
    /// Popularity weight for client-adapter selection.
    pub weight: f64,
    /// Median client-facing RTT in ms.
    pub latency_median_ms: f64,
    /// Log-normal sigma of the RTT.
    pub latency_sigma: f64,
    /// Probability of a Pareto straggler tail.
    pub tail_chance: f64,
    /// Bid probability per slot for a clean-profile user.
    pub bid_rate: f64,
    /// Median CPM bid (before size factors).
    pub price_median: f64,
    /// Log-normal sigma of the CPM.
    pub price_sigma: f64,
    /// Role.
    pub kind: PartnerKind,
    /// Can operate as a server-side provider / ad server.
    pub is_ad_server: bool,
    /// Participates in providers' server-to-server pools.
    pub in_s2s_pool: bool,
    /// Attracts badly configured long-tail publishers (Fig. 18).
    pub late_prone: bool,
}

impl PartnerSpec {
    const fn new(name: &'static str, code: &'static str) -> PartnerSpec {
        PartnerSpec {
            name,
            code,
            weight: 0.01,
            latency_median_ms: 400.0,
            latency_sigma: 0.45,
            tail_chance: 0.045,
            bid_rate: 0.08,
            price_median: 0.08,
            price_sigma: 0.9,
            kind: PartnerKind::Exchange,
            is_ad_server: false,
            in_s2s_pool: false,
            late_prone: false,
        }
    }

    /// Hostname in the simulated namespace.
    pub fn host(&self) -> String {
        format!("{}-adnet.example", self.code.replace('_', "-"))
    }

    /// Convert to the runtime profile driving the partner's endpoint.
    pub fn to_profile(&self, id: u32) -> PartnerProfile {
        PartnerProfile {
            id: PartnerId(id),
            display_name: self.name.to_string(),
            bidder_code: hb_http::HStr::from_static(self.code),
            host: self.host().into(),
            kind: self.kind,
            latency: LatencyModel::log_normal(self.latency_median_ms, self.latency_sigma)
                .with_tail(self.tail_chance, 2_800.0, 1.5)
                .with_floor(8.0),
            s2s_latency: LatencyModel::log_normal((self.latency_median_ms * 0.25).max(15.0), 0.3)
                .with_floor(5.0),
            // Clean-profile crawlers attract roughly half the bid density
            // a real audience would (Table 1: 241k bids / 799k auctions).
            bid_rate: self.bid_rate * 0.5,
            // Bimodal pricing: the bulk of clean-profile bids are tiny
            // (keeps Fig. 23's per-size medians at 0.001-0.1 CPM), but a
            // high-value mode -- brand/retargeting-style demand that bids
            // on anyone -- carries the >20%-above-0.5-CPM mass of Fig. 22.
            price: Dist::Mix(vec![
                (
                    0.72,
                    Dist::LogNormal {
                        // Scaled to land Fig. 23's per-size medians
                        // (300x250 at ~0.03 CPM for baseline users).
                        mu: (self.price_median * 0.55).ln(),
                        sigma: self.price_sigma,
                    },
                ),
                (
                    0.28,
                    Dist::LogNormal {
                        mu: 1.1f64.ln(),
                        sigma: 0.55 + self.price_sigma * 0.25,
                    },
                ),
            ]),
            per_slot_processing_ms: 22.0,
            seats: 4,
            can_serve_s2s: self.is_ad_server,
        }
    }

    /// Convert to the detector's partner-list entry.
    pub fn to_entry(&self) -> PartnerEntry {
        PartnerEntry {
            name: self.name.to_string(),
            code: self.code.to_string(),
            domains: vec![self.host()],
            is_ad_server: self.is_ad_server,
        }
    }
}

macro_rules! spec {
    ($name:literal, $code:literal, { $($field:ident : $value:expr),* $(,)? }) => {{
        #[allow(clippy::needless_update)]
        PartnerSpec {
            $($field: $value,)*
            ..PartnerSpec::new($name, $code)
        }
    }};
}

/// Build the full 84-partner catalog.
pub fn catalog() -> Vec<PartnerSpec> {
    let mut v: Vec<PartnerSpec> = Vec::with_capacity(84);

    // --- The top of the market (Fig. 8), in the paper's order. -----------
    v.push(spec!("DFP", "dfp", {
        weight: 0.02, latency_median_ms: 110.0, latency_sigma: 0.22,
        bid_rate: 0.0, kind: PartnerKind::AdServer, is_ad_server: true,
    }));
    v.push(spec!("AppNexus", "appnexus", {
        weight: 0.200, latency_median_ms: 270.0, latency_sigma: 0.26,
        bid_rate: 0.16, price_median: 0.035, price_sigma: 0.55, in_s2s_pool: true,
    }));
    v.push(spec!("Rubicon", "rubicon", {
        weight: 0.180, latency_median_ms: 255.0, latency_sigma: 0.26,
        bid_rate: 0.17, price_median: 0.035, price_sigma: 0.55, in_s2s_pool: true,
    }));
    v.push(spec!("Criteo", "criteo", {
        weight: 0.150, latency_median_ms: 185.0, latency_sigma: 0.25,
        bid_rate: 0.12, price_median: 0.04, price_sigma: 0.6, is_ad_server: true,
    }));
    v.push(spec!("Index", "ix", {
        weight: 0.120, latency_median_ms: 295.0, latency_sigma: 0.28,
        bid_rate: 0.14, price_median: 0.04, price_sigma: 0.6, in_s2s_pool: true,
    }));
    v.push(spec!("Amazon", "amazon", {
        weight: 0.110, latency_median_ms: 240.0, latency_sigma: 0.25,
        bid_rate: 0.10, price_median: 0.045, price_sigma: 0.6, is_ad_server: true,
    }));
    v.push(spec!("Openx", "openx", {
        weight: 0.100, latency_median_ms: 320.0, latency_sigma: 0.30,
        bid_rate: 0.12, price_median: 0.045, price_sigma: 0.65, in_s2s_pool: true,
    }));
    v.push(spec!("Pubmatic", "pubmatic", {
        weight: 0.080, latency_median_ms: 340.0, latency_sigma: 0.31,
        bid_rate: 0.11, price_median: 0.05, price_sigma: 0.65, in_s2s_pool: true,
    }));
    v.push(spec!("AOL", "aol", {
        weight: 0.070, latency_median_ms: 355.0, latency_sigma: 0.33,
        bid_rate: 0.09, price_median: 0.05, price_sigma: 0.7,
    }));
    v.push(spec!("Sovrn", "sovrn", {
        weight: 0.060, latency_median_ms: 365.0, latency_sigma: 0.34,
        bid_rate: 0.09, price_median: 0.055, price_sigma: 0.7, in_s2s_pool: true,
    }));
    v.push(spec!("Smart", "smartadserver", {
        weight: 0.050, latency_median_ms: 380.0, latency_sigma: 0.35,
        bid_rate: 0.08, price_median: 0.055, price_sigma: 0.7, in_s2s_pool: true,
    }));

    // --- Fig. 11 bid-share codes living mostly in s2s pools. --------------
    v.push(spec!("DistrictM", "districtm", {
        weight: 0.030, latency_median_ms: 420.0, latency_sigma: 0.4,
        bid_rate: 0.12, price_median: 0.06, price_sigma: 0.8, in_s2s_pool: true,
    }));
    v.push(spec!("OftMedia", "oftmedia", {
        weight: 0.028, latency_median_ms: 430.0, latency_sigma: 0.4,
        bid_rate: 0.12, price_median: 0.06, price_sigma: 0.8, in_s2s_pool: true,
    }));
    v.push(spec!("BRealTime", "brealtime", {
        weight: 0.022, latency_median_ms: 440.0, latency_sigma: 0.42,
        bid_rate: 0.11, price_median: 0.07, price_sigma: 0.8, in_s2s_pool: true,
    }));
    v.push(spec!("EMX Digital", "emx_digital", {
        weight: 0.026, latency_median_ms: 410.0, latency_sigma: 0.42,
        bid_rate: 0.13, price_median: 0.07, price_sigma: 0.8, in_s2s_pool: true,
    }));
    v.push(spec!("AdUp Tech", "aduptech", {
        weight: 0.026, latency_median_ms: 400.0, latency_sigma: 0.42,
        bid_rate: 0.12, price_median: 0.07, price_sigma: 0.85,
    }));
    v.push(spec!("LiveWrapped", "livewrapped", {
        weight: 0.024, latency_median_ms: 415.0, latency_sigma: 0.42,
        bid_rate: 0.12, price_median: 0.07, price_sigma: 0.85,
    }));

    // --- Fastest partners (Fig. 14 left, medians 41–217 ms). -------------
    let fast: [(&str, &str, f64); 10] = [
        ("Piximedia", "piximedia", 41.0),
        ("OneTag", "onetag", 62.0),
        ("Justpremium", "justpremium", 80.0),
        ("StickyAdsTV", "stickyadstv", 95.0),
        ("Widespace", "widespace", 115.0),
        ("Polymorph", "polymorph", 135.0),
        ("Yieldlab", "yieldlab", 155.0),
        ("Gjirafa", "gjirafa", 175.0),
        ("Atomx", "atomx", 195.0),
        ("Yieldbot", "yieldbot", 217.0),
    ];
    for (i, (name, code, med)) in fast.into_iter().enumerate() {
        // Yieldlab is notable as a single-partner choice (Fig. 10).
        let weight = if code == "yieldlab" {
            0.020
        } else {
            0.006 + 0.001 * i as f64
        };
        let late_prone = matches!(code, "piximedia" | "justpremium" | "atomx" | "yieldlab");
        v.push(spec!("", "", {
            name: name, code: code, weight: weight,
            latency_median_ms: med, latency_sigma: 0.5,
            bid_rate: 0.08, price_median: 0.12, price_sigma: 1.1,
            late_prone: late_prone,
        }));
    }

    // --- Slowest partners (Fig. 14 right, medians 646–1290 ms). -----------
    let slow: [(&str, &str, f64); 10] = [
        ("Adgeneration", "adgeneration", 646.0),
        ("Gamma SSP", "gammassp", 700.0),
        ("Bridgewell", "bridgewell", 755.0),
        ("Innity", "innity", 810.0),
        ("Aardvark", "aardvark", 860.0),
        ("Yieldone", "yieldone", 915.0),
        ("C1X", "c1x", 970.0),
        ("Fidelity", "fidelity", 1_060.0),
        ("AdOcean", "adocean", 1_160.0),
        ("Trion", "trion", 1_290.0),
    ];
    for (name, code, med) in slow {
        v.push(spec!("", "", {
            name: name, code: code, weight: 0.005,
            latency_median_ms: med, latency_sigma: 0.65, tail_chance: 0.10,
            bid_rate: 0.07, price_median: 0.15, price_sigma: 1.2,
            late_prone: true,
        }));
    }

    // --- The rest of the Fig. 18 late-bid cast. ----------------------------
    let late_cast: [(&str, &str); 15] = [
        ("Lifestreet", "lifestreet"),
        ("AdMatic", "admatic"),
        ("Consumable", "consumable"),
        ("Spotx", "spotx"),
        ("FreeWheel", "freewheel"),
        ("LKQD", "lkqd"),
        ("Tremor", "tremor"),
        ("InSkin", "inskin"),
        ("AdKernelAdn", "adkerneladn"),
        ("Quantum", "quantum"),
        ("SmartyAds", "smartyads"),
        ("Clickonometrics", "clickonometrics"),
        ("Kumma", "kumma"),
        ("E-Planning", "eplanning"),
        ("ImproveDigital", "improvedigital"),
    ];
    for (i, (name, code)) in late_cast.into_iter().enumerate() {
        v.push(spec!("", "", {
            name: name, code: code, weight: 0.004 + 0.0005 * i as f64,
            latency_median_ms: 450.0 + 40.0 * i as f64, latency_sigma: 0.55,
            tail_chance: 0.03,
            bid_rate: 0.08, price_median: 0.14, price_sigma: 1.15,
            late_prone: true,
        }));
    }

    // --- Long tail filling the catalog to 84. ------------------------------
    let tail: [(&str, &str); 32] = [
        ("Taboola", "taboola"),
        ("Outbrain", "outbrain"),
        ("Teads", "teads"),
        ("Unruly", "unruly"),
        ("GumGum", "gumgum"),
        ("Sharethrough", "sharethrough"),
        ("TripleLift", "triplelift"),
        ("Sonobi", "sonobi"),
        ("Conversant", "conversant"),
        ("MediaNet", "medianet"),
        ("33Across", "33across"),
        ("Undertone", "undertone"),
        ("AdYouLike", "adyoulike"),
        ("RhythmOne", "rhythmone"),
        ("Beachfront", "beachfront"),
        ("Kargo", "kargo"),
        ("Nativo", "nativo"),
        ("AdForm", "adform"),
        ("Sortable", "sortable"),
        ("Vidazoo", "vidazoo"),
        ("SpringServe", "springserve"),
        ("Telaria", "telaria"),
        ("OneVideo", "onevideo"),
        ("Vertoz", "vertoz"),
        ("AdColony", "adcolony"),
        ("Fyber", "fyber"),
        ("InMobi", "inmobi"),
        ("PubNative", "pubnative"),
        ("Smaato", "smaato"),
        ("Mintegral", "mintegral"),
        ("AppLovin", "applovin"),
        ("Bidtellect", "bidtellect"),
    ];
    for (i, (name, code)) in tail.into_iter().enumerate() {
        // Latency spread grows with unpopularity (Fig. 16); prices grow
        // and get noisier (Fig. 24).
        let f = i as f64 / 31.0;
        v.push(spec!("", "", {
            name: name, code: code, weight: 0.004 - 0.00005 * i as f64,
            latency_median_ms: 330.0 + 260.0 * f,
            latency_sigma: 0.45 + 0.35 * f,
            tail_chance: 0.015 + 0.02 * f,
            bid_rate: 0.06, price_median: 0.10 + 0.20 * f,
            price_sigma: 0.95 + 0.45 * f,
            late_prone: i % 5 == 4,
        }));
    }

    assert_eq!(v.len(), 84, "the paper reports exactly 84 partners");
    v
}

/// Convert the catalog into runtime profiles (index = id).
pub fn profiles(specs: &[PartnerSpec]) -> Vec<PartnerProfile> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.to_profile(i as u32))
        .collect()
}

/// Build the detector's partner list from the catalog — the reproduction
/// of "we collected and combined several lists used by HB tools".
pub fn partner_list(specs: &[PartnerSpec]) -> PartnerList {
    PartnerList::new(specs.iter().map(PartnerSpec::to_entry))
}

/// Indices of partners eligible for providers' s2s pools.
pub fn s2s_pool(specs: &[PartnerSpec]) -> Vec<usize> {
    specs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.in_s2s_pool)
        .map(|(i, _)| i)
        .collect()
}

/// Indices of server-side-capable providers with their market share among
/// provider selections (DFP dominates; Amazon and Criteo trail).
pub fn providers(specs: &[PartnerSpec]) -> Vec<(usize, f64)> {
    specs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_ad_server)
        .map(|(i, s)| {
            let share = match s.code {
                "dfp" => 0.96,
                "amazon" => 0.025,
                "criteo" => 0.015,
                _ => 0.001,
            };
            (i, share)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_84_partners_with_unique_codes() {
        let specs = catalog();
        assert_eq!(specs.len(), 84);
        let mut codes: Vec<&str> = specs.iter().map(|s| s.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 84, "duplicate bidder code in catalog");
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 84, "duplicate display name in catalog");
    }

    #[test]
    fn top_partners_present_with_ordering() {
        let specs = catalog();
        let w = |code: &str| specs.iter().find(|s| s.code == code).unwrap().weight;
        assert!(w("appnexus") > w("rubicon"));
        assert!(w("rubicon") > w("criteo"));
        assert!(w("criteo") > w("ix"));
        assert!(w("sovrn") > w("districtm"));
    }

    #[test]
    fn fig14_latency_calibration() {
        let specs = catalog();
        let med = |code: &str| {
            specs
                .iter()
                .find(|s| s.code == code)
                .unwrap()
                .latency_median_ms
        };
        assert_eq!(med("piximedia"), 41.0);
        assert_eq!(med("yieldbot"), 217.0);
        assert_eq!(med("adgeneration"), 646.0);
        assert_eq!(med("trion"), 1290.0);
        // Criteo is the fast one among the top partners (paper §5.2).
        assert!(med("criteo") < 200.0);
    }

    #[test]
    fn fig16_variability_grows_with_unpopularity() {
        let specs = catalog();
        let sig = |code: &str| specs.iter().find(|s| s.code == code).unwrap().latency_sigma;
        assert!(sig("appnexus") < sig("piximedia"));
        assert!(sig("appnexus") < sig("trion"));
    }

    #[test]
    fn fig24_price_calibration() {
        let specs = catalog();
        let p = |code: &str| {
            let s = specs.iter().find(|s| s.code == code).unwrap();
            (s.price_median, s.price_sigma)
        };
        let (pm_top, ps_top) = p("appnexus");
        let (pm_tail, ps_tail) = p("trion");
        assert!(pm_top < pm_tail, "popular bid lower");
        assert!(ps_top < ps_tail, "popular bid more consistently");
    }

    #[test]
    fn late_prone_set_covers_fig18_cast() {
        let specs = catalog();
        let late: Vec<&str> = specs
            .iter()
            .filter(|s| s.late_prone)
            .map(|s| s.code)
            .collect();
        assert!(
            late.len() >= 21,
            "paper: 21 partners late in 50% of auctions; got {}",
            late.len()
        );
        for code in ["atomx", "lifestreet", "yieldone", "c1x", "adocean"] {
            assert!(late.contains(&code), "{code} should be late-prone");
        }
    }

    #[test]
    fn profiles_and_list_consistent() {
        let specs = catalog();
        let profiles = profiles(&specs);
        let list = partner_list(&specs);
        assert_eq!(profiles.len(), 84);
        assert_eq!(list.len(), 84);
        for p in &profiles {
            let e = list.match_host(&p.host).unwrap();
            assert_eq!(e.code, p.bidder_code);
        }
        // DFP flagged as ad server in the detector list.
        assert!(list.by_code("dfp").unwrap().is_ad_server);
    }

    #[test]
    fn provider_shares_sum_to_one_ish() {
        let specs = catalog();
        let ps = providers(&specs);
        assert!(ps.len() >= 3);
        let total: f64 = ps.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 0.01, "total {total}");
    }

    #[test]
    fn s2s_pool_contains_fig11_bidders() {
        let specs = catalog();
        let pool = s2s_pool(&specs);
        let codes: Vec<&str> = pool.iter().map(|&i| specs[i].code).collect();
        for code in [
            "rubicon",
            "appnexus",
            "ix",
            "openx",
            "districtm",
            "pubmatic",
            "oftmedia",
            "brealtime",
            "emx_digital",
            "smartadserver",
        ] {
            assert!(codes.contains(&code), "{code} missing from s2s pool");
        }
    }

    #[test]
    fn hosts_are_wellformed() {
        for s in catalog() {
            let h = s.host();
            assert!(h.ends_with("-adnet.example"));
            assert!(!h.contains('_'), "underscores not allowed in hosts: {h}");
        }
    }
}

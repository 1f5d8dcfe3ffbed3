//! The known-Demand-Partner list.
//!
//! The paper's HBDetector carries a curated list of HB Demand Partners
//! ("we collected and combined several lists used by HB tools designed to
//! help publishers fine tune their HB") and checks all WebRequests against
//! it. [`PartnerList`] is that list: domain-suffix matching from hostname
//! to partner identity.

use hb_dom::find_ci;
use std::collections::HashMap;

/// One entry of the partner list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartnerEntry {
    /// Display name as reported in figures (e.g. `AppNexus`).
    pub name: String,
    /// Bidder/adapter code (e.g. `appnexus`).
    pub code: String,
    /// Domains owned by this partner.
    pub domains: Vec<String>,
    /// Whether the partner is known to operate an ad server / server-side
    /// HB product (DFP-like). Used by facet classification.
    pub is_ad_server: bool,
}

/// The detector's curated list of known HB Demand Partners.
#[derive(Clone, Debug, Default)]
pub struct PartnerList {
    entries: Vec<PartnerEntry>,
    by_domain: HashMap<String, u32>,
    by_code: HashMap<String, u32>,
    by_name: HashMap<String, u32>,
}

impl PartnerList {
    /// Build from entries.
    pub fn new(entries: impl IntoIterator<Item = PartnerEntry>) -> PartnerList {
        let mut list = PartnerList::default();
        for e in entries {
            list.push(e);
        }
        list
    }

    /// Append one entry.
    pub fn push(&mut self, entry: PartnerEntry) {
        let idx = self.entries.len() as u32;
        for d in &entry.domains {
            self.by_domain.insert(d.to_ascii_lowercase(), idx);
        }
        // entry() not insert(): keep the first entry on duplicate codes or
        // names, matching the linear-scan semantics this map replaced.
        self.by_code
            .entry(entry.code.to_ascii_lowercase())
            .or_insert(idx);
        self.by_name
            .entry(entry.name.to_ascii_lowercase())
            .or_insert(idx);
        self.entries.push(entry);
    }

    /// Number of partners known.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn entries(&self) -> &[PartnerEntry] {
        &self.entries
    }

    /// The entry at a [`match_host_index`](Self::match_host_index) result.
    pub fn entry(&self, idx: u32) -> &PartnerEntry {
        &self.entries[idx as usize]
    }

    /// Match a hostname against the list (exact or subdomain), returning
    /// the entry index.
    ///
    /// Allocation-free for hosts that are already ASCII-lowercase (which
    /// `hb_http::Url` guarantees for parsed URLs): the suffix walk reuses
    /// slices of `host`. Mixed-case callers pay one lowercase copy.
    pub fn match_host_index(&self, host: &str) -> Option<u32> {
        if host.bytes().any(|b| b.is_ascii_uppercase()) {
            let lowered = host.to_ascii_lowercase();
            return self.match_lowercase(&lowered);
        }
        self.match_lowercase(host)
    }

    fn match_lowercase(&self, host: &str) -> Option<u32> {
        let mut rest = host;
        loop {
            if let Some(&idx) = self.by_domain.get(rest) {
                return Some(idx);
            }
            match rest.split_once('.') {
                Some((_, suffix)) if !suffix.is_empty() => rest = suffix,
                _ => return None,
            }
        }
    }

    /// Match a hostname against the list (exact or subdomain).
    pub fn match_host(&self, host: &str) -> Option<&PartnerEntry> {
        self.match_host_index(host).map(|idx| self.entry(idx))
    }

    /// Find an entry by bidder code (case-insensitive, O(1)).
    pub fn by_code(&self, code: &str) -> Option<&PartnerEntry> {
        match self.by_code.get(code) {
            Some(&idx) => Some(self.entry(idx)),
            None if code.bytes().any(|b| b.is_ascii_uppercase()) => {
                let idx = *self.by_code.get(&code.to_ascii_lowercase())?;
                Some(self.entry(idx))
            }
            None => None,
        }
    }

    /// Find an entry by display name (case-insensitive, O(1)).
    pub fn by_name(&self, name: &str) -> Option<&PartnerEntry> {
        match self.by_name.get(name) {
            Some(&idx) => Some(self.entry(idx)),
            None if name.bytes().any(|b| b.is_ascii_uppercase()) => {
                let idx = *self.by_name.get(&name.to_ascii_lowercase())?;
                Some(self.entry(idx))
            }
            None => None,
        }
    }

    /// A tiny built-in list for tests and the quickstart example. The full
    /// 84-partner catalog lives in `hb-ecosystem`, which exports it as a
    /// `PartnerList` the way real deployments feed tuned lists to the tool.
    pub fn demo() -> PartnerList {
        PartnerList::new([
            PartnerEntry {
                name: "DFP".into(),
                code: "dfp".into(),
                domains: vec!["doubleclick-adnet.example".into()],
                is_ad_server: true,
            },
            PartnerEntry {
                name: "AppNexus".into(),
                code: "appnexus".into(),
                domains: vec!["appnexus-adnet.example".into()],
                is_ad_server: false,
            },
            PartnerEntry {
                name: "Rubicon".into(),
                code: "rubicon".into(),
                domains: vec!["rubicon-adnet.example".into()],
                is_ad_server: false,
            },
        ])
    }
}

/// Known HB library signatures for static analysis (Figure 4 methodology).
///
/// Each signature is matched case-insensitively against script `src`
/// attributes and inline script bodies.
#[derive(Clone, Debug)]
pub struct LibrarySignatures {
    /// Substrings identifying wrapper script files.
    pub src_markers: Vec<String>,
    /// Substrings identifying inline wrapper code.
    pub inline_markers: Vec<String>,
}

impl Default for LibrarySignatures {
    fn default() -> Self {
        LibrarySignatures {
            src_markers: vec![
                "prebid".into(),
                "pubfood".into(),
                "hb-wrapper".into(),
                "headerbid".into(),
            ],
            inline_markers: vec![
                "pbjs.requestbids".into(),
                "pbjs.addadunits".into(),
                "pubfood(".into(),
                "headerbidding.init".into(),
            ],
        }
    }
}

impl LibrarySignatures {
    /// Does a script `src` URL look like an HB wrapper?
    pub fn matches_src(&self, src: &str) -> bool {
        self.src_markers.iter().any(|m| find_ci(src, m).is_some())
    }

    /// Does an inline script body look like HB wrapper code?
    pub fn matches_inline(&self, body: &str) -> bool {
        self.inline_markers
            .iter()
            .any(|m| find_ci(body, m).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_subdomain_matching() {
        let list = PartnerList::demo();
        assert_eq!(
            list.match_host("appnexus-adnet.example").unwrap().name,
            "AppNexus"
        );
        assert_eq!(
            list.match_host("fast.cdn.appnexus-adnet.example")
                .unwrap()
                .code,
            "appnexus"
        );
        assert!(list.match_host("unknown.example").is_none());
        assert!(list.match_host("notappnexus-adnet.example").is_none());
    }

    #[test]
    fn case_insensitive_host_matching() {
        let list = PartnerList::demo();
        assert!(list.match_host("AppNexus-AdNet.Example").is_some());
    }

    #[test]
    fn lookup_by_code_and_name() {
        let list = PartnerList::demo();
        assert_eq!(list.by_code("rubicon").unwrap().name, "Rubicon");
        assert_eq!(list.by_name("dfp").unwrap().code, "dfp");
        assert!(list.by_code("ghost").is_none());
    }

    #[test]
    fn ad_server_flag() {
        let list = PartnerList::demo();
        assert!(list.by_code("dfp").unwrap().is_ad_server);
        assert!(!list.by_code("appnexus").unwrap().is_ad_server);
    }

    #[test]
    fn signatures_match_known_libraries() {
        let sigs = LibrarySignatures::default();
        assert!(sigs.matches_src("https://cdn.example/Prebid.js"));
        assert!(sigs.matches_src("https://x/pubfood.min.js"));
        assert!(!sigs.matches_src("https://x/jquery.js"));
        assert!(sigs.matches_inline("pbjs.requestBids({timeout: 3000})"));
        assert!(!sigs.matches_inline("console.log('hi')"));
    }

    #[test]
    fn empty_list_matches_nothing() {
        let list = PartnerList::new([]);
        assert!(list.is_empty());
        assert!(list.match_host("x.example").is_none());
    }
}

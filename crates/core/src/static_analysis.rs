//! Static HTML analysis — detection method 1.
//!
//! The paper uses static analysis only where dynamic analysis is
//! impossible: historical Wayback Machine snapshots for the six-year
//! adoption study (Figure 4). The method scans page source for known HB
//! library signatures and is documented as prone to both false positives
//! (misnamed libraries, HB code present but never executed) and false
//! negatives (renamed or unknown libraries) — which is why HBDetector's
//! live path uses events + requests instead.

use crate::list::LibrarySignatures;
use hb_dom::any_script;

/// Outcome of statically analyzing one page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticFinding {
    /// Did any script `src` or inline body match a signature?
    pub hb_suspected: bool,
}

/// Scan an HTML document for HB library signatures, stopping at the
/// first script that matches.
pub fn analyze_html(sigs: &LibrarySignatures, html: &str) -> StaticFinding {
    let hb_suspected = any_script(html, |src, inline| {
        (!src.is_empty() && sigs.matches_src(src))
            || (!inline.is_empty() && sigs.matches_inline(inline))
    });
    StaticFinding { hb_suspected }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suspected(html: &str) -> bool {
        analyze_html(&LibrarySignatures::default(), html).hb_suspected
    }

    #[test]
    fn detects_external_wrapper() {
        assert!(suspected(
            "<head><script src=\"https://cdn.example/prebid.js\"></script></head>"
        ));
    }

    #[test]
    fn detects_inline_wrapper_code() {
        assert!(suspected(
            "<head><script>pbjs.requestBids({ timeout: 3000 });</script></head>"
        ));
    }

    #[test]
    fn clean_page_not_flagged() {
        assert!(!suspected(
            "<head><script src=\"https://cdn.example/jquery.js\"></script>\
             <script>console.log('x')</script></head>"
        ));
    }

    #[test]
    fn false_positive_mode_misnamed_library() {
        // A non-HB library shipped under an HB-ish name — the paper's
        // stated false-positive mode for static analysis.
        assert!(
            suspected(
                "<head><script src=\"https://cdn.example/vendor/prebid-polyfill-shim.js\">\
                 </script></head>"
            ),
            "static analysis cannot tell the difference"
        );
    }

    #[test]
    fn false_negative_mode_renamed_library() {
        // A renamed wrapper evades the signature list.
        assert!(
            !suspected("<head><script src=\"https://cdn.example/w.min.js\"></script></head>"),
            "renamed wrappers are missed"
        );
    }

    #[test]
    fn case_insensitive_matching() {
        assert!(suspected(
            "<head><script src=\"https://c/PREBID.JS\"></script></head>"
        ));
    }
}

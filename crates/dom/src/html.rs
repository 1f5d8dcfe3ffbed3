//! Simplified HTML documents and a tiny tag scanner.
//!
//! Publisher pages in the simulation are real text documents containing
//! `<script>` tags and ad-slot `<div>`s. The browser "parses" them with the
//! scanner below, and the detector's *static analysis* path (used for the
//! Wayback adoption study, Figure 4) scans the same text for known HB
//! library signatures — complete with the false-positive/negative modes the
//! paper describes.

/// A `<script>` tag found in a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptTag {
    /// `src` attribute (empty for inline scripts).
    pub src: String,
    /// Inline body (empty for external scripts).
    pub inline: String,
    /// Whether the tag appeared inside `<head>`.
    pub in_head: bool,
}

/// An ad-slot `<div>` found in a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdSlotDiv {
    /// The `id` attribute.
    pub id: String,
}

/// A parsed-enough HTML document.
#[derive(Clone, Debug, Default)]
pub struct HtmlDoc {
    /// Original source text.
    pub source: String,
    /// Script tags in document order.
    pub scripts: Vec<ScriptTag>,
    /// Ad slot divs (divs whose id starts with `ad-slot`).
    pub ad_divs: Vec<AdSlotDiv>,
    /// Document title, if present.
    pub title: Option<String>,
}

impl HtmlDoc {
    /// Scan an HTML string.
    pub fn scan(source: &str) -> HtmlDoc {
        let mut doc = HtmlDoc {
            source: source.to_string(),
            ..HtmlDoc::default()
        };
        let head_end = find_ci(source, "</head>").unwrap_or(source.len());
        let mut pos = 0;
        while let Some(rel) = find_ci(&source[pos..], "<script") {
            let start = pos + rel;
            let tag_end = match source[start..].find('>') {
                Some(e) => start + e + 1,
                None => break,
            };
            let tag = &source[start..tag_end];
            let src = attr_value(tag, "src").unwrap_or_default();
            // Inline body runs until </script>.
            let (inline, next) = match find_ci(&source[tag_end..], "</script>") {
                Some(close) => (
                    source[tag_end..tag_end + close].trim().to_string(),
                    tag_end + close + "</script>".len(),
                ),
                None => (String::new(), tag_end),
            };
            doc.scripts.push(ScriptTag {
                src,
                inline,
                in_head: start < head_end,
            });
            pos = next;
        }
        // Ad slot divs.
        let mut dpos = 0;
        while let Some(rel) = find_ci(&source[dpos..], "<div") {
            let start = dpos + rel;
            let tag_end = match source[start..].find('>') {
                Some(e) => start + e + 1,
                None => break,
            };
            let tag = &source[start..tag_end];
            if let Some(id) = attr_value(tag, "id") {
                if id.starts_with("ad-slot") {
                    doc.ad_divs.push(AdSlotDiv { id });
                }
            }
            dpos = tag_end;
        }
        // Title.
        if let Some(t0) = find_ci(source, "<title>") {
            if let Some(t1) = find_ci(&source[t0..], "</title>") {
                doc.title = Some(source[t0 + 7..t0 + t1].trim().to_string());
            }
        }
        doc
    }

    /// All external script URLs, in order.
    pub fn script_srcs(&self) -> impl Iterator<Item = &str> {
        self.scripts
            .iter()
            .filter(|s| !s.src.is_empty())
            .map(|s| s.src.as_str())
    }

    /// Scripts located in the `<head>` (where HB wrappers live).
    pub fn head_scripts(&self) -> impl Iterator<Item = &ScriptTag> {
        self.scripts.iter().filter(|s| s.in_head)
    }
}

/// Case-insensitive substring search returning the byte offset.
pub fn find_ci(haystack: &str, needle: &str) -> Option<usize> {
    if needle.is_empty() {
        return Some(0);
    }
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    if n.len() > h.len() {
        return None;
    }
    'outer: for i in 0..=(h.len() - n.len()) {
        for j in 0..n.len() {
            if !h[i + j].eq_ignore_ascii_case(&n[j]) {
                continue 'outer;
            }
        }
        return Some(i);
    }
    None
}

/// Extract a double- or single-quoted attribute value from a tag string.
fn attr_value(tag: &str, name: &str) -> Option<String> {
    let pat = format!("{name}=");
    let idx = find_ci(tag, &pat)?;
    let rest = &tag[idx + pat.len()..];
    let mut chars = rest.chars();
    match chars.next() {
        Some(q @ ('"' | '\'')) => {
            let body: String = chars.take_while(|&c| c != q).collect();
            Some(body)
        }
        Some(_) => {
            // Unquoted attribute: read until whitespace or '>'.
            let body: String = rest
                .chars()
                .take_while(|&c| !c.is_whitespace() && c != '>')
                .collect();
            Some(body)
        }
        None => None,
    }
}

/// Builder producing publisher page HTML.
#[derive(Debug, Default)]
pub struct HtmlBuilder {
    title: String,
    head_scripts: Vec<String>,
    head_inline: Vec<String>,
    ad_slot_ids: Vec<String>,
}

impl HtmlBuilder {
    /// Start a page with a title.
    pub fn new(title: impl Into<String>) -> Self {
        HtmlBuilder {
            title: title.into(),
            ..HtmlBuilder::default()
        }
    }

    /// Add an external script to the `<head>`.
    pub fn head_script(mut self, src: impl Into<String>) -> Self {
        self.head_scripts.push(src.into());
        self
    }

    /// Add an inline script to the `<head>`.
    pub fn head_inline(mut self, body: impl Into<String>) -> Self {
        self.head_inline.push(body.into());
        self
    }

    /// Add an ad-slot div with the given id suffix.
    pub fn ad_slot(mut self, id: impl Into<String>) -> Self {
        self.ad_slot_ids.push(id.into());
        self
    }

    /// Render the document (streamed into one buffer; no per-line
    /// temporary strings or `fmt` machinery — pages are re-rendered on
    /// the crawl hot path).
    pub fn build(self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("<!DOCTYPE html>\n<html>\n<head>\n");
        out.push_str("<title>");
        out.push_str(&self.title);
        out.push_str("</title>\n");
        for s in &self.head_scripts {
            out.push_str("<script src=\"");
            out.push_str(s);
            out.push_str("\"></script>\n");
        }
        for body in &self.head_inline {
            out.push_str("<script>");
            out.push_str(body);
            out.push_str("</script>\n");
        }
        out.push_str("</head>\n<body>\n");
        for id in &self.ad_slot_ids {
            out.push_str("<div id=\"");
            out.push_str(id);
            out.push_str("\" class=\"ad-unit\"></div>\n");
        }
        out.push_str("</body>\n</html>\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_scanner_roundtrip() {
        let html = HtmlBuilder::new("news site")
            .head_script("https://cdn.prebid.org/prebid.js")
            .head_inline("var pbjs = pbjs || {};")
            .ad_slot("ad-slot-1")
            .ad_slot("ad-slot-2")
            .build();
        let doc = HtmlDoc::scan(&html);
        assert_eq!(doc.title.as_deref(), Some("news site"));
        assert_eq!(doc.scripts.len(), 2);
        assert_eq!(doc.ad_divs.len(), 2);
        let srcs: Vec<&str> = doc.script_srcs().collect();
        assert_eq!(srcs, vec!["https://cdn.prebid.org/prebid.js"]);
        assert_eq!(doc.head_scripts().count(), 2);
    }

    #[test]
    fn inline_bodies_are_captured() {
        let doc = HtmlDoc::scan("<head><script>pbjs.requestBids();</script></head>");
        assert_eq!(doc.scripts.len(), 1);
        assert_eq!(doc.scripts[0].inline, "pbjs.requestBids();");
        assert!(doc.scripts[0].in_head);
    }

    #[test]
    fn body_scripts_not_marked_head() {
        let doc = HtmlDoc::scan("<head></head><body><script src=\"x.js\"></script></body>");
        assert_eq!(doc.scripts.len(), 1);
        assert!(!doc.scripts[0].in_head);
    }

    #[test]
    fn non_ad_divs_ignored() {
        let doc = HtmlDoc::scan(
            "<div id=\"nav\"></div><div id=\"ad-slot-xyz\"></div><div class=\"x\"></div>",
        );
        assert_eq!(doc.ad_divs.len(), 1);
        assert_eq!(doc.ad_divs[0].id, "ad-slot-xyz");
    }

    #[test]
    fn case_insensitive_scanning() {
        let doc = HtmlDoc::scan("<SCRIPT SRC=\"https://a/B.JS\"></SCRIPT>");
        assert_eq!(doc.scripts.len(), 1);
        assert_eq!(doc.scripts[0].src, "https://a/B.JS");
        assert!(find_ci(&doc.source, "b.js").is_some());
    }

    #[test]
    fn unquoted_attr_and_malformed_tolerated() {
        // The truncated trailing tag (no '>') is dropped rather than panicking.
        let doc = HtmlDoc::scan("<script src=https://a/x.js></script><script src=");
        assert_eq!(doc.scripts.len(), 1);
        assert_eq!(doc.scripts[0].src, "https://a/x.js");
    }

    #[test]
    fn find_ci_edges() {
        assert_eq!(find_ci("abc", ""), Some(0));
        assert_eq!(find_ci("abc", "ABCD"), None);
        assert_eq!(find_ci("xAbCy", "abc"), Some(1));
    }
}

//! A borrowed `<script>` scan over page source.
//!
//! The detector's *static analysis* path (used for the Wayback adoption
//! study, Figure 4) reads each script's `src` and inline body from the
//! archived page text and matches them against known HB library
//! signatures — complete with the false-positive/negative modes the paper
//! describes. Nothing else in the simulation reads page HTML.

/// Walk the `<script>` tags of `source` in document order, passing each
/// tag's `src` attribute (empty when absent) and its trimmed inline body
/// (empty when the tag is never closed) to `f`, both borrowed from
/// `source`. Stops at the first tag for which `f` returns true and
/// reports whether one did. A trailing tag without its `>` ends the walk.
pub fn any_script<'a>(source: &'a str, mut f: impl FnMut(&'a str, &'a str) -> bool) -> bool {
    let mut pos = 0;
    while let Some(rel) = find_ci(&source[pos..], "<script") {
        let start = pos + rel;
        let Some(end) = source[start..].find('>') else {
            break;
        };
        let tag_end = start + end + 1;
        let src = attr_value(&source[start..tag_end], "src=").unwrap_or("");
        // Inline body runs until </script>.
        let (inline, next) = match find_ci(&source[tag_end..], "</script>") {
            Some(close) => (
                source[tag_end..tag_end + close].trim(),
                tag_end + close + "</script>".len(),
            ),
            None => ("", tag_end),
        };
        if f(src, inline) {
            return true;
        }
        pos = next;
    }
    false
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

/// The value after the first `key` (an attribute name with its `=`) in
/// `tag`: double- or single-quoted, or unquoted up to whitespace or `>`.
fn attr_value<'a>(tag: &'a str, key: &str) -> Option<&'a str> {
    let rest = &tag[find_ci(tag, key)? + key.len()..];
    match rest.chars().next()? {
        q @ ('"' | '\'') => {
            let body = &rest[1..];
            Some(&body[..body.find(q).unwrap_or(body.len())])
        }
        _ => {
            let end = rest
                .find(|c: char| c.is_whitespace() || c == '>')
                .unwrap_or(rest.len());
            Some(&rest[..end])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripts(source: &str) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        any_script(source, |src, inline| {
            out.push((src, inline));
            false
        });
        out
    }

    #[test]
    fn inline_bodies_are_captured() {
        assert_eq!(
            scripts("<head><script>pbjs.requestBids();</script></head>"),
            [("", "pbjs.requestBids();")]
        );
        // External and inline scripts, in head and body, in document order.
        let page = "<head><title>news site</title>\
                    <script src=\"https://cdn.prebid.org/prebid.js\"></script>\n\
                    <script> var pbjs = pbjs || {}; </script></head>\
                    <body><div id=\"ad-slot-1\"></div><script src=\"x.js\"></script></body>";
        assert_eq!(
            scripts(page),
            [
                ("https://cdn.prebid.org/prebid.js", ""),
                ("", "var pbjs = pbjs || {};"),
                ("x.js", ""),
            ]
        );
        // The walk stops at the first tag the visitor accepts.
        let mut seen = 0;
        assert!(any_script(page, |_, _| {
            seen += 1;
            true
        }));
        assert_eq!(seen, 1);
    }

    #[test]
    fn case_insensitive_scanning() {
        let html = "<SCRIPT SRC=\"https://a/B.JS\"></SCRIPT>";
        assert_eq!(scripts(html), [("https://a/B.JS", "")]);
        assert!(find_ci(html, "b.js").is_some());
    }

    #[test]
    fn unquoted_attr_and_malformed_tolerated() {
        // The truncated trailing tag (no '>') is dropped rather than panicking.
        assert_eq!(
            scripts("<script src=https://a/x.js></script><script src="),
            [("https://a/x.js", "")]
        );
    }

    #[test]
    fn find_ci_edges() {
        assert_eq!(find_ci("abc", ""), Some(0));
        assert_eq!(find_ci("abc", "ABCD"), None);
        assert_eq!(find_ci("xAbCy", "abc"), Some(1));
    }
}

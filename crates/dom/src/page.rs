//! Page lifecycle and timing.
//!
//! Tracks the navigation timeline the crawler and detector care about:
//! navigation start, header parsed (when HB wrappers begin), DOM content
//! loaded, full load, and ad render milestones. The crawler's "wait for
//! full load + 5 s settle, abort at 60 s" policy reads these marks.

use hb_http::Url;
use hb_simnet::{SimDuration, SimTime};

/// Page lifecycle states, in order.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum PageState {
    /// Navigation issued, HTML not yet received.
    Navigating,
    /// HTML received; header scripts executing.
    HeaderParsing,
    /// DOM constructed; subresources may still be loading.
    DomReady,
    /// Load event fired.
    Loaded,
    /// Page was torn down (timeout or crawler moved on).
    Closed,
}

/// The page and its timing marks.
#[derive(Clone, Debug)]
pub struct Page {
    /// The page URL.
    pub url: Url,
    /// Current lifecycle state.
    pub state: PageState,
    /// Navigation start.
    pub nav_start: SimTime,
    /// When the HTML header had been parsed (HB start point).
    pub header_parsed: Option<SimTime>,
    /// When the DOM was ready.
    pub dom_ready: Option<SimTime>,
    /// When the load event fired.
    pub loaded: Option<SimTime>,
    /// When the first ad finished rendering.
    pub first_ad_rendered: Option<SimTime>,
    /// When the last ad finished rendering.
    pub last_ad_rendered: Option<SimTime>,
    /// Number of ads rendered.
    pub ads_rendered: u32,
    /// Number of ads that failed to render.
    pub ads_failed: u32,
}

impl Page {
    /// Begin navigating to `url` at time `now`.
    pub fn navigate(url: Url, now: SimTime) -> Page {
        Page {
            url,
            state: PageState::Navigating,
            nav_start: now,
            header_parsed: None,
            dom_ready: None,
            loaded: None,
            first_ad_rendered: None,
            last_ad_rendered: None,
            ads_rendered: 0,
            ads_failed: 0,
        }
    }

    /// Mark the header as parsed.
    pub fn mark_header_parsed(&mut self, now: SimTime) {
        debug_assert!(self.state <= PageState::HeaderParsing);
        self.state = PageState::HeaderParsing;
        self.header_parsed.get_or_insert(now);
    }

    /// Mark DOM ready.
    pub fn mark_dom_ready(&mut self, now: SimTime) {
        if self.state < PageState::DomReady {
            self.state = PageState::DomReady;
        }
        self.dom_ready.get_or_insert(now);
    }

    /// Mark the load event.
    pub fn mark_loaded(&mut self, now: SimTime) {
        if self.state < PageState::Loaded {
            self.state = PageState::Loaded;
        }
        self.loaded.get_or_insert(now);
    }

    /// Record an ad render completion.
    pub fn mark_ad_rendered(&mut self, now: SimTime) {
        self.ads_rendered += 1;
        self.first_ad_rendered.get_or_insert(now);
        self.last_ad_rendered = Some(now);
    }

    /// Record an ad render failure.
    pub fn mark_ad_failed(&mut self) {
        self.ads_failed += 1;
    }

    /// Tear the page down.
    pub fn close(&mut self) {
        self.state = PageState::Closed;
    }

    /// Page load time, when the load event fired.
    pub fn page_load_time(&self) -> Option<SimDuration> {
        self.loaded.map(|t| t.saturating_since(self.nav_start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Page {
        Page::navigate(
            Url::parse("https://pub1.example/index.html").unwrap(),
            SimTime::from_millis(100),
        )
    }

    #[test]
    fn lifecycle_progression() {
        let mut p = page();
        assert_eq!(p.state, PageState::Navigating);
        p.mark_header_parsed(SimTime::from_millis(150));
        assert_eq!(p.state, PageState::HeaderParsing);
        p.mark_dom_ready(SimTime::from_millis(300));
        p.mark_loaded(SimTime::from_millis(900));
        assert_eq!(p.state, PageState::Loaded);
        assert_eq!(p.page_load_time(), Some(SimDuration::from_millis(800)));
    }

    #[test]
    fn first_timestamps_are_sticky() {
        let mut p = page();
        p.mark_header_parsed(SimTime::from_millis(150));
        p.mark_header_parsed(SimTime::from_millis(250));
        assert_eq!(p.header_parsed, Some(SimTime::from_millis(150)));
    }

    #[test]
    fn ad_render_tracking() {
        let mut p = page();
        p.mark_ad_rendered(SimTime::from_millis(500));
        p.mark_ad_rendered(SimTime::from_millis(700));
        p.mark_ad_failed();
        assert_eq!(p.ads_rendered, 2);
        assert_eq!(p.ads_failed, 1);
        assert_eq!(p.first_ad_rendered, Some(SimTime::from_millis(500)));
        assert_eq!(p.last_ad_rendered, Some(SimTime::from_millis(700)));
    }

    #[test]
    fn close_is_terminal() {
        let mut p = page();
        p.close();
        assert_eq!(p.state, PageState::Closed);
        assert_eq!(p.page_load_time(), None);
    }
}

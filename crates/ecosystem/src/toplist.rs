//! Synthetic Alexa-style toplists with yearly churn.
//!
//! The paper crawls the head of a toplist purchased in 01/2017 and reports
//! its overlap with the 2017–2019 lists (78.36%, 62.10%, 58.36%, 55.34%).
//! The churn model reproduces that: a yearly snapshot keeps a configured
//! fraction of the base list's domains (re-ranked) and fills the rest with
//! newcomers.

use hb_simnet::Rng;

/// A ranked toplist: `domains[i]` holds the domain at rank `i + 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopList {
    /// Label (e.g. `base-2017`, `2019-02`).
    pub label: String,
    /// Ranked domains.
    pub domains: Vec<String>,
}

impl TopList {
    /// The base list: deterministic domain names `pub{n}.example`.
    pub fn base(n: u32) -> TopList {
        TopList {
            label: "base-2017".to_string(),
            domains: (1..=n).map(site_domain).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Derive a churned snapshot keeping `overlap` of this list's domains
    /// (uniformly chosen), re-ranked, with newcomers filling the gaps.
    pub fn churned(&self, label: &str, overlap: f64, rng: &mut Rng) -> TopList {
        let n = self.domains.len();
        let keep = ((n as f64) * overlap.clamp(0.0, 1.0)).round() as usize;
        let kept_idx = rng.sample_indices(n, keep);
        let mut domains: Vec<String> = kept_idx.iter().map(|&i| self.domains[i].clone()).collect();
        let mut fresh = 0u64;
        while domains.len() < n {
            domains.push(format!("new-{label}-{fresh}.example"));
            fresh += 1;
        }
        rng.shuffle(&mut domains);
        TopList {
            label: label.to_string(),
            domains,
        }
    }

    /// Fraction of this list's domains also present in `other`.
    pub fn overlap_with(&self, other: &TopList) -> f64 {
        if self.domains.is_empty() {
            return 0.0;
        }
        let set: std::collections::HashSet<&str> =
            other.domains.iter().map(String::as_str).collect();
        let shared = self
            .domains
            .iter()
            .filter(|d| set.contains(d.as_str()))
            .count();
        shared as f64 / self.domains.len() as f64
    }

    /// The top `k` entries as a new list.
    pub fn head(&self, k: usize, label: &str) -> TopList {
        TopList {
            label: label.to_string(),
            domains: self.domains.iter().take(k).cloned().collect(),
        }
    }
}

/// The canonical domain of the site at 1-based `rank` in the base list.
pub fn site_domain(rank: u32) -> String {
    format!("pub{rank}.example")
}

/// [`site_domain`] as a compact [`hb_http::HStr`]: rendered through a
/// stack buffer and stored inline (`pub{u32}.example` is at most 21
/// bytes), so deriving a hostname never touches the heap.
pub fn site_domain_hstr(rank: u32) -> hb_http::HStr {
    hb_http::HStr::from_display(format_args!("pub{rank}.example"))
}

/// Per-year overlap targets versus the purchased base list (paper §3.2).
pub const YEARLY_OVERLAPS: [(&str, f64); 4] = [
    ("2017-06", 0.7836),
    ("2018-06", 0.6210),
    ("2019-02", 0.5836),
    ("2019-06", 0.5534),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_list_is_deterministic() {
        let a = TopList::base(100);
        let b = TopList::base(100);
        assert_eq!(a, b);
        assert_eq!(a.domains[0], "pub1.example");
        assert_eq!(a.domains[99], "pub100.example");
    }

    #[test]
    fn churn_hits_overlap_target() {
        let base = TopList::base(5_000);
        let mut rng = Rng::new(3);
        for (label, target) in YEARLY_OVERLAPS {
            let snap = base.churned(label, target, &mut rng);
            assert_eq!(snap.len(), base.len());
            let got = base.overlap_with(&snap);
            assert!(
                (got - target).abs() < 0.005,
                "{label}: got {got}, want {target}"
            );
        }
    }

    #[test]
    fn churned_lists_have_unique_domains() {
        let base = TopList::base(1_000);
        let mut rng = Rng::new(5);
        let snap = base.churned("t", 0.6, &mut rng);
        let mut d = snap.domains.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), snap.len());
    }

    #[test]
    fn overlap_extremes() {
        let base = TopList::base(100);
        let mut rng = Rng::new(7);
        let all = base.churned("all", 1.0, &mut rng);
        assert!((base.overlap_with(&all) - 1.0).abs() < 1e-12);
        let none = base.churned("none", 0.0, &mut rng);
        assert_eq!(base.overlap_with(&none), 0.0);
    }

    #[test]
    fn head_takes_prefix() {
        let base = TopList::base(50);
        let h = base.head(10, "top10");
        assert_eq!(h.len(), 10);
        assert_eq!(h.domains[9], "pub10.example");
    }
}

//! Categorical counting and share computation.
//!
//! Several figures are "share of X per category" bar charts (top partners,
//! partner combinations, ad sizes). [`Counter`] accumulates counts over
//! string keys and reports shares and top-k rankings with deterministic
//! tie-breaking (count desc, then key asc).

use std::collections::BTreeMap;

/// A counting histogram over string categories.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    counts: BTreeMap<String, u64>,
    total: u64,
}

impl Counter {
    /// Empty counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one observation of `key`.
    pub fn add(&mut self, key: impl AsRef<str> + Into<String>) {
        self.add_n(key, 1);
    }

    /// Add `n` observations of `key`. The key is copied into an owned
    /// `String` only the first time it is seen.
    pub fn add_n(&mut self, key: impl AsRef<str> + Into<String>, n: u64) {
        match self.counts.get_mut(key.as_ref()) {
            Some(count) => *count += n,
            None => {
                self.counts.insert(key.into(), n);
            }
        }
        self.total += n;
    }

    /// Count for one key.
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Share of `key` in the total (0 when the counter is empty).
    pub fn share(&self, key: &str) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(key) as f64 / self.total as f64
        }
    }

    /// All `(key, count)` pairs sorted by count desc, key asc.
    pub fn ranked(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self.counts.iter().map(|(k, c)| (k.clone(), *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Top `k` entries.
    pub fn top(&self, k: usize) -> Vec<(String, u64)> {
        let mut v = self.ranked();
        v.truncate(k);
        v
    }

    /// Iterate raw counts (key-ordered).
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, c)| (k.as_str(), *c))
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        for (k, c) in other.counts.iter() {
            *self.counts.entry(k.clone()).or_insert(0) += c;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_shares() {
        let mut c = Counter::new();
        c.add("dfp");
        c.add("dfp");
        c.add("appnexus");
        assert_eq!(c.count("dfp"), 2);
        assert_eq!(c.total(), 3);
        assert!((c.share("dfp") - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.share("missing"), 0.0);
        assert_eq!(c.distinct(), 2);
    }

    #[test]
    fn ranking_is_deterministic() {
        let mut c = Counter::new();
        c.add_n("b", 5);
        c.add_n("a", 5);
        c.add_n("z", 9);
        assert_eq!(
            c.ranked(),
            vec![
                ("z".to_string(), 9),
                ("a".to_string(), 5),
                ("b".to_string(), 5)
            ]
        );
        assert_eq!(c.top(1), vec![("z".to_string(), 9)]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Counter::new();
        a.add("x");
        let mut b = Counter::new();
        b.add("x");
        b.add("y");
        a.merge(&b);
        assert_eq!(a.count("x"), 2);
        assert_eq!(a.count("y"), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn empty_counter_is_sane() {
        let c = Counter::new();
        assert_eq!(c.total(), 0);
        assert_eq!(c.share("k"), 0.0);
        assert!(c.ranked().is_empty());
    }
}

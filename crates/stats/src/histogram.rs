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
        let mut v: Vec<(String, u64)> = self
            .counts
            .iter()
            .map(|(k, c)| (k.clone(), *c))
            .collect();
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

/// A numeric histogram over fixed-width bins (used for "bins of 500 ranks"
/// or "bins of 10 popularity ranks" style figures).
#[derive(Clone, Debug)]
pub struct BinnedHistogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above the last bin edge.
    pub overflow: u64,
}

impl BinnedHistogram {
    /// Create with `n_bins` bins of `width` starting at `lo`.
    pub fn new(lo: f64, width: f64, n_bins: usize) -> Self {
        assert!(width > 0.0 && n_bins > 0);
        BinnedHistogram {
            lo,
            width,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Record a sample.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() || x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The `[lo, hi)` range of bin `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let lo = self.lo + i as f64 * self.width;
        (lo, lo + self.width)
    }

    /// Total in-range samples.
    pub fn total_in_range(&self) -> u64 {
        self.bins.iter().sum()
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

    #[test]
    fn binned_histogram_partitions() {
        let mut h = BinnedHistogram::new(0.0, 10.0, 3);
        for x in [-1.0, 0.0, 5.0, 10.0, 29.9, 30.0, 100.0] {
            h.add(x);
        }
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.bins(), &[2, 1, 1]);
        assert_eq!(h.bin_range(1), (10.0, 20.0));
        assert_eq!(h.total_in_range(), 4);
    }

    #[test]
    fn nan_goes_to_underflow() {
        let mut h = BinnedHistogram::new(0.0, 1.0, 2);
        h.add(f64::NAN);
        assert_eq!(h.underflow, 1);
    }
}

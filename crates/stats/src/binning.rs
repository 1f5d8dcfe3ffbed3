//! Grouping samples by integer keys and key ranges.
//!
//! Several figures group a metric by an integer dimension: latency by
//! number of demand partners (Fig. 15), by number of ad slots (Fig. 20),
//! by Alexa rank in bins of 500 (Fig. 13), by partner popularity rank in
//! bins of 10 (Figs. 16/24). [`GroupedSamples`] collects values per key and
//! summarizes each group; [`SortedGroups`] builds every group at once, at
//! exact capacity and sorted in place, for figures that read the whole
//! grouping.

use crate::quantile::Samples;
use crate::whisker::Whisker;
use std::collections::BTreeMap;
use std::ops::RangeBounds;

/// Samples grouped by a `u64` key.
#[derive(Clone, Debug, Default)]
pub struct GroupedSamples {
    groups: BTreeMap<u64, Vec<f64>>,
}

impl GroupedSamples {
    /// Empty grouping.
    pub fn new() -> Self {
        GroupedSamples::default()
    }

    /// Add a sample under `key`.
    pub fn add(&mut self, key: u64, value: f64) {
        if value.is_finite() {
            self.groups.entry(key).or_default().push(value);
        }
    }

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total number of samples across groups.
    pub fn n_samples(&self) -> usize {
        self.groups.values().map(Vec::len).sum()
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.groups.keys().copied()
    }

    /// Samples for one key.
    pub fn get(&self, key: u64) -> Option<Samples> {
        self.groups
            .get(&key)
            .map(|v| Samples::from_iter(v.iter().copied()))
    }

    /// Whisker summary per key, ascending.
    pub fn whiskers(&self) -> Vec<(u64, Whisker)> {
        self.groups
            .iter()
            .filter_map(|(k, v)| Whisker::from_iter(v.iter().copied()).map(|w| (*k, w)))
            .collect()
    }

    /// Re-bucket keys into ranges of `width` (e.g. rank bins of 500). Keys
    /// are mapped to their bin index `key / width`.
    pub fn rebinned(&self, width: u64) -> GroupedSamples {
        assert!(width > 0);
        let mut out = GroupedSamples::new();
        for (k, vals) in &self.groups {
            for v in vals {
                out.add(k / width, *v);
            }
        }
        out
    }

    /// Share of total samples per key (e.g. "% of websites with k partners").
    pub fn shares(&self) -> Vec<(u64, f64)> {
        let total = self.n_samples() as f64;
        if total == 0.0 {
            return Vec::new();
        }
        self.groups
            .iter()
            .map(|(k, v)| (*k, v.len() as f64 / total))
            .collect()
    }
}

/// Samples grouped by key, each group copied at exact capacity and sorted
/// in place: per key, the samples a [`GroupedSamples`] collects (binned
/// keys give those of [`GroupedSamples::rebinned`]), without its growth
/// slack or the copy each summary of it makes.
#[derive(Clone, Debug)]
pub struct SortedGroups<K> {
    groups: BTreeMap<K, Samples>,
}

impl<K: Ord + Copy> SortedGroups<K> {
    /// Group `(key, value)` pairs; non-finite values are discarded. The
    /// pairs are walked twice (count, then fill), so the iterator must be
    /// cheap to clone.
    pub fn new<I>(pairs: I) -> SortedGroups<K>
    where
        I: IntoIterator<Item = (K, f64)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter().filter(|(_, v)| v.is_finite());
        let mut counts: BTreeMap<K, usize> = BTreeMap::new();
        for (key, _) in pairs.clone() {
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut groups: BTreeMap<K, Vec<f64>> = counts
            .into_iter()
            .map(|(key, n)| (key, Vec::with_capacity(n)))
            .collect();
        for (key, v) in pairs {
            groups.get_mut(&key).expect("key counted").push(v);
        }
        SortedGroups {
            groups: groups
                .into_iter()
                .map(|(key, values)| (key, Samples::from_vec(values)))
                .collect(),
        }
    }

    /// Groups in ascending key order; none is empty.
    pub fn iter(&self) -> impl Iterator<Item = (K, &Samples)> + '_ {
        self.groups.iter().map(|(key, s)| (*key, s))
    }

    /// Samples for one key.
    pub fn get(&self, key: K) -> Option<&Samples> {
        self.groups.get(&key)
    }

    /// Whisker summary per key, ascending.
    pub fn whiskers(&self) -> Vec<(K, Whisker)> {
        self.iter()
            .filter_map(|(key, s)| Whisker::from_samples(s).map(|w| (key, w)))
            .collect()
    }

    /// The samples of every key in `range`, pooled into one.
    pub fn pooled(&self, range: impl RangeBounds<K>) -> Samples {
        let runs: Vec<&[f64]> = self.groups.range(range).map(|(_, s)| s.sorted()).collect();
        Samples::from_vec(runs.concat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_and_summaries() {
        let mut g = GroupedSamples::new();
        for v in [1.0, 2.0, 3.0] {
            g.add(1, v);
        }
        g.add(2, 10.0);
        assert_eq!(g.n_groups(), 2);
        assert_eq!(g.n_samples(), 4);
        assert_eq!(g.get(1).unwrap().median(), Some(2.0));
        assert!(g.get(3).is_none());
        let w = g.whiskers();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, 1);
        assert_eq!(w[1].1.p50, 10.0);
    }

    #[test]
    fn rebinning_rank_buckets() {
        let mut g = GroupedSamples::new();
        g.add(0, 1.0); // bin 0
        g.add(499, 2.0); // bin 0
        g.add(500, 3.0); // bin 1
        g.add(1200, 4.0); // bin 2
        let b = g.rebinned(500);
        assert_eq!(b.n_groups(), 3);
        assert_eq!(b.get(0).unwrap().len(), 2);
        assert_eq!(b.get(1).unwrap().len(), 1);
        assert_eq!(b.get(2).unwrap().len(), 1);
    }

    #[test]
    fn sorted_groups_match_grouped_samples() {
        let pairs = [
            (0, 3.0),
            (0, 1.0),
            (1, f64::NAN),
            (2, 4.0),
            (1, 2.0),
            (0, 0.5),
        ];
        let g = SortedGroups::new(pairs);
        let groups: Vec<(u64, Vec<f64>)> =
            g.iter().map(|(k, s)| (k, s.sorted().to_vec())).collect();
        assert_eq!(
            groups,
            vec![(0, vec![0.5, 1.0, 3.0]), (1, vec![2.0]), (2, vec![4.0])]
        );
        assert!(g.get(5).is_none());
        assert_eq!(g.pooled(1..).sorted(), &[2.0, 4.0]);
        assert_eq!(g.pooled(..=1).len(), 4);
        assert_eq!(g.whiskers()[0].1.p50, 1.0);
        let empty: SortedGroups<u64> = SortedGroups::new(std::iter::empty());
        assert!(empty.whiskers().is_empty());
    }

    #[test]
    fn shares_sum_to_one() {
        let mut g = GroupedSamples::new();
        for _ in 0..3 {
            g.add(1, 0.0);
        }
        g.add(2, 0.0);
        let shares = g.shares();
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(shares[0], (1, 0.75));
    }

    #[test]
    fn non_finite_ignored() {
        let mut g = GroupedSamples::new();
        g.add(1, f64::NAN);
        g.add(1, f64::INFINITY);
        assert_eq!(g.n_samples(), 0);
        assert!(g.shares().is_empty());
    }
}

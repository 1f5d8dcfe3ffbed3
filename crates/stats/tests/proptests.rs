//! Property tests for statistics invariants.

use hb_stats::{GroupedSamples, LogHistogram, Samples, SortedGroups, Whisker};
use proptest::prelude::*;

/// Values that stress sorting: non-finite values the samples must drop,
/// signed zeros that compare equal with different bits, and duplicates.
fn awkward_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        -1e6f64..1e6,
        (0u8..8).prop_map(f64::from),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
    .boxed()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// The ECDF (`frac_at_or_below`) is non-decreasing over the sorted
    /// values and is 1 at the max.
    #[test]
    fn ecdf_monotone(values in proptest::collection::vec(-1e9f64..1e9, 0..300)) {
        let s = Samples::from_iter(values);
        let cdf: Vec<f64> = s.sorted().iter().map(|&x| s.frac_at_or_below(x)).collect();
        prop_assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        if let Some(max) = s.max() {
            prop_assert_eq!(s.frac_at_or_below(max), 1.0);
        }
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Samples::from_iter(values);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let mut last = f64::NEG_INFINITY;
        for q in qs {
            let v = s.quantile(q).unwrap();
            prop_assert!(v >= last);
            prop_assert!(v >= s.min().unwrap() - 1e-9);
            prop_assert!(v <= s.max().unwrap() + 1e-9);
            last = v;
        }
    }

    /// Whisker percentiles are always ordered.
    #[test]
    fn whisker_ordered(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let w = Whisker::from_values(values).unwrap();
        prop_assert!(w.is_ordered());
        prop_assert!(w.box_spread() >= 0.0);
        prop_assert!(w.whisker_spread() >= 0.0);
    }

    /// frac_above + frac_at_or_below = 1.
    #[test]
    fn fracs_partition(values in proptest::collection::vec(-100f64..100.0, 1..100), t in -100f64..100.0) {
        let s = Samples::from_iter(values);
        let sum = s.frac_above(t) + s.frac_at_or_below(t);
        prop_assert!((sum - 1.0).abs() < 1e-12);
    }

    /// `from_vec` keeps exactly the samples `from_iter` keeps, bit for bit,
    /// and both sort into the order of a stable `partial_cmp` sort.
    #[test]
    fn from_vec_matches_from_iter(values in proptest::collection::vec(awkward_f64(), 0..300)) {
        let by_vec = Samples::from_vec(values.clone());
        let by_iter = Samples::from_iter(values.iter().copied());
        prop_assert_eq!(bits(by_vec.sorted()), bits(by_iter.sorted()));
        let mut stable: Vec<f64> = values.into_iter().filter(|x| x.is_finite()).collect();
        stable.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(bits(by_vec.sorted()), bits(&stable));
    }

    /// Binning keys straight into sorted groups (Fig. 13's rank bins)
    /// gives, per bin, the samples of `GroupedSamples::rebinned`, and
    /// pooling bins gives the samples of the pooled input. Compared as
    /// values: `rebinned` walks the input by key, so `-0.0` and `0.0` may
    /// trade places within a bin.
    #[test]
    fn sorted_groups_match_rebinned(
        pairs in proptest::collection::vec((0u64..3_000, awkward_f64()), 0..400),
        width in 1u64..700,
        split in 0u64..6,
    ) {
        let binned = SortedGroups::new(pairs.iter().map(|&(key, v)| (key / width, v)));
        let mut grouped = GroupedSamples::new();
        for &(key, v) in &pairs {
            grouped.add(key, v);
        }
        let rebinned = grouped.rebinned(width);
        let keys: Vec<u64> = binned.iter().map(|(bin, _)| bin).collect();
        prop_assert_eq!(&keys, &rebinned.keys().collect::<Vec<_>>());
        for (bin, samples) in binned.iter() {
            let group = rebinned.get(bin).unwrap();
            prop_assert_eq!(samples.sorted(), group.sorted());
        }
        let pooled = Samples::from_iter(
            pairs.iter().filter(|(key, _)| key / width >= split).map(|&(_, v)| v),
        );
        let binned_pooled = binned.pooled(split..);
        prop_assert_eq!(binned_pooled.sorted(), pooled.sorted());
        prop_assert_eq!(binned.whiskers(), rebinned.whiskers());
    }

    /// CSV escape/parse round-trips arbitrary fields.
    #[test]
    fn csv_roundtrip(fields in proptest::collection::vec("[ -~]{0,16}", 1..6)) {
        let strings: Vec<String> = fields;
        let line: String = strings
            .iter()
            .map(|f| hb_stats::csv_escape(f))
            .collect::<Vec<_>>()
            .join(",") + "\n";
        let rows = hb_stats::parse_csv(&line);
        prop_assert_eq!(rows.len(), 1);
        prop_assert_eq!(&rows[0], &strings);
    }
}

/// A naive `LogHistogram`: all 1,920 buckets (32 exact values, then 60
/// octaves of 32 equal-width sub-buckets) in a fixed array, each bucket
/// found by searching a table of lower bounds.
struct FixedHistogram {
    lower: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    max: u64,
    sum: u128,
}

impl FixedHistogram {
    fn new() -> FixedHistogram {
        let lower: Vec<u64> = (0..1_920u64)
            .map(|i| {
                if i < 32 {
                    i
                } else {
                    (32 + i % 32) << (i / 32 - 1)
                }
            })
            .collect();
        FixedHistogram {
            counts: vec![0; lower.len()],
            lower,
            count: 0,
            max: 0,
            sum: 0,
        }
    }

    fn record(&mut self, v: u64) {
        let i = self.lower.partition_point(|&lo| lo <= v) - 1;
        self.counts[i] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.sum += u128::from(v);
    }

    fn upper(&self, i: usize) -> u64 {
        self.lower.get(i + 1).map_or(u64::MAX, |next| next - 1)
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.upper(i).min(self.max);
            }
        }
        unreachable!("the counts sum to count")
    }
}

/// Values that stress the bucket layout: 0, `u64::MAX`, every value
/// within 1 of an octave edge, and values across the whole domain.
fn edgy_u64() -> BoxedStrategy<u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        (0u32..64, 0u64..3).prop_map(|(k, d)| (1u64 << k).wrapping_add(d).wrapping_sub(1)),
        0u64..1_000_000,
        any::<u64>(),
    ]
    .boxed()
}

/// Split `values` across `parts` histograms (value `i` goes to part
/// `tags[i] % parts`), merge them forward and backward, and hold both
/// merges to each other, to one histogram of the whole stream and to the
/// naive fixed-array reference.
fn check_against_fixed_array(values: &[u64], tags: &[usize], parts: usize) -> TestCaseResult {
    let mut shards = vec![LogHistogram::new(); parts];
    let mut whole = LogHistogram::new();
    let mut naive = FixedHistogram::new();
    for (i, &v) in values.iter().enumerate() {
        shards[tags.get(i).copied().unwrap_or(i) % parts].record(v);
        whole.record(v);
        naive.record(v);
    }
    let mut forward = LogHistogram::new();
    for sh in &shards {
        forward.merge(sh);
    }
    let mut backward = LogHistogram::new();
    for sh in shards.iter().rev() {
        backward.merge(sh);
    }
    prop_assert_eq!(&forward, &backward);
    prop_assert_eq!(&forward, &whole);
    prop_assert_eq!(forward.count(), naive.count);
    prop_assert_eq!(forward.max(), naive.max);
    prop_assert_eq!(forward.mean().to_bits(), naive.mean().to_bits());
    for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
        prop_assert_eq!(
            forward.value_at_quantile(q),
            naive.value_at_quantile(q),
            "quantile {} of {:?}",
            q,
            values
        );
    }
    Ok(())
}

proptest! {
    /// A `LogHistogram` that grows its buckets on demand answers exactly
    /// like a fixed 1,920-bucket array, however its stream is split
    /// across workers and in whichever order the parts merge.
    #[test]
    fn log_histogram_matches_a_fixed_array(
        values in proptest::collection::vec(edgy_u64(), 0..200),
        tags in proptest::collection::vec(0usize..4, 0..200),
        parts in 1usize..5,
    ) {
        check_against_fixed_array(&values, &tags, parts)?;
    }
}

#[test]
fn log_histogram_matches_a_fixed_array_on_every_octave_edge() {
    let mut values = vec![0, u64::MAX];
    for k in 0..64 {
        let edge = 1u64 << k;
        values.extend([edge - 1, edge, edge.saturating_add(1)]);
    }
    for parts in 1..=4 {
        check_against_fixed_array(&values, &[], parts).unwrap();
        let reversed: Vec<u64> = values.iter().rev().copied().collect();
        check_against_fixed_array(&reversed, &[], parts).unwrap();
    }
}

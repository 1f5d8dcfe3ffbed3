//! Log-bucketed latency histogram for the serving plane.
//!
//! The crawl figures aggregate latencies by collecting raw samples and
//! sorting ([`Samples`](crate::Samples)); the serving plane cannot — a
//! load run records millions of auction latencies across worker threads
//! and needs p50/p99/p999 without keeping any of them. [`LogHistogram`]
//! buckets `u64` values (the serving plane uses microseconds) into
//! logarithmic buckets with [`SUB_BUCKETS`] linear sub-buckets per
//! octave, bounding relative quantile error to `1/SUB_BUCKETS` while the
//! whole histogram stays a fixed flat array:
//!
//! * **allocation-free record path** — [`LogHistogram::record`] is pure
//!   integer arithmetic on a preallocated array (the only allocation is
//!   the array itself, at construction);
//! * **deterministic merge** — [`LogHistogram::merge`] adds counts
//!   element-wise, so `merge(a, b)` and `merge(b, a)` are byte-identical
//!   no matter how many workers' histograms fold in or in what order
//!   (pinned by tests); quantiles read from the merged histogram are
//!   therefore byte-stable across worker counts;
//! * **deterministic quantiles** — [`LogHistogram::value_at_quantile`]
//!   returns the upper bound of the bucket holding the target rank
//!   (capped at the true maximum), a pure function of the counts.

/// Linear sub-buckets per octave (32 ⇒ ≤ 3.2% relative error).
pub const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Bucket count: one linear range `[0, SUB_BUCKETS)` plus
/// `64 - SUB_BITS` octaves of `SUB_BUCKETS` sub-buckets each.
const N_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// A fixed-size log-bucketed histogram over `u64` values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Box<[u64]>,
    count: u64,
    max: u64,
    sum: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Bucket index of `v`: values below [`SUB_BUCKETS`] map 1:1; above, the
/// top [`SUB_BITS`] bits after the leading one select the sub-bucket
/// within the value's octave.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let exp = msb - SUB_BITS;
        let mantissa = (v >> exp) - SUB_BUCKETS;
        ((exp as usize) + 1) * SUB_BUCKETS as usize + mantissa as usize
    }
}

/// Inclusive upper bound of bucket `i` (the value every member of the
/// bucket is `<=`; quantiles report this bound).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        i
    } else {
        let exp = (i >> SUB_BITS) - 1;
        let mantissa = i & (SUB_BUCKETS - 1);
        let lo = (mantissa + SUB_BUCKETS) << exp;
        lo + ((1u64 << exp) - 1)
    }
}

impl LogHistogram {
    /// Empty histogram (allocates the bucket array once).
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0u64; N_BUCKETS].into_boxed_slice(),
            count: 0,
            max: 0,
            sum: 0,
        }
    }

    /// Record one value. No allocation; O(1).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v > self.max {
            self.max = v;
        }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold `other` into `self`. Element-wise count addition: merging is
    /// commutative and associative, so any fold order over any worker
    /// partition yields byte-identical state.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the `ceil(q * count)`-th smallest value, capped at the
    /// recorded maximum. Returns 0 for an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Shorthand: p50 / p99 / p999 in one call.
    pub fn p50_p99_p999(&self) -> (u64, u64, u64) {
        (
            self.value_at_quantile(0.50),
            self.value_at_quantile(0.99),
            self.value_at_quantile(0.999),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS);
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), SUB_BUCKETS - 1);
        assert_eq!(h.max(), SUB_BUCKETS - 1);
    }

    #[test]
    fn buckets_partition_the_domain() {
        // Bucket indices are monotone and upper bounds honest for a sweep
        // of magnitudes.
        let mut prev = 0usize;
        for shift in 0..63 {
            let v = 1u64 << shift;
            let b = bucket_of(v);
            assert!(b >= prev, "monotone at {v}");
            assert!(bucket_upper(b) >= v, "upper bound covers {v}");
            prev = b;
        }
        assert!(bucket_of(u64::MAX) < N_BUCKETS);
        // Every bucket's upper bound maps back into the same bucket.
        for i in 0..N_BUCKETS {
            assert_eq!(bucket_of(bucket_upper(i)), i, "bucket {i} roundtrip");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        let v = 123_456u64;
        h.record(v);
        let got = h.value_at_quantile(0.5);
        let err = (got as f64 - v as f64).abs() / v as f64;
        assert!(err <= 1.0 / SUB_BUCKETS as f64, "err {err}");
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p99, p999) = h.p50_p99_p999();
        assert!((470..=530).contains(&p50), "p50 {p50}");
        assert!((960..=1000).contains(&p99), "p99 {p99}");
        assert!((990..=1000).contains(&p999), "p999 {p999}");
        // Quantiles never exceed the recorded max.
        assert!(p999 <= h.max());
    }

    #[test]
    fn merge_is_commutative_bytewise() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..500u64 {
            a.record(i * 17 % 10_000);
            b.record(i * 101 % 1_000_000);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Full structural equality: counts array, count, max, sum.
        assert_eq!(ab, ba, "merge(a,b) == merge(b,a)");
        assert_eq!(ab.count(), 1000);
    }

    #[test]
    fn merge_is_associative_across_worker_partitions() {
        // The same sample stream split across 1, 2 and 4 "workers" folds
        // to identical histograms.
        let samples: Vec<u64> = (0..999u64).map(|i| (i * 7919) % 500_000).collect();
        let fold = |parts: usize| -> LogHistogram {
            let mut shards = vec![LogHistogram::new(); parts];
            for (i, &v) in samples.iter().enumerate() {
                shards[i % parts].record(v);
            }
            let mut out = LogHistogram::new();
            for sh in &shards {
                out.merge(sh);
            }
            out
        };
        let one = fold(1);
        assert_eq!(one, fold(2));
        assert_eq!(one, fold(4));
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}

//! Deterministic pseudo-random number generation.
//!
//! The simulator carries its own small RNG (xoshiro256++ seeded through
//! SplitMix64) instead of depending on an external crate so that results are
//! bit-for-bit reproducible across library versions and platforms. The crawl
//! campaign derives an independent stream per (site, day) with
//! [`Rng::derive`], which makes parallel crawling order-independent.

/// SplitMix64 step; used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ pseudo-random generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Immutable identity of this stream; derivation keys off this, never
    /// off the mutable state, so `derive` is position-independent.
    stream_id: u64,
    /// Cached second normal variate from the last Box-Muller draw.
    spare_gauss: Option<f64>,
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            stream_id: seed,
            spare_gauss: None,
        }
    }

    /// Derive an independent child stream keyed by `label`.
    ///
    /// Deriving consumes no state from `self` and does not depend on how
    /// many values the parent has already produced; the same
    /// `(seed, labels...)` path always yields the same stream, which is
    /// what makes the parallel crawler deterministic.
    pub fn derive(&self, label: u64) -> Rng {
        let mut sm = self.stream_id ^ label.wrapping_mul(0x9E3779B97F4A7C15);
        let child_id = splitmix64(&mut sm);
        let mut out = Rng::new(child_id);
        out.stream_id = child_id;
        out
    }

    /// Derive an independent child stream keyed by a string label.
    pub fn derive_str(&self, label: &str) -> Rng {
        self.derive(fnv1a(label.as_bytes()))
    }

    /// Next raw 64-bit value (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Returns `lo` when the range is empty.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        // Lemire's nearly-divisionless method with rejection for exactness.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "Rng::range_inclusive: lo > hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `usize` index in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Standard normal variate (Box-Muller, with spare caching).
    pub fn gauss(&mut self) -> f64 {
        if let Some(z) = self.spare_gauss.take() {
            return z;
        }
        // Rejection-free polar-less Box-Muller; u1 in (0,1].
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_gauss = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gauss()
    }

    /// Log-normal variate with the given parameters of the underlying normal.
    #[inline]
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.gauss()).exp()
    }

    /// Exponential variate with the given rate `lambda` (> 0).
    #[inline]
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        -(1.0 - self.f64()).ln() / lambda
    }

    /// Pareto variate with scale `x_min` (> 0) and shape `alpha` (> 0).
    #[inline]
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0);
        x_min / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// Sample an index from a non-negative weight slice.
    ///
    /// Returns `None` when the slice is empty or the total weight is zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if !(w.is_finite() && w > 0.0) {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point leftovers: return the last positive weight.
        weights.iter().rposition(|w| w.is_finite() && *w > 0.0)
    }

    /// Zipf-distributed rank in `[1, n]` with exponent `s` (> 0), via
    /// inversion over precomputed cumulative weights would be O(n); this
    /// uses rejection-inversion (Hörmann) which is O(1) per sample.
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        assert!(n >= 1);
        if n == 1 {
            return 1;
        }
        // Straightforward inversion on the harmonic CDF approximation.
        // H(x) ~ (x^(1-s) - 1)/(1-s) for s != 1, ln(x) for s == 1.
        let h = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-9 {
                x.ln()
            } else {
                (x.powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        let h_inv = |y: f64| -> f64 {
            if (s - 1.0).abs() < 1e-9 {
                y.exp()
            } else {
                (1.0 + y * (1.0 - s)).powf(1.0 / (1.0 - s))
            }
        };
        let hn = h(n as f64 + 0.5);
        let h1 = h(0.5);
        loop {
            let u = self.f64();
            let x = h_inv(h1 + u * (hn - h1));
            let k = x.round().clamp(1.0, n as f64);
            // The envelope gives bin [k-0.5, k+0.5] mass equal to the integral
            // of x^-s over it; the true (unnormalized) mass is k^-s. Since
            // x^-s is convex the integral dominates the midpoint value, so
            // accepting with probability k^-s / integral is a valid thinning.
            let bin_mass = (h(k + 0.5) - h(k - 0.5)).max(1e-300);
            if self.f64() * bin_mass <= k.powf(-s) {
                return k as u64;
            }
        }
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k clamped to n), in
    /// selection order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        // Partial Fisher-Yates over an index vector.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// FNV-1a hash of a byte string; used for stable string-keyed derivation.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_is_stateless_and_stable() {
        let root = Rng::new(7);
        let mut c1 = root.derive(123);
        let mut c2 = root.derive(123);
        let mut c3 = root.derive(124);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut r = Rng::new(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn gauss_moments_plausible() {
        let mut r = Rng::new(11);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let z = r.gauss();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn log_normal_median_is_exp_mu() {
        let mut r = Rng::new(13);
        let mut v: Vec<f64> = (0..20_001).map(|_| r.log_normal(1.0, 0.5)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        let expect = 1.0_f64.exp();
        assert!(
            (median - expect).abs() / expect < 0.05,
            "median {median} vs {expect}"
        );
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(17);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn pareto_min_respected() {
        let mut r = Rng::new(19);
        for _ in 0..5_000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = Rng::new(23);
        let w = [0.0, 10.0, 0.0, 1.0];
        let mut counts = [0u32; 4];
        for _ in 0..11_000 {
            counts[r.weighted_index(&w).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        assert!(counts[1] > counts[3] * 5);
    }

    #[test]
    fn weighted_index_empty_or_zero() {
        let mut r = Rng::new(29);
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(r.weighted_index(&[0.0, f64::NAN, 3.0]), Some(2));
    }

    #[test]
    fn zipf_skews_to_low_ranks() {
        let mut r = Rng::new(31);
        let n = 20_000;
        let mut ones = 0;
        for _ in 0..n {
            let k = r.zipf(100, 1.2);
            assert!((1..=100).contains(&k));
            if k == 1 {
                ones += 1;
            }
        }
        // Rank 1 should dominate (>20% of mass for s=1.2, n=100).
        assert!(ones as f64 / n as f64 > 0.15, "ones {ones}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(37);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = Rng::new(41);
        for _ in 0..100 {
            let s = r.sample_indices(20, 8);
            assert_eq!(s.len(), 8);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 8);
            assert!(s.iter().all(|&i| i < 20));
        }
        assert_eq!(r.sample_indices(3, 10).len(), 3);
        assert!(r.sample_indices(0, 5).is_empty());
    }

    #[test]
    fn fnv1a_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}

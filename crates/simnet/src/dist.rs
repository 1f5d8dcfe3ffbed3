//! Composable scalar distributions.
//!
//! Ecosystem generation and the latency models are described declaratively
//! with [`Dist`] values (constant, uniform, log-normal, Pareto, mixtures,
//! scaled/clamped transforms). A `Dist` is sampled with an explicit
//! [`Rng`] so every draw stays deterministic.

use crate::rng::Rng;

/// A scalar probability distribution, sampled in `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Dist {
    /// Always `value`.
    Const(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Normal with `mean` and `std_dev`.
    Normal {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Log-normal: `exp(N(mu, sigma))`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Exponential with rate `lambda`.
    Exponential {
        /// Rate parameter (events per unit).
        lambda: f64,
    },
    /// Pareto with scale `x_min` and shape `alpha`.
    Pareto {
        /// Scale (minimum value).
        x_min: f64,
        /// Shape (tail exponent).
        alpha: f64,
    },
    /// `inner` scaled by a constant `factor`.
    Scaled {
        /// Constant multiplying each sample.
        factor: f64,
        /// The underlying distribution.
        inner: Box<Dist>,
    },
    /// `inner` clamped to `[lo, hi]`.
    Clamped {
        /// Lower clamp bound.
        lo: f64,
        /// Upper clamp bound.
        hi: f64,
        /// The underlying distribution.
        inner: Box<Dist>,
    },
    /// Mixture of weighted components.
    Mix(Vec<(f64, Dist)>),
}

impl Dist {
    /// Convenience constructor: a log-normal parameterized by its **median**
    /// (in the same unit as the samples) and the `sigma` of the underlying
    /// normal. `exp(mu)` is the median of a log-normal, which makes latency
    /// calibration against the paper's reported medians direct.
    pub fn log_normal_median(median: f64, sigma: f64) -> Dist {
        assert!(median > 0.0, "log-normal median must be positive");
        Dist::LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// Scale this distribution by `factor`.
    pub fn scaled(self, factor: f64) -> Dist {
        Dist::Scaled {
            factor,
            inner: Box::new(self),
        }
    }

    /// Clamp samples to `[lo, hi]`.
    pub fn clamped(self, lo: f64, hi: f64) -> Dist {
        assert!(lo <= hi, "invalid clamp range");
        Dist::Clamped {
            lo,
            hi,
            inner: Box::new(self),
        }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        match self {
            Dist::Const(v) => *v,
            Dist::Uniform { lo, hi } => rng.f64_range(*lo, *hi),
            Dist::Normal { mean, std_dev } => rng.normal(*mean, *std_dev),
            Dist::LogNormal { mu, sigma } => rng.log_normal(*mu, *sigma),
            Dist::Exponential { lambda } => rng.exponential(*lambda),
            Dist::Pareto { x_min, alpha } => rng.pareto(*x_min, *alpha),
            Dist::Scaled { factor, inner } => factor * inner.sample(rng),
            Dist::Clamped { lo, hi, inner } => inner.sample(rng).clamp(*lo, *hi),
            Dist::Mix(parts) => {
                let weights: Vec<f64> = parts.iter().map(|(w, _)| *w).collect();
                match rng.weighted_index(&weights) {
                    Some(i) => parts[i].1.sample(rng),
                    None => 0.0,
                }
            }
        }
    }

    /// Draw a sample and interpret it as milliseconds, returning a
    /// non-negative duration.
    pub fn sample_ms(&self, rng: &mut Rng) -> crate::time::SimDuration {
        crate::time::SimDuration::from_millis_f64(self.sample(rng).max(0.0))
    }

    /// Analytic mean where tractable; `None` for mixtures of unknown parts.
    pub fn mean(&self) -> Option<f64> {
        match self {
            Dist::Const(v) => Some(*v),
            Dist::Uniform { lo, hi } => Some((lo + hi) / 2.0),
            Dist::Normal { mean, .. } => Some(*mean),
            Dist::LogNormal { mu, sigma } => Some((mu + sigma * sigma / 2.0).exp()),
            Dist::Exponential { lambda } => Some(1.0 / lambda),
            Dist::Pareto { x_min, alpha } => {
                if *alpha > 1.0 {
                    Some(alpha * x_min / (alpha - 1.0))
                } else {
                    None
                }
            }
            Dist::Scaled { factor, inner } => inner.mean().map(|m| m * factor),
            Dist::Clamped { .. } => None,
            Dist::Mix(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| *w).sum();
                if total <= 0.0 {
                    return None;
                }
                let mut acc = 0.0;
                for (w, d) in parts {
                    acc += w / total * d.mean()?;
                }
                Some(acc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_median(d: &Dist, seed: u64, n: usize) -> f64 {
        let mut rng = Rng::new(seed);
        let mut v: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    }

    #[test]
    fn const_is_constant() {
        let mut rng = Rng::new(1);
        let d = Dist::Const(7.5);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 7.5);
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = Rng::new(2);
        let d = Dist::Uniform { lo: 3.0, hi: 9.0 };
        for _ in 0..1_000 {
            let x = d.sample(&mut rng);
            assert!((3.0..9.0).contains(&x));
        }
    }

    #[test]
    fn log_normal_median_calibration() {
        let d = Dist::log_normal_median(250.0, 0.6);
        let m = empirical_median(&d, 3, 20_001);
        assert!((m - 250.0).abs() / 250.0 < 0.05, "median {m}");
    }

    #[test]
    fn scaled_clamped() {
        let mut rng = Rng::new(4);
        let d = Dist::Const(10.0).scaled(3.0);
        assert_eq!(d.sample(&mut rng), 30.0);
        let c = Dist::Const(100.0).clamped(0.0, 50.0);
        assert_eq!(c.sample(&mut rng), 50.0);
    }

    #[test]
    fn mixture_uses_weights() {
        let mut rng = Rng::new(5);
        let d = Dist::Mix(vec![(9.0, Dist::Const(1.0)), (1.0, Dist::Const(2.0))]);
        let n = 10_000;
        let ones = (0..n)
            .filter(|_| (d.sample(&mut rng) - 1.0).abs() < 1e-12)
            .count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn empty_mixture_is_zero() {
        let mut rng = Rng::new(6);
        assert_eq!(Dist::Mix(vec![]).sample(&mut rng), 0.0);
    }

    #[test]
    fn analytic_means() {
        assert_eq!(Dist::Const(4.0).mean(), Some(4.0));
        assert_eq!(Dist::Uniform { lo: 0.0, hi: 2.0 }.mean(), Some(1.0));
        assert_eq!(Dist::Exponential { lambda: 2.0 }.mean(), Some(0.5));
        let m = Dist::Mix(vec![(1.0, Dist::Const(2.0)), (1.0, Dist::Const(4.0))])
            .mean()
            .unwrap();
        assert!((m - 3.0).abs() < 1e-12);
        assert_eq!(
            Dist::Pareto {
                x_min: 1.0,
                alpha: 0.5
            }
            .mean(),
            None
        );
    }

    #[test]
    fn sample_ms_never_negative() {
        let mut rng = Rng::new(7);
        let d = Dist::Normal {
            mean: 0.0,
            std_dev: 10.0,
        };
        for _ in 0..1_000 {
            let dur = d.sample_ms(&mut rng);
            assert!(dur.as_micros() < 1_000_000_000);
        }
    }
}

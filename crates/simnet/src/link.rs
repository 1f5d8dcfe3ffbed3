//! Per-endpoint latency models.
//!
//! A [`LatencyModel`] describes the round-trip behaviour of one remote host:
//! a base distribution (typically log-normal, calibrated by median) plus an
//! optional heavy Pareto tail mixed in with small probability. The tail is
//! what produces the paper's 10-20 second stragglers (Figure 12).

use crate::dist::Dist;
use crate::rng::Rng;
use crate::time::SimDuration;

/// Round-trip latency model for one endpoint.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    /// Main body of the distribution, in milliseconds.
    pub body_ms: Dist,
    /// Probability that a request instead hits the heavy tail.
    pub tail_chance: f64,
    /// Heavy-tail distribution, in milliseconds.
    pub tail_ms: Dist,
    /// Hard floor applied to every sample (network is never literally 0).
    pub floor_ms: f64,
}

impl LatencyModel {
    /// A log-normal body calibrated by its median (ms) and spread `sigma`.
    pub fn log_normal(median_ms: f64, sigma: f64) -> Self {
        LatencyModel {
            body_ms: Dist::log_normal_median(median_ms, sigma),
            tail_chance: 0.0,
            tail_ms: Dist::Const(0.0),
            floor_ms: 1.0,
        }
    }

    /// Constant latency (useful in unit tests).
    pub fn constant(ms: f64) -> Self {
        LatencyModel {
            body_ms: Dist::Const(ms),
            tail_chance: 0.0,
            tail_ms: Dist::Const(0.0),
            floor_ms: 0.0,
        }
    }

    /// Attach a Pareto straggler tail: with probability `chance` the sample
    /// comes from `Pareto(x_min_ms, alpha)` instead of the body.
    pub fn with_tail(mut self, chance: f64, x_min_ms: f64, alpha: f64) -> Self {
        self.tail_chance = chance;
        self.tail_ms = Dist::Pareto {
            x_min: x_min_ms,
            alpha,
        };
        self
    }

    /// Override the floor.
    pub fn with_floor(mut self, floor_ms: f64) -> Self {
        self.floor_ms = floor_ms;
        self
    }

    /// Draw one round-trip time.
    pub fn sample(&self, rng: &mut Rng) -> SimDuration {
        let ms = if rng.chance(self.tail_chance) {
            self.tail_ms.sample(rng)
        } else {
            self.body_ms.sample(rng)
        };
        SimDuration::from_millis_f64(ms.max(self.floor_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_is_exact() {
        let m = LatencyModel::constant(42.0);
        let mut rng = Rng::new(1);
        assert_eq!(m.sample(&mut rng), SimDuration::from_millis(42));
    }

    #[test]
    fn floor_is_enforced() {
        let m = LatencyModel {
            body_ms: Dist::Const(0.0),
            tail_chance: 0.0,
            tail_ms: Dist::Const(0.0),
            floor_ms: 5.0,
        };
        let mut rng = Rng::new(2);
        assert_eq!(m.sample(&mut rng), SimDuration::from_millis(5));
    }

    #[test]
    fn log_normal_median_roughly_calibrated() {
        let m = LatencyModel::log_normal(300.0, 0.5);
        let mut rng = Rng::new(3);
        let mut v: Vec<u64> = (0..10_001)
            .map(|_| m.sample(&mut rng).as_micros())
            .collect();
        v.sort_unstable();
        let median_ms = v[v.len() / 2] as f64 / 1000.0;
        assert!(
            (median_ms - 300.0).abs() / 300.0 < 0.07,
            "median {median_ms}"
        );
        let Dist::LogNormal { mu, .. } = m.body_ms else {
            panic!("log_normal builds a log-normal body");
        };
        assert!((mu.exp() - 300.0).abs() < 1e-9, "analytic {}", mu.exp());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        // Scenario byte-determinism rests on this: the same RNG stream
        // pulled through the same (possibly degraded) model yields the
        // same sequence, sample for sample.
        let m = LatencyModel::log_normal(250.0, 0.6).with_tail(0.1, 2_000.0, 1.4);
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1_000 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }

    #[test]
    fn degraded_override_shifts_every_sample() {
        // A degraded-link override (what ScenarioConfig installs for one
        // host) dominates the healthy model at every draw.
        let healthy = LatencyModel::log_normal(80.0, 0.3).with_floor(8.0);
        let degraded = LatencyModel::constant(1_500.0);
        let mut rng = Rng::new(9);
        for _ in 0..200 {
            let h = healthy.sample(&mut rng);
            assert!(h < SimDuration::from_millis(1_500), "healthy sample {h}");
        }
        let mut rng = Rng::new(9);
        for _ in 0..200 {
            assert_eq!(degraded.sample(&mut rng), SimDuration::from_millis(1_500));
        }
    }

    #[test]
    fn floor_applies_to_tail_samples_too() {
        let m = LatencyModel {
            body_ms: Dist::Const(0.0),
            tail_chance: 1.0,
            tail_ms: Dist::Const(2.0),
            floor_ms: 25.0,
        };
        let mut rng = Rng::new(11);
        assert_eq!(m.sample(&mut rng), SimDuration::from_millis(25));
    }

    #[test]
    fn tail_produces_stragglers() {
        let m = LatencyModel::constant(10.0).with_tail(0.5, 5_000.0, 1.5);
        let mut rng = Rng::new(4);
        let n = 4_000;
        let slow = (0..n)
            .filter(|_| m.sample(&mut rng) >= SimDuration::from_millis(5_000))
            .count();
        let frac = slow as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "tail frac {frac}");
    }
}

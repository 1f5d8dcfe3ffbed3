//! Five-number whisker summaries.
//!
//! The paper's box plots show the 5th/25th/50th/75th/95th percentiles
//! (§5.2: "In all whiskers plots, we show 5th and 95th percentiles, and the
//! boxes show 25th and 75th percentiles, with a red line for median").

use crate::quantile::Samples;
use std::fmt;

/// A five-number summary matching the paper's whisker plots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Whisker {
    /// 5th percentile (lower whisker).
    pub p5: f64,
    /// 25th percentile (box bottom).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile (box top).
    pub p75: f64,
    /// 95th percentile (upper whisker).
    pub p95: f64,
    /// Number of samples summarized.
    pub n: usize,
}

impl Whisker {
    /// Compute from samples; `None` when empty.
    pub fn from_samples(s: &Samples) -> Option<Whisker> {
        if s.is_empty() {
            return None;
        }
        Some(Whisker {
            p5: s.quantile(0.05)?,
            p25: s.quantile(0.25)?,
            p50: s.quantile(0.50)?,
            p75: s.quantile(0.75)?,
            p95: s.quantile(0.95)?,
            n: s.len(),
        })
    }

    /// Compute directly from values.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Option<Whisker> {
        Whisker::from_samples(&Samples::from_iter(values))
    }

    /// Box height (p75 - p25): the "variability" the paper discusses for
    /// partner latencies and prices.
    pub fn box_spread(&self) -> f64 {
        self.p75 - self.p25
    }

    /// Whisker span (p95 - p5).
    pub fn whisker_spread(&self) -> f64 {
        self.p95 - self.p5
    }

    /// Percentiles are ordered (property-test invariant).
    pub fn is_ordered(&self) -> bool {
        self.p5 <= self.p25 && self.p25 <= self.p50 && self.p50 <= self.p75 && self.p75 <= self.p95
    }
}

impl fmt::Display for Whisker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p5={:.1} p25={:.1} med={:.1} p75={:.1} p95={:.1} (n={})",
            self.p5, self.p25, self.p50, self.p75, self.p95, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_numbers_of_uniform_ramp() {
        let w = Whisker::from_values((0..=100).map(|i| i as f64)).unwrap();
        assert_eq!(w.p50, 50.0);
        assert_eq!(w.p5, 5.0);
        assert_eq!(w.p95, 95.0);
        assert_eq!(w.p25, 25.0);
        assert_eq!(w.p75, 75.0);
        assert_eq!(w.n, 101);
        assert!(w.is_ordered());
        assert_eq!(w.box_spread(), 50.0);
        assert_eq!(w.whisker_spread(), 90.0);
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(Whisker::from_values(std::iter::empty()), None);
    }

    #[test]
    fn single_value_collapses() {
        let w = Whisker::from_values([3.5]).unwrap();
        assert_eq!(w.p5, 3.5);
        assert_eq!(w.p95, 3.5);
        assert_eq!(w.box_spread(), 0.0);
        assert!(w.is_ordered());
    }

    #[test]
    fn display_renders() {
        let w = Whisker::from_values([1.0, 2.0, 3.0]).unwrap();
        let s = format!("{w}");
        assert!(s.contains("med=2.0"));
        assert!(s.contains("n=3"));
    }
}

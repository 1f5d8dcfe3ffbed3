//! Quantiles and summary statistics over `f64` samples.

/// A collection of samples with cached sorting.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl FromIterator<f64> for Samples {
    /// Build from any iterator of values; non-finite values are discarded.
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Samples {
        Samples::from_vec(values.into_iter().filter(|x| x.is_finite()).collect())
    }
}

impl Samples {
    /// Build from an owned buffer, dropping non-finite values and sorting
    /// in place: the same samples as [`Samples::from_iter`], without a
    /// second copy.
    pub fn from_vec(mut values: Vec<f64>) -> Samples {
        values.retain(|x| x.is_finite());
        sort_finite(&mut values);
        Samples { sorted: values }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sorted access.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Quantile `q` in `[0, 1]` by linear interpolation; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            return Some(self.sorted[lo]);
        }
        let frac = pos - lo as f64;
        Some(self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac)
    }

    /// Median (p50).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Sample standard deviation (n-1 denominator); `None` for n < 2.
    pub fn std_dev(&self) -> Option<f64> {
        if self.sorted.len() < 2 {
            return None;
        }
        let mean = self.mean()?;
        let ss: f64 = self.sorted.iter().map(|x| (x - mean) * (x - mean)).sum();
        Some((ss / (self.sorted.len() - 1) as f64).sqrt())
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Number of samples strictly greater than `threshold`.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.sorted
            .iter()
            .rev()
            .take_while(|&&x| x > threshold)
            .count()
    }

    /// Fraction of samples strictly greater than `threshold`.
    pub fn frac_above(&self, threshold: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.count_above(threshold) as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples less than or equal to `threshold` (ECDF value).
    pub fn frac_at_or_below(&self, threshold: f64) -> f64 {
        1.0 - self.frac_above(threshold)
    }
}

/// Sort finite values ascending, in place, into exactly the order a
/// stable `partial_cmp` sort gives.
///
/// A stable sort allocates a scratch buffer as large as the input; an
/// unstable one allocates nothing. The two can only differ among values
/// that compare equal but differ in bits, and for finite values that is
/// `-0.0` against `0.0`: their signs are recorded in input order before
/// the sort and laid back over the zero run after it.
fn sort_finite(values: &mut [f64]) {
    let zero_signs: Vec<bool> = values
        .iter()
        .filter(|x| **x == 0.0)
        .map(|x| x.is_sign_negative())
        .collect();
    values.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let first_zero = values.partition_point(|x| *x < 0.0);
    for (x, negative) in values[first_zero..].iter_mut().zip(zero_signs) {
        *x = if negative { -0.0 } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[f64]) -> Samples {
        Samples::from_iter(v.iter().copied())
    }

    #[test]
    fn quantiles_of_known_data() {
        let x = s(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(x.median(), Some(3.0));
        assert_eq!(x.quantile(0.0), Some(1.0));
        assert_eq!(x.quantile(1.0), Some(5.0));
        assert_eq!(x.quantile(0.25), Some(2.0));
    }

    #[test]
    fn interpolation_between_points() {
        let x = s(&[0.0, 10.0]);
        assert_eq!(x.quantile(0.5), Some(5.0));
        assert_eq!(x.quantile(0.75), Some(7.5));
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(s(&[]).median(), None);
        assert_eq!(s(&[]).mean(), None);
        let one = s(&[7.0]);
        assert_eq!(one.median(), Some(7.0));
        assert_eq!(one.std_dev(), None);
    }

    #[test]
    fn non_finite_discarded() {
        let x = Samples::from_iter(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(x.len(), 2);
        assert_eq!(x.max(), Some(2.0));
        let y = Samples::from_vec(vec![f64::NEG_INFINITY, 2.0, f64::NAN, 1.0]);
        assert_eq!(y.sorted(), &[1.0, 2.0]);
    }

    #[test]
    fn mean_and_std() {
        let x = s(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(x.mean(), Some(5.0));
        let sd = x.std_dev().unwrap();
        assert!((sd - 2.138089935).abs() < 1e-6, "sd {sd}");
    }

    #[test]
    fn frac_above_below() {
        let x = s(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x.frac_above(2.0), 0.5);
        assert_eq!(x.frac_at_or_below(2.0), 0.5);
        assert_eq!(x.frac_above(0.0), 1.0);
        assert_eq!(x.frac_above(10.0), 0.0);
        assert_eq!(s(&[]).frac_above(1.0), 0.0);
        assert_eq!(x.count_above(2.0), 2);
        assert_eq!(s(&[]).count_above(1.0), 0);
    }

    #[test]
    fn frac_at_or_below_steps_over_ties() {
        let x = s(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(x.frac_at_or_below(0.5), 0.0);
        assert_eq!(x.frac_at_or_below(1.0), 0.25);
        assert_eq!(x.frac_at_or_below(2.0), 0.75);
        assert_eq!(x.frac_at_or_below(3.0), 1.0);
        assert_eq!(x.frac_at_or_below(99.0), 1.0);
        // Vacuous on no samples: 1 - frac_above (= 0).
        assert_eq!(s(&[]).frac_at_or_below(1.0), 1.0);
    }
}

//! Empirical distributions for the experiment harness.

use serde::{Deserialize, Serialize};

/// An empirical CDF over `f64` samples.
///
/// ```
/// use leo_core::Cdf;
///
/// let cdf = Cdf::new(vec![20.0, 164.0, 80.0, 40.0, 320.0]);
/// assert_eq!(cdf.median(), Some(80.0));
/// assert_eq!(cdf.quantile(1.0), Some(320.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are rejected).
    ///
    /// # Panics
    /// Panics when any sample is NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// The `q`-quantile by nearest-rank; `None` when empty or `q` is NaN.
    /// Out-of-range `q` clamps to `[0, 1]` (so `q ≤ 0` is the minimum,
    /// `q ≥ 1` the maximum) — NaN, which `clamp` would silently pass
    /// through to index 0 disguised as the minimum, is refused instead.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// Median (0.5 quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_of_a_known_distribution() {
        let cdf = Cdf::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(cdf.median(), Some(3.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(5.0));
        assert_eq!(cdf.quantile(0.2), Some(1.0));
        assert_eq!(cdf.quantile(0.8), Some(4.0));
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(5.0));
    }

    #[test]
    fn empty_cdf_behaves() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.samples().is_empty());
        assert_eq!(cdf.median(), None);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn nan_samples_are_rejected() {
        Cdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn empty_cdf_quantiles_and_extremes_are_none() {
        let cdf = Cdf::new(vec![]);
        assert_eq!(cdf.quantile(0.0), None);
        assert_eq!(cdf.quantile(1.0), None);
        assert_eq!(cdf.min(), None);
        assert_eq!(cdf.max(), None);
        assert!(cdf.samples().is_empty());
    }

    #[test]
    fn single_sample_answers_every_quantile() {
        let cdf = Cdf::new(vec![42.0]);
        for q in [0.0, 0.1, 0.5, 0.9, 1.0, -3.0, 7.0] {
            assert_eq!(cdf.quantile(q), Some(42.0), "q = {q}");
        }
        assert_eq!(cdf.median(), Some(42.0));
        assert_eq!(cdf.min(), cdf.max());
    }

    #[test]
    fn nan_quantile_is_none_not_the_minimum() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(cdf.quantile(f64::NAN), None);
        assert_eq!(cdf.quantile(-f64::NAN), None);
        // Non-NaN out-of-range values still clamp.
        assert_eq!(cdf.quantile(f64::NEG_INFINITY), Some(1.0));
        assert_eq!(cdf.quantile(f64::INFINITY), Some(3.0));
        assert_eq!(Cdf::new(vec![]).quantile(f64::NAN), None);
    }

    #[test]
    fn cdf_round_trips_through_json() {
        let cdf = Cdf::new(vec![20.0, 164.0, 80.0, 40.0, 320.0]);
        let text = serde_json::to_string(&cdf).unwrap();
        let back: Cdf = serde_json::from_str(&text).unwrap();
        assert_eq!(back, cdf);
        assert_eq!(back.median(), cdf.median());
    }

    proptest! {
        #[test]
        fn prop_quantile_is_monotone(samples in proptest::collection::vec(-1e6..1e6f64, 1..100)) {
            let cdf = Cdf::new(samples);
            let mut prev = f64::NEG_INFINITY;
            for i in 0..=10 {
                let q = cdf.quantile(i as f64 / 10.0).unwrap();
                prop_assert!(q >= prev);
                prev = q;
            }
        }

        #[test]
        fn prop_median_is_bracketed(samples in proptest::collection::vec(-1e3..1e3f64, 1..50)) {
            let cdf = Cdf::new(samples.clone());
            let m = cdf.median().unwrap();
            let below = samples.iter().filter(|&&x| x <= m).count();
            // Nearest-rank median: at least half the samples are ≤ it.
            prop_assert!(below * 2 >= samples.len());
        }
    }
}

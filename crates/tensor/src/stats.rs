//! Statistics helpers for reporting experiment results.
//!
//! The paper reports SDC rates together with standard error bars at the 95% confidence
//! level; these helpers compute the same quantities.

use serde::{Deserialize, Serialize};

/// Arithmetic mean of a slice (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sample standard deviation (Bessel-corrected); 0.0 for fewer than two samples.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// The `p`-th percentile (0–100) of a sample using linear interpolation between order
/// statistics, matching NumPy's default behaviour.
///
/// Returns 0.0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A proportion (e.g. an SDC rate) with its 95% confidence half-width.
///
/// The half-width uses the normal approximation to the binomial,
/// `1.96 * sqrt(p * (1 - p) / n)`, which is what the paper's error bars correspond to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Proportion {
    /// Number of successes (e.g. SDCs observed).
    pub successes: u64,
    /// Number of trials.
    pub trials: u64,
}

impl Proportion {
    /// Creates a proportion from raw counts.
    pub fn new(successes: u64, trials: u64) -> Self {
        Proportion { successes, trials }
    }

    /// The point estimate of the proportion (0.0 if there were no trials).
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// The point estimate expressed as a percentage.
    pub fn rate_percent(&self) -> f64 {
        self.rate() * 100.0
    }

    /// The 95% confidence half-width of the proportion (normal approximation).
    pub fn confidence95(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        let p = self.rate();
        1.96 * (p * (1.0 - p) / self.trials as f64).sqrt()
    }

    /// The 95% confidence half-width expressed in percentage points.
    pub fn confidence95_percent(&self) -> f64 {
        self.confidence95() * 100.0
    }

    /// Merges two proportions measured over disjoint trial sets.
    pub fn merge(&self, other: &Proportion) -> Proportion {
        Proportion {
            successes: self.successes + other.successes,
            trials: self.trials + other.trials,
        }
    }
}

/// Root mean square error between predictions and targets.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rmse(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "rmse requires equal-length slices"
    );
    if predictions.is_empty() {
        return 0.0;
    }
    let mse = predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / predictions.len() as f64;
    mse.sqrt()
}

/// Mean absolute deviation between predictions and targets (the paper's "average deviation
/// per frame" metric for the steering models).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mean_abs_deviation(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "mean_abs_deviation requires equal-length slices"
    );
    if predictions.is_empty() {
        return 0.0;
    }
    predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / predictions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_dev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.138089935).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn proportion_rate_and_confidence() {
        let p = Proportion::new(20, 100);
        assert!((p.rate() - 0.2).abs() < 1e-12);
        assert!((p.rate_percent() - 20.0).abs() < 1e-12);
        let ci = p.confidence95();
        assert!((ci - 1.96 * (0.2f64 * 0.8 / 100.0).sqrt()).abs() < 1e-12);
        assert_eq!(Proportion::new(0, 0).rate(), 0.0);
        assert_eq!(Proportion::new(0, 0).confidence95(), 0.0);
    }

    #[test]
    fn proportion_merge_accumulates() {
        let merged = Proportion::new(3, 10).merge(&Proportion::new(7, 30));
        assert_eq!(merged.successes, 10);
        assert_eq!(merged.trials, 40);
        assert!((merged.rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rmse_and_mad_known_values() {
        let preds = [1.0, 2.0, 3.0];
        let targets = [1.0, 4.0, 1.0];
        assert!((rmse(&preds, &targets) - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((mean_abs_deviation(&preds, &targets) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn rmse_rejects_length_mismatch() {
        rmse(&[1.0], &[1.0, 2.0]);
    }
}

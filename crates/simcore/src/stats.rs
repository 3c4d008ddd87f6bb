//! Measurement statistics: running moments, error metrics, and the
//! least-squares fit used to calibrate `(α, β)` from ping-pong data.

use serde::{Deserialize, Serialize};

/// Running mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Accum {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accum {
    /// Empty accumulator.
    pub fn new() -> Self {
        Accum { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / crate::num::f64_from_u64(self.n);
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / crate::num::f64_from_u64(self.n - 1)
        }
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

impl Extend<f64> for Accum {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Accum {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut a = Accum::new();
        a.extend(iter);
        a
    }
}

/// Absolute percentage error of `predicted` against `actual`, in percent.
/// Zero `actual` with nonzero `predicted` yields infinity.
pub fn ape(predicted: f64, actual: f64) -> f64 {
    if actual == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((predicted - actual) / actual).abs() * 100.0
    }
}

/// Mean absolute percentage error over (predicted, actual) pairs, in percent.
/// Returns 0 for an empty input.
pub fn mape<I>(pairs: I) -> f64
where
    I: IntoIterator<Item = (f64, f64)>,
{
    let mut acc = Accum::new();
    for (p, a) in pairs {
        acc.push(ape(p, a));
    }
    acc.mean()
}

/// Largest absolute percentage error over (predicted, actual) pairs.
pub fn max_ape<I>(pairs: I) -> f64
where
    I: IntoIterator<Item = (f64, f64)>,
{
    pairs.into_iter().map(|(p, a)| ape(p, a)).fold(0.0, f64::max)
}

/// Kendall's τ rank correlation between two equal-length sequences —
/// used to check that model-predicted orderings of candidate schedules
/// match simulated ground truth. Returns a value in `[-1, 1]`; ties
/// count as discordant-neutral (τ-a). `None` for sequences shorter
/// than 2 or of different lengths.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let n = a.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let s = da * db;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = crate::num::f64_from_usize(n * (n - 1) / 2);
    Some(crate::num::f64_from_i64(concordant - discordant) / pairs)
}

/// Least-squares line fit `y ≈ intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r2: f64,
}

impl LinearFit {
    /// Fits a line to `(x, y)` points. Requires at least two points with
    /// distinct x values; returns `None` otherwise.
    pub fn fit(points: &[(f64, f64)]) -> Option<LinearFit> {
        let n = crate::num::f64_from_usize(points.len());
        if points.len() < 2 {
            return None;
        }
        let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
        let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
        let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
        if sxx == 0.0 {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let syy: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
        let ss_res: f64 = points.iter().map(|p| (p.1 - (intercept + slope * p.0)).powi(2)).sum();
        let r2 = if syy == 0.0 { 1.0 } else { 1.0 - ss_res / syy };
        Some(LinearFit { slope, intercept, r2 })
    }

    /// Evaluates the fitted line at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_moments() {
        let a: Accum = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(a.count(), 8);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4; unbiased sample variance = 32/7.
        assert!((a.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(a.min(), 2.0);
        assert_eq!(a.max(), 9.0);
    }

    #[test]
    fn accum_empty_is_sane() {
        let a = Accum::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.variance(), 0.0);
        assert!(a.min().is_nan());
    }

    #[test]
    fn ape_basics() {
        assert!((ape(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert!((ape(90.0, 100.0) - 10.0).abs() < 1e-12);
        assert_eq!(ape(0.0, 0.0), 0.0);
        assert_eq!(ape(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn mape_and_max() {
        let pairs = [(110.0, 100.0), (95.0, 100.0), (100.0, 100.0)];
        assert!((mape(pairs) - 5.0).abs() < 1e-12);
        assert!((max_ape(pairs) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn fit_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let f = LinearFit::fit(&pts).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!((f.eval(100.0) - 203.0).abs() < 1e-9);
    }

    #[test]
    fn fit_noisy_line_recovers_parameters() {
        // Deterministic "noise" from a fixed pattern.
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64;
                let noise = if i % 2 == 0 { 0.5 } else { -0.5 };
                (x, 10.0 + 0.25 * x + noise)
            })
            .collect();
        let f = LinearFit::fit(&pts).unwrap();
        assert!((f.slope - 0.25).abs() < 0.01, "slope {}", f.slope);
        assert!((f.intercept - 10.0).abs() < 0.5, "intercept {}", f.intercept);
        assert!(f.r2 > 0.99);
    }

    #[test]
    fn kendall_tau_extremes() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y_same = [10.0, 20.0, 30.0, 40.0];
        let y_rev = [40.0, 30.0, 20.0, 10.0];
        assert_eq!(kendall_tau(&x, &y_same), Some(1.0));
        assert_eq!(kendall_tau(&x, &y_rev), Some(-1.0));
    }

    #[test]
    fn kendall_tau_partial_agreement() {
        let x = [1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 2.0]; // one swapped pair of three
        let tau = kendall_tau(&x, &y).unwrap();
        assert!((tau - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_degenerate() {
        assert_eq!(kendall_tau(&[1.0], &[1.0]), None);
        assert_eq!(kendall_tau(&[1.0, 2.0], &[1.0]), None);
        // All ties → τ = 0.
        assert_eq!(kendall_tau(&[1.0, 1.0], &[2.0, 3.0]), Some(0.0));
    }

    #[test]
    fn fit_degenerate_inputs() {
        assert!(LinearFit::fit(&[]).is_none());
        assert!(LinearFit::fit(&[(1.0, 1.0)]).is_none());
        assert!(LinearFit::fit(&[(1.0, 1.0), (1.0, 2.0)]).is_none());
    }
}

//! Ordinary least squares line fitting.
//!
//! The paper estimates `CPI_cache` and the blocking factor `BF` by fitting a
//! line to measurements of `CPI_eff` against the per-instruction miss latency
//! `MPI × MP` gathered across core/memory frequency sweeps (Sec. V.A). The
//! intercept of that line is `CPI_cache` and the slope is `BF`; the quality of
//! the fit (`R²`, e.g. 0.95 for the column-store workload in Fig. 3a) tells
//! whether the constant-blocking-factor assumption holds.

use crate::StatsError;

/// Result of a least-squares line fit `y ≈ intercept + slope · x`.
///
/// # Examples
///
/// ```
/// let fit = memsense_stats::fit_line(&[0.0, 1.0, 2.0], &[1.0, 2.0, 3.0]).unwrap();
/// assert!((fit.slope - 1.0).abs() < 1e-12 && (fit.intercept - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Estimated slope of the line.
    pub slope: f64,
    /// Estimated intercept of the line.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 for a perfect fit).
    ///
    /// When the response has zero variance the fit is exact and this is
    /// reported as `1.0`.
    pub r_squared: f64,
    /// Standard error of the slope estimate (0 when residuals are zero or
    /// there are only two points).
    pub slope_stderr: f64,
    /// Number of points used in the fit.
    pub n: usize,
}

impl LineFit {
    /// Approximate 95% confidence interval on the slope
    /// (`slope ± 1.96 × stderr`; normal approximation, adequate for the
    /// 8-point calibration sweeps).
    pub fn slope_ci95(&self) -> (f64, f64) {
        let half = 1.96 * self.slope_stderr;
        (self.slope - half, self.slope + half)
    }
}

/// Fits `y ≈ intercept + slope · x` by ordinary least squares.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] if `xs` and `ys` differ in length.
/// * [`StatsError::NotEnoughData`] if fewer than two points are supplied.
/// * [`StatsError::DegenerateInput`] if all `x` values are identical.
///
/// # Examples
///
/// ```
/// use memsense_stats::fit_line;
/// let fit = fit_line(&[1.0, 2.0, 3.0, 4.0], &[2.1, 3.9, 6.2, 7.8]).unwrap();
/// assert!((fit.slope - 1.94).abs() < 0.05);
/// ```
pub fn fit_line(xs: &[f64], ys: &[f64]) -> Result<LineFit, StatsError> {
    fit_line_weighted(xs, ys, None)
}

/// Fits `y ≈ intercept + slope · x` by (optionally weighted) least squares.
///
/// When `weights` is `Some`, each point contributes proportionally to its
/// weight; this is used to weight program phases by their instruction counts
/// (paper Sec. IV.D). Weights must be non-negative and not all zero.
///
/// # Errors
///
/// Same conditions as [`fit_line`], plus [`StatsError::InvalidParameter`] for
/// invalid weights and [`StatsError::LengthMismatch`] if the weight vector
/// length differs from the data length.
pub fn fit_line_weighted(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
) -> Result<LineFit, StatsError> {
    if xs.len() != ys.len() {
        return Err(StatsError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            got: xs.len(),
        });
    }
    let n = xs.len();
    let w_storage;
    let ws: &[f64] = match weights {
        Some(w) => {
            if w.len() != n {
                return Err(StatsError::LengthMismatch {
                    left: w.len(),
                    right: n,
                });
            }
            if w.iter().any(|&wi| wi.is_nan() || wi < 0.0) {
                return Err(StatsError::InvalidParameter("weights must be >= 0"));
            }
            if w.iter().sum::<f64>() <= 0.0 {
                return Err(StatsError::InvalidParameter("weights sum to zero"));
            }
            w
        }
        None => {
            w_storage = vec![1.0; n];
            &w_storage
        }
    };

    let w_sum: f64 = ws.iter().sum();
    let mean_x = xs.iter().zip(ws).map(|(x, w)| x * w).sum::<f64>() / w_sum;
    let mean_y = ys.iter().zip(ws).map(|(y, w)| y * w).sum::<f64>() / w_sum;

    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mean_x;
        let dy = ys[i] - mean_y;
        sxx += ws[i] * dx * dx;
        sxy += ws[i] * dx * dy;
        syy += ws[i] * dy * dy;
    }
    if sxx == 0.0 {
        return Err(StatsError::DegenerateInput);
    }

    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;

    // Residual sum of squares and R².
    let mut ss_res = 0.0;
    for i in 0..n {
        let r = ys[i] - (intercept + slope * xs[i]);
        ss_res += ws[i] * r * r;
    }
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (1.0 - ss_res / syy).clamp(0.0, 1.0)
    };

    // Unweighted-style standard error of the slope (df = n - 2).
    let slope_stderr = if n > 2 && ss_res > 0.0 {
        let sigma2 = ss_res / (w_sum * (n as f64 - 2.0) / n as f64);
        (sigma2 / sxx).sqrt()
    } else {
        0.0
    };

    Ok(LineFit {
        slope,
        intercept,
        r_squared,
        slope_stderr,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.9 + 0.2 * x).collect();
        let fit = fit_line(&xs, &ys).unwrap();
        assert!((fit.slope - 0.2).abs() < 1e-12);
        assert!((fit.intercept - 0.9).abs() < 1e-12);
        assert_eq!(fit.r_squared, 1.0);
        assert_eq!(fit.n, 10);
    }

    #[test]
    fn noisy_line_reasonable() {
        // Deterministic "noise" via a fixed pattern.
        let xs: Vec<f64> = (0..20).map(|i| i as f64 / 2.0).collect();
        let noise = [0.01, -0.02, 0.015, -0.005];
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.5 + 0.35 * x + noise[i % 4])
            .collect();
        let fit = fit_line(&xs, &ys).unwrap();
        assert!((fit.slope - 0.35).abs() < 0.01);
        assert!((fit.intercept - 1.5).abs() < 0.05);
        assert!(fit.r_squared > 0.99);
        assert!(fit.slope_stderr > 0.0);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert_eq!(
            fit_line(&[1.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch { left: 1, right: 2 })
        );
    }

    #[test]
    fn too_few_points_rejected() {
        assert_eq!(
            fit_line(&[1.0], &[1.0]),
            Err(StatsError::NotEnoughData { needed: 2, got: 1 })
        );
    }

    #[test]
    fn constant_x_rejected() {
        assert_eq!(
            fit_line(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::DegenerateInput)
        );
    }

    #[test]
    fn constant_y_gives_zero_slope_perfect_r2() {
        let fit = fit_line(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn weighted_fit_prefers_heavy_points() {
        // Two clusters: heavy points on y = x, light outliers on y = x + 10.
        let xs = [0.0, 1.0, 2.0, 3.0, 0.0, 3.0];
        let ys = [0.0, 1.0, 2.0, 3.0, 10.0, 13.0];
        let ws = [100.0, 100.0, 100.0, 100.0, 1.0, 1.0];
        let fit = fit_line_weighted(&xs, &ys, Some(&ws)).unwrap();
        assert!((fit.slope - 1.0).abs() < 0.1, "slope = {}", fit.slope);
        assert!(fit.intercept < 1.0);
    }

    #[test]
    fn negative_weight_rejected() {
        let err = fit_line_weighted(&[1.0, 2.0], &[1.0, 2.0], Some(&[1.0, -1.0])).unwrap_err();
        assert!(matches!(err, StatsError::InvalidParameter(_)));
    }

    #[test]
    fn zero_weights_rejected() {
        let err = fit_line_weighted(&[1.0, 2.0], &[1.0, 2.0], Some(&[0.0, 0.0])).unwrap_err();
        assert!(matches!(err, StatsError::InvalidParameter(_)));
    }

    #[test]
    fn weight_length_mismatch_rejected() {
        let err = fit_line_weighted(&[1.0, 2.0], &[1.0, 2.0], Some(&[1.0])).unwrap_err();
        assert!(matches!(err, StatsError::LengthMismatch { .. }));
    }

    #[test]
    fn slope_ci_contains_true_slope_for_noisy_data() {
        let xs: Vec<f64> = (0..24).map(|i| i as f64 / 4.0).collect();
        let noise = [0.05, -0.04, 0.03, -0.02, 0.01, -0.05];
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 + 0.5 * x + noise[i % 6])
            .collect();
        let fit = fit_line(&xs, &ys).unwrap();
        let (lo, hi) = fit.slope_ci95();
        assert!(lo < 0.5 && 0.5 < hi, "CI [{lo}, {hi}] must cover 0.5");
        assert!(hi - lo < 0.2, "CI reasonably tight: [{lo}, {hi}]");
    }

    #[test]
    fn exact_fit_has_zero_width_ci() {
        let fit = fit_line(&[0.0, 1.0, 2.0], &[1.0, 2.0, 3.0]).unwrap();
        let (lo, hi) = fit.slope_ci95();
        assert_eq!(lo, hi);
    }
}

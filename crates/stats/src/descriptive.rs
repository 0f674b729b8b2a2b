//! Descriptive statistics for counter samples.
//!
//! The characterization figures of the paper (Figs. 2, 4, 5) are time series
//! of CPU utilization, CPI, and memory bandwidth. [`Summary`] condenses such a
//! series into the statistics the paper discusses: the mean, the spread
//! ("the vast majority of CPI samples are within a narrow range"), and the
//! coefficient of variation used to validate the constant-pathlength
//! assumption (Sec. V.B).

use crate::StatsError;

/// Summary statistics for a sample of `f64` values.
///
/// # Examples
///
/// ```
/// use memsense_stats::Summary;
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n - 1` denominator; 0 for a single sample).
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
    /// 5th percentile.
    pub p05: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Computes summary statistics over `samples`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotEnoughData`] when `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Result<Self, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 50.0),
            p05: percentile_sorted(&sorted, 5.0),
            p95: percentile_sorted(&sorted, 95.0),
        })
    }

    /// Coefficient of variation `stddev / mean`.
    ///
    /// Returns `f64::INFINITY` when the mean is zero but the spread is not,
    /// and `0.0` when both are zero.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            if self.stddev == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.stddev / self.mean.abs()
        }
    }
}

/// Computes the `p`-th percentile (0–100) of `samples` using linear
/// interpolation between order statistics.
///
/// # Errors
///
/// * [`StatsError::NotEnoughData`] when `samples` is empty.
/// * [`StatsError::InvalidParameter`] when `p` is outside `[0, 100]`.
///
/// # Examples
///
/// ```
/// let p = memsense_stats::descriptive::percentile(&[4.0, 1.0, 3.0, 2.0], 50.0).unwrap();
/// assert_eq!(p, 2.5);
/// ```
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidParameter("percentile out of [0, 100]"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(percentile_sorted(&sorted, p))
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Computes the `p`-th percentile (0–100) of `samples` by the
/// **nearest-rank** definition: the smallest sample such that at least `p`%
/// of the data is ≤ it (`sorted[⌈p/100·n⌉ − 1]`, rank clamped to `[1, n]`).
///
/// This is the right estimator for tail-latency reporting: with fewer than
/// `100/(100−p)` samples it returns the **maximum observed** value rather
/// than interpolating below it (a p99 over 3 samples is the worst of the
/// three, not a number no request ever experienced) — and the clamp means
/// small `n` can never index past the end of the sorted sample.
///
/// # Errors
///
/// * [`StatsError::NotEnoughData`] when `samples` is empty.
/// * [`StatsError::InvalidParameter`] when `p` is outside `[0, 100]`.
///
/// # Examples
///
/// ```
/// use memsense_stats::descriptive::percentile_nearest_rank;
/// // p99 of two samples is the max, not an interpolation.
/// assert_eq!(percentile_nearest_rank(&[1.0, 9.0], 99.0).unwrap(), 9.0);
/// ```
pub fn percentile_nearest_rank(samples: &[f64], p: f64) -> Result<f64, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidParameter("percentile out of [0, 100]"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // ceil can land on 0 (p = 0) or, through float rounding, on n + 1;
    // clamping to [1, n] makes the 1-based rank safe for every n ≥ 1.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, n) - 1])
}

/// Arithmetic mean of a sample.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] when `samples` is empty.
pub fn mean(samples: &[f64]) -> Result<f64, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    Ok(samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert_eq!(s.mean, 5.0);
        assert!((s.stddev - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.5);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[3.5]).unwrap();
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 3.5);
        assert_eq!(s.p05, 3.5);
        assert_eq!(s.p95, 3.5);
    }

    #[test]
    fn summary_empty_rejected() {
        assert!(Summary::from_samples(&[]).is_err());
    }

    #[test]
    fn cv_zero_mean() {
        let s = Summary::from_samples(&[-1.0, 1.0]).unwrap();
        assert!(s.coefficient_of_variation().is_infinite());
        let z = Summary::from_samples(&[0.0, 0.0]).unwrap();
        assert_eq!(z.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn cv_regular() {
        let s = Summary::from_samples(&[9.0, 10.0, 11.0]).unwrap();
        assert!((s.coefficient_of_variation() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 10.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 40.0);
        assert_eq!(percentile(&xs, 50.0).unwrap(), 25.0);
        assert!((percentile(&xs, 25.0).unwrap() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_rejects_bad_p() {
        assert!(percentile(&[1.0], 101.0).is_err());
        assert!(percentile(&[1.0], -0.1).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn mean_empty_rejected() {
        assert!(mean(&[]).is_err());
    }

    // Golden pins for the small-n off-by-one class of bug: a p99 over fewer
    // than 100 samples must clamp to the max observed sample, never index
    // past the end or interpolate below the tail.

    #[test]
    fn nearest_rank_n1_is_the_sample_for_every_p() {
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile_nearest_rank(&[7.25], p).unwrap(), 7.25);
        }
    }

    #[test]
    fn nearest_rank_n2_golden() {
        let s = [10.0, 2.0]; // unsorted on purpose
        assert_eq!(percentile_nearest_rank(&s, 0.0).unwrap(), 2.0);
        assert_eq!(percentile_nearest_rank(&s, 50.0).unwrap(), 2.0);
        assert_eq!(percentile_nearest_rank(&s, 51.0).unwrap(), 10.0);
        assert_eq!(percentile_nearest_rank(&s, 99.0).unwrap(), 10.0);
        assert_eq!(percentile_nearest_rank(&s, 100.0).unwrap(), 10.0);
    }

    #[test]
    fn nearest_rank_n3_golden() {
        let s = [30.0, 10.0, 20.0];
        assert_eq!(percentile_nearest_rank(&s, 33.0).unwrap(), 10.0);
        assert_eq!(percentile_nearest_rank(&s, 34.0).unwrap(), 20.0);
        assert_eq!(percentile_nearest_rank(&s, 50.0).unwrap(), 20.0);
        assert_eq!(percentile_nearest_rank(&s, 67.0).unwrap(), 30.0);
        // p99 of three samples is the worst of the three.
        assert_eq!(percentile_nearest_rank(&s, 99.0).unwrap(), 30.0);
        assert_eq!(percentile_nearest_rank(&s, 100.0).unwrap(), 30.0);
    }

    #[test]
    fn nearest_rank_n100_golden() {
        // samples 1..=100: the p-th percentile is exactly p for integral p.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&s, 50.0).unwrap(), 50.0);
        assert_eq!(percentile_nearest_rank(&s, 90.0).unwrap(), 90.0);
        assert_eq!(percentile_nearest_rank(&s, 99.0).unwrap(), 99.0);
        assert_eq!(percentile_nearest_rank(&s, 100.0).unwrap(), 100.0);
        assert_eq!(percentile_nearest_rank(&s, 0.0).unwrap(), 1.0);
    }

    #[test]
    fn nearest_rank_rejects_bad_input() {
        assert!(percentile_nearest_rank(&[], 50.0).is_err());
        assert!(percentile_nearest_rank(&[1.0], -0.1).is_err());
        assert!(percentile_nearest_rank(&[1.0], 100.1).is_err());
    }
}

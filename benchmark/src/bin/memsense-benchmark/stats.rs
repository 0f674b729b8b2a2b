//! Order statistics used by the benchmark and by `compare`.

use memsense_stats::descriptive::{self, percentile_nearest_rank};

/// Samples strictly beyond the `p`-th percentile's nearest rank
/// (`⌈p/100·n⌉`, the rank `percentile_nearest_rank` reads).
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub((p / 100.0 * n as f64).ceil() as usize)
}

/// Whether `n` samples support reporting the `p`-th percentile: at least ten
/// samples must lie beyond it, or the value is one unlucky sample.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// Nearest-rank percentile (`NaN` when there are no samples).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_nearest_rank(values, p).unwrap_or(f64::NAN)
}

/// Median (the mean of the middle two for even counts; `NaN` when there
/// are no values).
pub fn median(values: &[f64]) -> f64 {
    descriptive::percentile(values, 50.0).unwrap_or(f64::NAN)
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones computed from raw results in Python.
/// One value yields that value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with two
        // points the method extrapolates past the data.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn empty_sample_has_no_percentile() {
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(20, 50.0));
        assert!(!supports(5, 50.0));
    }
}

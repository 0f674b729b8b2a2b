//! Piecewise-linear interpolation.
//!
//! The composite queueing-delay-vs-utilization relationship of Fig. 7 is an
//! empirical curve: the paper averages four measured curves (two memory
//! speeds × two read/write mixes) into one. [`PiecewiseLinear`] stores such a
//! curve as `(x, y)` knots and evaluates it with linear interpolation,
//! clamping outside the measured range.

use crate::StatsError;

/// A piecewise-linear function defined by sorted `(x, y)` knots.
///
/// Evaluation clamps to the first/last knot outside the knot range, matching
/// how a measured utilization curve should behave (there is no data below 0%
/// or above the maximum stable utilization).
///
/// # Examples
///
/// ```
/// use memsense_stats::PiecewiseLinear;
/// let f = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 10.0)]).unwrap();
/// assert_eq!(f.eval(0.5), 5.0);
/// assert_eq!(f.eval(2.0), 10.0); // clamped
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    knots: Vec<(f64, f64)>,
}

impl PiecewiseLinear {
    /// Builds a curve from knots, which must be non-empty, finite, and have
    /// strictly increasing `x`.
    ///
    /// # Errors
    ///
    /// * [`StatsError::NotEnoughData`] when `knots` is empty.
    /// * [`StatsError::InvalidParameter`] when `x` values are not strictly
    ///   increasing or any coordinate is not finite.
    pub fn new(knots: Vec<(f64, f64)>) -> Result<Self, StatsError> {
        if knots.is_empty() {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        if knots.iter().any(|&(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(StatsError::InvalidParameter("non-finite knot"));
        }
        if knots.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(StatsError::InvalidParameter(
                "knot x values must be strictly increasing",
            ));
        }
        Ok(PiecewiseLinear { knots })
    }

    /// Builds a curve by sorting points on `x` and averaging the `y` values of
    /// points whose `x` coincide (within `tol`). Useful for merging multiple
    /// measured sweeps into one composite curve, as the paper does in Fig. 7.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PiecewiseLinear::new`].
    pub fn from_unsorted(mut points: Vec<(f64, f64)>, tol: f64) -> Result<Self, StatsError> {
        if points.is_empty() {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut knots: Vec<(f64, f64)> = Vec::with_capacity(points.len());
        let mut i = 0;
        while i < points.len() {
            let x0 = points[i].0;
            let mut sum = 0.0;
            let mut cnt = 0usize;
            while i < points.len() && points[i].0 - x0 <= tol {
                sum += points[i].1;
                cnt += 1;
                i += 1;
            }
            knots.push((x0, sum / cnt as f64));
        }
        PiecewiseLinear::new(knots)
    }

    /// Evaluates the function at `x`, clamping outside the knot range.
    pub fn eval(&self, x: f64) -> f64 {
        let k = &self.knots;
        if x <= k[0].0 {
            return k[0].1;
        }
        if x >= k[k.len() - 1].0 {
            return k[k.len() - 1].1;
        }
        // Binary search for the segment containing x.
        let idx = k.partition_point(|&(kx, _)| kx <= x);
        let (x0, y0) = k[idx - 1];
        let (x1, y1) = k[idx];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Returns the knots defining the curve.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.knots
    }

    /// Returns a new curve that is the pointwise mean of `curves`, sampled at
    /// the union of all their knot `x` positions. This is the "composite
    /// model" construction from the paper (Sec. VI.C.1).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotEnoughData`] when `curves` is empty.
    pub fn composite(curves: &[PiecewiseLinear]) -> Result<PiecewiseLinear, StatsError> {
        if curves.is_empty() {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        let mut xs: Vec<f64> = curves
            .iter()
            .flat_map(|c| c.knots.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let knots = xs
            .into_iter()
            .map(|x| {
                let mean_y = curves.iter().map(|c| c.eval(x)).sum::<f64>() / curves.len() as f64;
                (x, mean_y)
            })
            .collect();
        PiecewiseLinear::new(knots)
    }

    /// Checks whether the curve is non-decreasing in `y` (a queueing-delay
    /// curve must be).
    pub fn is_monotone_nondecreasing(&self) -> bool {
        self.knots.windows(2).all(|w| w[0].1 <= w[1].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> PiecewiseLinear {
        PiecewiseLinear::new(vec![(0.0, 0.0), (0.5, 1.0), (1.0, 4.0)]).unwrap()
    }

    #[test]
    fn eval_at_knots() {
        let f = ramp();
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(0.5), 1.0);
        assert_eq!(f.eval(1.0), 4.0);
    }

    #[test]
    fn eval_between_knots() {
        let f = ramp();
        assert!((f.eval(0.25) - 0.5).abs() < 1e-12);
        assert!((f.eval(0.75) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn eval_clamps() {
        let f = ramp();
        assert_eq!(f.eval(-1.0), 0.0);
        assert_eq!(f.eval(9.0), 4.0);
    }

    #[test]
    fn rejects_unsorted() {
        assert!(PiecewiseLinear::new(vec![(1.0, 0.0), (0.0, 1.0)]).is_err());
    }

    #[test]
    fn rejects_duplicate_x() {
        assert!(PiecewiseLinear::new(vec![(1.0, 0.0), (1.0, 1.0)]).is_err());
    }

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(PiecewiseLinear::new(vec![]).is_err());
        assert!(PiecewiseLinear::new(vec![(f64::NAN, 0.0)]).is_err());
        assert!(PiecewiseLinear::new(vec![(0.0, f64::INFINITY)]).is_err());
    }

    #[test]
    fn from_unsorted_merges_duplicates() {
        let f =
            PiecewiseLinear::from_unsorted(vec![(1.0, 4.0), (0.0, 0.0), (1.0, 2.0)], 1e-9).unwrap();
        assert_eq!(f.knots().len(), 2);
        assert_eq!(f.eval(1.0), 3.0); // mean of 4 and 2
    }

    #[test]
    fn composite_averages() {
        let a = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 2.0)]).unwrap();
        let b = PiecewiseLinear::new(vec![(0.0, 2.0), (1.0, 4.0)]).unwrap();
        let c = PiecewiseLinear::composite(&[a, b]).unwrap();
        assert_eq!(c.eval(0.0), 1.0);
        assert_eq!(c.eval(1.0), 3.0);
        assert_eq!(c.eval(0.5), 2.0);
    }

    #[test]
    fn composite_union_of_knots() {
        let a = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 1.0)]).unwrap();
        let b = PiecewiseLinear::new(vec![(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)]).unwrap();
        let c = PiecewiseLinear::composite(&[a, b]).unwrap();
        assert_eq!(c.knots().len(), 3);
        assert!((c.eval(0.5) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn monotonicity_check() {
        assert!(ramp().is_monotone_nondecreasing());
        let f = PiecewiseLinear::new(vec![(0.0, 1.0), (1.0, 0.0)]).unwrap();
        assert!(!f.is_monotone_nondecreasing());
    }
}

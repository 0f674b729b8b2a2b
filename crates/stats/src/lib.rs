//! Statistics toolkit used throughout memsense.
//!
//! This crate provides the small set of numerical building blocks the paper's
//! methodology relies on:
//!
//! * [`ols`] — ordinary least squares line fits with `R²`, used to estimate
//!   `CPI_cache` (intercept) and the blocking factor `BF` (slope) from
//!   frequency-scaling sweeps (paper Sec. V.A, Fig. 3).
//! * [`descriptive`] — summary statistics for counter time series
//!   (paper Figs. 2/4/5).
//! * [`mod@kmeans`] — k-means clustering used to form the workload classes of
//!   Fig. 6 / Tab. 6.
//! * [`interp`] — piecewise-linear interpolation used to build the composite
//!   queueing-delay-vs-utilization curve of Fig. 7.
//! * [`histogram`] — fixed-bin histograms with terminal sparklines, used to
//!   show how per-interval samples (e.g. CPI) are distributed.
//!
//! # Examples
//!
//! ```
//! use memsense_stats::ols::fit_line;
//!
//! // CPI_eff measured at different per-instruction miss latencies:
//! let xs = [0.5, 1.0, 1.5, 2.0];
//! let ys = [1.0, 1.1, 1.2, 1.3];
//! let fit = fit_line(&xs, &ys).unwrap();
//! assert!((fit.slope - 0.2).abs() < 1e-12);
//! assert!((fit.intercept - 0.9).abs() < 1e-12);
//! assert!(fit.r_squared > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptive;
pub mod histogram;
pub mod interp;
pub mod kmeans;
pub mod ols;

pub use descriptive::Summary;
pub use histogram::Histogram;
pub use interp::PiecewiseLinear;
pub use kmeans::{kmeans, Clustering};
pub use ols::{fit_line, LineFit};

/// Error type for statistics routines.
///
/// All fallible functions in this crate return `Result<_, StatsError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StatsError {
    /// The input slices were empty or too short for the requested operation.
    NotEnoughData {
        /// Minimum number of points required.
        needed: usize,
        /// Number of points supplied.
        got: usize,
    },
    /// Paired inputs (e.g. `xs` and `ys`) had different lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// The regressor had zero variance, so a slope cannot be estimated.
    DegenerateInput,
    /// A parameter was outside its valid domain (e.g. `k = 0` clusters).
    InvalidParameter(&'static str),
}

impl core::fmt::Display for StatsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StatsError::NotEnoughData { needed, got } => {
                write!(f, "not enough data: needed {needed}, got {got}")
            }
            StatsError::LengthMismatch { left, right } => {
                write!(f, "input length mismatch: {left} vs {right}")
            }
            StatsError::DegenerateInput => write!(f, "degenerate input (zero variance)"),
            StatsError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

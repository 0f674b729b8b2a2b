//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Constant blocking factor** (paper Sec. IV.B assumes `BF` constant
//!    across miss penalties): compare per-point implied BF against the
//!    fitted constant.
//! 2. **Composite queueing curve** (the paper averages four measured
//!    curves): compare solver output under the composite, a single-mix
//!    curve, and an analytic M/M/1 curve.
//! 3. **Prefetching** (Sec. VII: a better prefetcher lowers BF): calibrate
//!    with the prefetcher disabled and measure the BF increase.
//! 4. **Constant pathlength** (Sec. IV.A): verify the coefficient of
//!    variation of instructions-per-unit-of-work across the frequency sweep
//!    is small.

use memsense_model::queueing::QueueingCurve;
use memsense_model::solver::solve_cpi;
use memsense_model::system::SystemConfig;
use memsense_model::units::Nanoseconds;
use memsense_model::workload::WorkloadParams;
use memsense_sim::config::MemoryConfig;
use memsense_workloads::Workload;

use crate::calibrate::{
    measure_at, measure_with_prefetcher, CalibratedWorkload, CalibrationBudget,
};
use crate::render::{f, Table};
use crate::ExperimentError;

/// Ablation 1: how constant is the blocking factor really?
///
/// For each sweep point, the implied BF is
/// `(CPI_eff − CPI_cache) / (MPI × MP)`; the paper's model replaces all of
/// them with the fitted slope. Returns the per-point implied BFs.
pub fn implied_bf_per_point(calibration: &CalibratedWorkload) -> Vec<f64> {
    calibration
        .samples
        .iter()
        .filter(|s| s.measurement.latency_per_instruction > 1e-6)
        .map(|s| {
            (s.measurement.cpi_eff - calibration.cpi_cache) / s.measurement.latency_per_instruction
        })
        .collect()
}

/// Renders ablation 1 for a set of calibrations: fitted BF vs the spread of
/// per-point implied BFs.
pub fn constant_bf_table(calibrations: &[CalibratedWorkload]) -> Table {
    let mut t = Table::new(
        "Ablation: constant-BF assumption (fitted vs per-point implied BF)",
        &[
            "workload",
            "fitted_bf",
            "implied_min",
            "implied_max",
            "spread",
        ],
    );
    for c in calibrations {
        let implied = implied_bf_per_point(c);
        if implied.is_empty() {
            continue;
        }
        let min = implied.iter().cloned().fold(f64::MAX, f64::min);
        let max = implied.iter().cloned().fold(f64::MIN, f64::max);
        t.row(vec![
            c.workload.name().to_string(),
            f(c.bf, 3),
            f(min, 3),
            f(max, 3),
            f(max - min, 3),
        ]);
    }
    t
}

/// Ablation 2: solver CPI under different queueing-curve choices.
///
/// # Errors
///
/// Propagates solver/curve failures.
pub fn queueing_curve_table(
    classes: &[WorkloadParams],
    system: &SystemConfig,
) -> Result<Table, ExperimentError> {
    let composite = QueueingCurve::composite_default();
    let mm1 = QueueingCurve::mm1(Nanoseconds(12.0))?;
    let flat = QueueingCurve::from_measurements(vec![(0.0, 0.0), (1.0, 0.0)], 0.95)?;
    let mut t = Table::new(
        "Ablation: queueing-curve choice (CPI per class)",
        &[
            "class",
            "composite",
            "mm1",
            "no_queueing",
            "composite_vs_none",
        ],
    );
    for class in classes {
        let a = solve_cpi(class, system, &composite)?.cpi_eff;
        let b = solve_cpi(class, system, &mm1)?.cpi_eff;
        let c = solve_cpi(class, system, &flat)?.cpi_eff;
        t.row(vec![
            class.name.clone(),
            f(a, 3),
            f(b, 3),
            f(c, 3),
            f(a / c, 3),
        ]);
    }
    Ok(t)
}

/// Ablation 3 result: blocking factor with and without the prefetcher.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchAblation {
    /// Workload studied.
    pub workload: Workload,
    /// Fitted BF with the stream prefetcher enabled.
    pub bf_prefetch_on: f64,
    /// Fitted BF with the prefetcher disabled.
    pub bf_prefetch_off: f64,
}

/// Ablation 3: calibrate with the prefetcher disabled and compare BF — the
/// Sec. VII claim that better prefetching lowers the blocking factor, run in
/// reverse. `on` is the workload's ordinary (prefetch-on) calibration at the
/// same `budget`, so callers that already hold it do not sweep it again.
///
/// # Errors
///
/// Propagates calibration failures.
pub fn prefetch_ablation(
    on: &CalibratedWorkload,
    budget: &CalibrationBudget,
) -> Result<PrefetchAblation, ExperimentError> {
    let workload = on.workload;
    // Re-run the sweep with prefetching off.
    let mut samples = Vec::new();
    for memory in [MemoryConfig::ddr3_1867(), MemoryConfig::ddr3_1333()] {
        for ghz in crate::calibrate::CORE_SPEEDS_GHZ {
            samples.push(measure_with_prefetcher(
                workload, ghz, memory, budget, false,
            )?);
        }
    }
    let off = crate::calibrate::fit_from_samples(workload, samples)?;

    Ok(PrefetchAblation {
        workload,
        bf_prefetch_on: on.bf,
        bf_prefetch_off: off.bf,
    })
}

/// Ablation 4: pathlength stability across the frequency sweep. Returns the
/// coefficient of variation of instructions retired per simulated
/// nanosecond × CPI (i.e. per unit of work) — near zero when pathlength is
/// frequency-invariant, validating the paper's fixed-pathlength assumption.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn pathlength_cv(
    workload: Workload,
    budget: &CalibrationBudget,
) -> Result<f64, ExperimentError> {
    // Instructions per unit of work are determined by the generator, so the
    // observable is MPKI (misses are tied to work items): its CV across the
    // sweep is the pathlength-stability proxy the paper checks in Sec. V.B.
    let mut mpkis = Vec::new();
    for ghz in crate::calibrate::CORE_SPEEDS_GHZ {
        let s = measure_at(workload, ghz, MemoryConfig::ddr3_1867(), budget)?;
        mpkis.push(s.measurement.mpki);
    }
    let summary =
        memsense_stats::Summary::from_samples(&mpkis).map_err(|_| ExperimentError::NoData)?;
    Ok(summary.coefficient_of_variation())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate;

    #[test]
    fn implied_bf_brackets_fitted_bf() {
        let cal = calibrate(Workload::StructuredData, &CalibrationBudget::quick()).unwrap();
        let implied = implied_bf_per_point(&cal);
        assert!(!implied.is_empty());
        let min = implied.iter().cloned().fold(f64::MAX, f64::min);
        let max = implied.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            min - 0.05 <= cal.bf && cal.bf <= max + 0.05,
            "fitted {} inside implied range {min}..{max}",
            cal.bf
        );
        let t = constant_bf_table(&[cal]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn queueing_ablation_orders_curves() {
        let classes = WorkloadParams::all_classes();
        let sys = SystemConfig::paper_baseline();
        let t = queueing_curve_table(&classes, &sys).unwrap();
        assert_eq!(t.len(), 3);
        // With no queueing, CPI can only go down or stay.
        let ascii = t.to_ascii();
        assert!(ascii.contains("no_queueing"));
    }

    #[test]
    fn prefetcher_off_raises_bf_for_streaming_workload() {
        let budget = CalibrationBudget::quick();
        let on = calibrate(Workload::Bwaves, &budget).unwrap();
        let ab = prefetch_ablation(&on, &budget).unwrap();
        assert!(
            ab.bf_prefetch_off > ab.bf_prefetch_on + 0.03,
            "prefetcher must lower BF: on {} off {}",
            ab.bf_prefetch_on,
            ab.bf_prefetch_off
        );
    }

    #[test]
    fn pathlength_stable_across_frequency() {
        let cv = pathlength_cv(Workload::Jvm, &CalibrationBudget::quick()).unwrap();
        assert!(cv < 0.08, "pathlength proxy CV {cv} should be small");
    }
}

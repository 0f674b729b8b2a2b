//! Model calibration by frequency and memory-speed scaling (paper Sec. V.A,
//! Fig. 3).
//!
//! The paper estimates `CPI_cache` and `BF` for each workload by measuring
//! `CPI_eff` at different miss penalties — obtained by scaling the core
//! frequency (memory looks faster) and the memory speed (memory looks
//! slower) — and fitting a line of `CPI_eff` against `MPI × MP`. We run the
//! identical experiment on the simulated testbed.

use memsense_model::workload::Segment;
use memsense_sim::config::MemoryConfig;
use memsense_sim::{Machine, Measurement, SimConfig};
use memsense_stats::fit_line;
use memsense_workloads::{Class, Workload};

use crate::{executor, ExperimentError};

/// Core frequencies swept (GHz) — the Tab. 3 set.
pub const CORE_SPEEDS_GHZ: [f64; 4] = [2.1, 2.4, 2.7, 3.1];

/// One measured sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSample {
    /// Core clock at which the sample was taken (GHz).
    pub core_ghz: f64,
    /// Memory transfer rate (MT/s).
    pub memory_mts: f64,
    /// Derived counter measurement.
    pub measurement: Measurement,
}

/// Calibrated model parameters for one workload, with fit quality.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedWorkload {
    /// Workload identity.
    pub workload: Workload,
    /// Fitted infinite-cache CPI (intercept).
    pub cpi_cache: f64,
    /// Fitted blocking factor (slope).
    pub bf: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
    /// 95% confidence interval on the fitted blocking factor.
    pub bf_ci95: (f64, f64),
    /// Mean MPKI across sweep points.
    pub mpki: f64,
    /// Mean writeback rate across sweep points.
    pub wbr: f64,
    /// The raw sweep points behind the fit.
    pub samples: Vec<SweepSample>,
}

impl CalibratedWorkload {
    /// Converts the calibration into analytic-model parameters.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation errors (e.g. a negative fitted BF on
    /// a degenerate sweep).
    pub fn to_params(&self) -> Result<memsense_model::WorkloadParams, memsense_model::ModelError> {
        let segment = match self.workload.class() {
            Class::BigData => Segment::BigData,
            Class::Enterprise => Segment::Enterprise,
            Class::Hpc => Segment::Hpc,
        };
        memsense_model::WorkloadParams::new(
            self.workload.name(),
            segment,
            self.cpi_cache,
            self.bf.max(0.0),
            self.mpki,
            self.wbr,
        )
    }
}

/// Budget knobs for a calibration run. Tests use small budgets; the `repro`
/// binary uses the default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationBudget {
    /// Warm-up instructions per thread before measuring.
    pub warmup_ops: u64,
    /// Measurement window (simulated ns).
    pub window_ns: f64,
    /// Threads for big data / enterprise workloads.
    pub threads: u32,
    /// Threads for HPC workloads (the paper uses 3 cores/socket for SPEC so
    /// the latency-limited model applies — Sec. V.N).
    pub hpc_threads: u32,
}

impl Default for CalibrationBudget {
    fn default() -> Self {
        CalibrationBudget {
            warmup_ops: 150_000,
            window_ns: 250_000.0,
            threads: 8,
            hpc_threads: 4,
        }
    }
}

impl CalibrationBudget {
    /// A reduced budget for unit/integration tests.
    pub fn quick() -> Self {
        CalibrationBudget {
            warmup_ops: 90_000,
            window_ns: 90_000.0,
            threads: 4,
            hpc_threads: 2,
        }
    }

    fn threads_for(&self, workload: Workload) -> u32 {
        match workload.class() {
            Class::Hpc => self.hpc_threads,
            _ => self.threads,
        }
    }
}

/// Measures one workload at one (core speed, memory speed) operating point.
///
/// # Errors
///
/// Returns [`ExperimentError::NoData`] if no instructions retired.
pub fn measure_at(
    workload: Workload,
    core_ghz: f64,
    memory: MemoryConfig,
    budget: &CalibrationBudget,
) -> Result<SweepSample, ExperimentError> {
    measure_with_prefetcher(workload, core_ghz, memory, budget, true)
}

/// [`measure_at`] with the stream prefetcher on or off: the one machine
/// setup both sides of the prefetch ablation measure on.
pub(crate) fn measure_with_prefetcher(
    workload: Workload,
    core_ghz: f64,
    memory: MemoryConfig,
    budget: &CalibrationBudget,
    prefetch: bool,
) -> Result<SweepSample, ExperimentError> {
    let threads = budget.threads_for(workload);
    let config = SimConfig::xeon_like(threads)
        .with_core_clock(core_ghz)
        .with_memory(memory)
        .with_prefetcher(prefetch);
    let mut machine =
        Machine::new(config, workload.streams(threads, 0xca11b)).map_err(ExperimentError::Sim)?;
    machine.run_ops(budget.warmup_ops);
    let measurement = machine
        .measure_for_ns(budget.window_ns)
        .ok_or(ExperimentError::NoData)?;
    Ok(SweepSample {
        core_ghz,
        memory_mts: memory.mega_transfers,
        measurement,
    })
}

/// Runs the full frequency × memory-speed sweep for one workload and fits
/// `CPI_eff = CPI_cache + (MPI × MP) × BF`.
///
/// # Errors
///
/// Propagates measurement errors; returns [`ExperimentError::FitFailed`]
/// when the sweep is degenerate.
pub fn calibrate(
    workload: Workload,
    budget: &CalibrationBudget,
) -> Result<CalibratedWorkload, ExperimentError> {
    let mut points = Vec::new();
    for memory in [MemoryConfig::ddr3_1867(), MemoryConfig::ddr3_1333()] {
        for ghz in CORE_SPEEDS_GHZ {
            points.push((memory, ghz));
        }
    }
    // Each operating point simulates an independent machine; run the sweep
    // grid on the executor (serial-equivalent ordering keeps the fit input,
    // and therefore the fitted parameters, bit-identical).
    let samples = executor::par_map_full(
        points,
        |_, (memory, ghz)| {
            format!(
                "calibrate/{} @ {ghz:.1} GHz {:.0} MT/s",
                workload.name(),
                memory.mega_transfers
            )
        },
        |(memory, ghz)| measure_at(workload, ghz, memory, budget),
    )
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    fit_from_samples(workload, samples)
}

/// Fits the Eq. 1 line to a set of sweep samples.
///
/// # Errors
///
/// Returns [`ExperimentError::FitFailed`] when fewer than two points exist
/// or the regressor is degenerate.
pub fn fit_from_samples(
    workload: Workload,
    samples: Vec<SweepSample>,
) -> Result<CalibratedWorkload, ExperimentError> {
    let xs: Vec<f64> = samples
        .iter()
        .map(|s| s.measurement.latency_per_instruction)
        .collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.measurement.cpi_eff).collect();
    let fit = match fit_line(&xs, &ys) {
        Ok(fit) => fit,
        // A zero-variance regressor means the workload exposed no
        // per-instruction miss latency anywhere in the sweep — the extreme
        // core-bound case (beyond even proximity search): BF is zero and
        // CPI_cache is simply the mean measured CPI.
        Err(memsense_stats::StatsError::DegenerateInput) => memsense_stats::LineFit {
            slope: 0.0,
            intercept: ys.iter().sum::<f64>() / ys.len().max(1) as f64,
            r_squared: 0.0,
            slope_stderr: 0.0,
            n: ys.len(),
        },
        Err(_) => return Err(ExperimentError::FitFailed(workload.name())),
    };
    let n = samples.len() as f64;
    let mpki = samples.iter().map(|s| s.measurement.mpki).sum::<f64>() / n;
    let wbr = samples.iter().map(|s| s.measurement.wbr).sum::<f64>() / n;
    Ok(CalibratedWorkload {
        workload,
        cpi_cache: fit.intercept,
        bf: fit.slope,
        r_squared: fit.r_squared,
        bf_ci95: fit.slope_ci95(),
        mpki,
        wbr,
        samples,
    })
}

/// Calibrates every workload (the full Fig. 3 + Tabs. 2/4/5 pipeline).
///
/// # Errors
///
/// Propagates the first per-workload failure.
pub fn calibrate_all(
    budget: &CalibrationBudget,
) -> Result<Vec<CalibratedWorkload>, ExperimentError> {
    executor::par_map_full(
        Workload::all().to_vec(),
        |_, w| format!("calibrate/{}", w.name()),
        |w| calibrate(w, budget),
    )
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_data_calibration_matches_paper_shape() {
        let cal = calibrate(Workload::StructuredData, &CalibrationBudget::quick()).unwrap();
        // Fig. 3(a): good linear fit, BF ≈ 0.20, CPI_cache ≈ 0.9.
        assert!(cal.r_squared > 0.8, "R² = {}", cal.r_squared);
        assert!((cal.bf - 0.20).abs() < 0.10, "BF = {}", cal.bf);
        assert!(
            (cal.cpi_cache - 0.89).abs() < 0.30,
            "CPI_cache = {}",
            cal.cpi_cache
        );
        assert_eq!(cal.samples.len(), 8);
    }

    #[test]
    fn proximity_is_core_bound_low_bf() {
        let cal = calibrate(Workload::Proximity, &CalibrationBudget::quick()).unwrap();
        // "The very low value of the blocking factor indicates the workload
        // is strongly core-bound" — and the poor correlation coefficient is
        // expected and not of concern (Sec. V.E).
        assert!(cal.bf.abs() < 0.15, "BF = {}", cal.bf);
        assert!(cal.mpki < 1.0, "MPKI = {}", cal.mpki);
    }

    #[test]
    fn enterprise_bf_exceeds_hpc_bf() {
        let budget = CalibrationBudget::quick();
        let oltp = calibrate(Workload::Oltp, &budget).unwrap();
        let bwaves = calibrate(Workload::Bwaves, &budget).unwrap();
        assert!(
            oltp.bf > bwaves.bf + 0.15,
            "OLTP BF {} must exceed bwaves BF {}",
            oltp.bf,
            bwaves.bf
        );
    }

    #[test]
    fn cpi_rises_with_core_speed_in_sweep() {
        let cal = calibrate(Workload::Jvm, &CalibrationBudget::quick()).unwrap();
        // Within one memory speed, CPI_eff grows with core clock.
        let fast_mem: Vec<_> = cal
            .samples
            .iter()
            .filter(|s| s.memory_mts > 1500.0)
            .collect();
        assert!(fast_mem.len() >= 2);
        for w in fast_mem.windows(2) {
            assert!(w[1].measurement.cpi_eff > w[0].measurement.cpi_eff - 0.05);
        }
    }

    #[test]
    fn bf_confidence_interval_brackets_bf() {
        let cal = calibrate(Workload::Oltp, &CalibrationBudget::quick()).unwrap();
        let (lo, hi) = cal.bf_ci95;
        assert!(lo <= cal.bf && cal.bf <= hi);
        assert!(hi - lo < 0.2, "tight CI for a clean fit: [{lo}, {hi}]");
    }

    #[test]
    fn to_params_roundtrip() {
        let cal = calibrate(Workload::StructuredData, &CalibrationBudget::quick()).unwrap();
        let p = cal.to_params().unwrap();
        assert_eq!(p.name, "Structured Data");
        assert!((p.cpi_cache - cal.cpi_cache).abs() < 1e-12);
        assert!((p.mpki - cal.mpki).abs() < 1e-12);
    }

    #[test]
    fn fit_fails_on_empty() {
        assert!(matches!(
            fit_from_samples(Workload::Jvm, vec![]),
            Err(ExperimentError::FitFailed(_))
        ));
    }
}

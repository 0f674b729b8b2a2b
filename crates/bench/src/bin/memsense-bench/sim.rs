//! The sim baseline: wall clock of the sim-heavy repro stages.
//!
//! Sweep cells, calibrations, characterization series and I/O-pressure
//! tables all re-run the simulator engine, so its throughput bounds how
//! many design points a repro run can explore. Each stage runs on reduced
//! budgets, one at a time on the calling thread; the executor's worker pool
//! serves the stage's inner jobs (sweep points, series workloads, pressure
//! cells), so at `MEMSENSE_THREADS > 1` a wall reflects intra-stage
//! parallelism. Every inner job is an independent machine merged in
//! submission order, so the simulated numbers are identical at any thread
//! count.

use std::time::Instant;

use memsense_experiments::calibrate::{calibrate, CalibrationBudget};
use memsense_experiments::io_pressure::io_pressure_table;
use memsense_experiments::render::{f, Table};
use memsense_experiments::timeseries::{class_series, SeriesBudget};
use memsense_experiments::ExperimentError;
use memsense_sim::telemetry::{self, TelemetrySnapshot};
use memsense_workloads::{Class, Workload};

use crate::gate::{Better, Error, Metric};

/// A stage may take up to 1.5× its recorded wall: enough to absorb runner
/// noise, tight enough to catch a pre-overhaul-sized slowdown.
pub const TOLERANCE: f64 = 0.5;

type Stage = (&'static str, fn() -> Result<(), ExperimentError>);

/// The measured stages, in report order.
const STAGES: [Stage; 7] = [
    ("timeseries/bigdata", || {
        class_series(Class::BigData, &SeriesBudget::quick()).map(drop)
    }),
    ("timeseries/enterprise", || {
        class_series(Class::Enterprise, &SeriesBudget::quick()).map(drop)
    }),
    ("timeseries/hpc", || {
        class_series(Class::Hpc, &SeriesBudget::quick()).map(drop)
    }),
    ("calibrate/oltp", || {
        calibrate(Workload::Oltp, &CalibrationBudget::quick()).map(drop)
    }),
    ("calibrate/spark", || {
        calibrate(Workload::Spark, &CalibrationBudget::quick()).map(drop)
    }),
    ("calibrate/bwaves", || {
        calibrate(Workload::Bwaves, &CalibrationBudget::quick()).map(drop)
    }),
    ("io_pressure", || {
        io_pressure_table(4, 40_000, 60_000.0).map(drop)
    }),
];

/// Times every stage `repeats` times and keeps each stage's fastest wall
/// (`wall_ms[<stage>]` rows plus their sum, `total_ms`). With `profile`,
/// also prints each stage's simulator work counters from its first run:
/// every machine a stage builds is dropped inside it and stages never
/// co-run, so the telemetry delta is exactly that stage's work.
pub fn measure(repeats: usize, profile: bool) -> Result<Vec<Metric>, Error> {
    let mut best = [f64::INFINITY; STAGES.len()];
    let mut work = [TelemetrySnapshot::default(); STAGES.len()];
    for rep in 0..repeats {
        for (i, (name, run)) in STAGES.iter().enumerate() {
            let before = telemetry::snapshot();
            let start = Instant::now();
            run().map_err(|e| Error(format!("sim stage {name} failed: {e}")))?;
            best[i] = best[i].min(start.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                work[i] = telemetry::snapshot().delta_since(&before);
            }
        }
    }
    if profile {
        let mut t = Table::new(
            "Sim stage profile: wall clock and simulator work per stage",
            &[
                "stage",
                "wall_ms",
                "ops",
                "cache_accesses",
                "tlb_accesses",
                "prefetch_fills",
            ],
        );
        for (((name, _), ms), w) in STAGES.iter().zip(best).zip(work) {
            t.row(vec![
                name.to_string(),
                f(ms, 1),
                w.ops.to_string(),
                w.cache_accesses.to_string(),
                w.tlb_accesses.to_string(),
                w.prefetch_fills.to_string(),
            ]);
        }
        print!("{}", t.to_ascii());
    }
    let mut rows: Vec<Metric> = STAGES
        .iter()
        .zip(best)
        .map(|((name, _), ms)| Metric::new(format!("wall_ms[{name}]"), ms, "ms", Better::Lower))
        .collect();
    rows.push(Metric::new(
        "total_ms",
        best.iter().sum(),
        "ms",
        Better::Lower,
    ));
    Ok(rows)
}

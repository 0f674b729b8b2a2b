//! `sim-corebound` and `sim-membound`: the paper's calibration pipeline
//! (Sec. V.A) run on the simulator at the default budget.
//!
//! One *cycle* calibrates each of the mix's three workloads over the eight
//! operating points `calibrate()` sweeps. The first cycle of a run uses the
//! stream seed `calibrate::measure_at` uses, so its measurements are pinned
//! exactly by `golden/<workload>.json`; it is also the warm-up. The timed
//! cycles that follow repeat one stream seed derived from the run seed, so
//! each operating point is measured several times on identical inputs. An
//! *operation* is one operating-point measurement: build the machine, warm
//! it up, measure one window.

use std::collections::BTreeMap;
use std::time::Instant;

use memsense_experiments::calibrate::{
    fit_from_samples, CalibratedWorkload, CalibrationBudget, SweepSample, CORE_SPEEDS_GHZ,
};
use memsense_experiments::json::Json;
use memsense_sim::config::MemoryConfig;
use memsense_sim::counters::CoreCounters;
use memsense_sim::mem::MemStats;
use memsense_sim::telemetry::{self, TelemetrySnapshot};
use memsense_sim::trace::OpBlock;
use memsense_sim::{Machine, SimConfig};
use memsense_workloads::{Class, Workload};

use crate::golden;
use crate::job::{Job, Kind};
use crate::metrics::{peak_rss_mb, Outcome};
use crate::rng::derive;
use crate::stats::{median, percentile, supports};
use crate::trace::Tracer;

/// The stream seed `calibrate::measure_at` uses; the pinned cycle runs on it.
pub const PINNED_STREAM_SEED: u64 = 0xca11b;

/// Tail percentile for operating-point latency. A traced run holds a few
/// hundred points (each takes 0.1–0.2 s), too few for a p99 with ten
/// samples beyond it; p90 needs 100.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Timed cycles an untraced run makes at least, so every operating point
/// has repeats to take the fastest of.
pub const MIN_REPEATS: usize = 3;

/// Instructions per hardware thread the set-up machine retires.
const SETUP_OPS: u64 = 10_000;

/// The three workloads a sim mix calibrates.
pub fn mix(kind: Kind) -> [Workload; 3] {
    match kind {
        Kind::SimMembound => [Workload::Bwaves, Workload::Milc, Workload::Nits],
        _ => [Workload::Povray, Workload::Perlbench, Workload::Proximity],
    }
}

/// The (memory, core clock) operating points, in `calibrate()`'s order.
pub fn operating_points() -> Vec<(MemoryConfig, f64)> {
    [MemoryConfig::ddr3_1867(), MemoryConfig::ddr3_1333()]
        .into_iter()
        .flat_map(|memory| CORE_SPEEDS_GHZ.map(|ghz| (memory, ghz)))
        .collect()
}

/// Simulated hardware threads for `workload` under `budget`, as
/// `calibrate()` assigns them.
pub fn threads_for(workload: Workload, budget: &CalibrationBudget) -> u32 {
    match workload.class() {
        Class::Hpc => budget.hpc_threads,
        _ => budget.threads,
    }
}

/// One measured operating point plus the raw counters behind it.
#[derive(Debug, Clone)]
pub struct Point {
    /// Position in the cycle: workload index × operating points + point
    /// index.
    pub slot: usize,
    /// The calibration sample (what `calibrate::measure_at` returns).
    pub sample: SweepSample,
    /// Host wall time of the whole point, seconds.
    pub wall_s: f64,
    /// Instructions retired per hardware thread over the machine's life.
    pub core_ops: Vec<u64>,
    /// Lifetime counters summed over threads.
    pub counters: CoreCounters,
    /// Lifetime memory-controller statistics.
    pub mem: MemStats,
    /// Simulated time at the end, ns.
    pub sim_ns: f64,
    /// Memory channels simulated.
    pub channels: u32,
}

impl Point {
    /// Instructions retired over the machine's life (warm-up included).
    pub fn ops(&self) -> u64 {
        self.core_ops.iter().sum()
    }
}

/// Measures one operating point exactly as `calibrate::measure_at` does,
/// with the stream seed as a parameter and a span around each engine call.
///
/// # Errors
///
/// The simulator's configuration error, or no instructions retired.
pub fn measure_point(
    workload: Workload,
    core_ghz: f64,
    memory: MemoryConfig,
    budget: &CalibrationBudget,
    stream_seed: u64,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Point, String> {
    let started = Instant::now();
    let threads = threads_for(workload, budget);
    let config = SimConfig::xeon_like(threads)
        .with_core_clock(core_ghz)
        .with_memory(memory);
    let span = tracer.enter("sim.engine.build", request);
    let mut machine = match Machine::new(config, workload.streams(threads, stream_seed)) {
        Ok(machine) => machine,
        Err(e) => {
            tracer.exit(span);
            return Err(format!("{}: {e}", workload.name()));
        }
    };
    let span = tracer.switch(span, "sim.engine.warmup", request);
    machine.run_ops(budget.warmup_ops);
    let span = tracer.switch(span, "sim.engine.measure", request);
    let measurement = machine.measure_for_ns(budget.window_ns);
    // Reading the counters and dropping the machine (which flushes its
    // telemetry) close the point.
    let span = tracer.switch(span, "sim.engine.teardown", request);
    let core_ops = machine
        .core_counters()
        .iter()
        .map(|c| c.instructions)
        .collect();
    let (counters, mem, sim_ns) = (
        machine.total_counters(),
        machine.memory_stats(),
        machine.now_ns(),
    );
    drop(machine);
    tracer.exit(span);
    let measurement = measurement.ok_or_else(|| {
        format!(
            "{} @ {core_ghz} GHz: no instructions retired",
            workload.name()
        )
    })?;
    Ok(Point {
        slot: 0,
        sample: SweepSample {
            core_ghz,
            memory_mts: memory.mega_transfers,
            measurement,
        },
        wall_s: started.elapsed().as_secs_f64(),
        core_ops,
        counters,
        mem,
        sim_ns,
        channels: memory.channels,
    })
}

/// One calibration cycle over a mix.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    /// Fitted parameters, one per workload that calibrated.
    pub calibrations: Vec<CalibratedWorkload>,
    /// Every measured point, in order.
    pub points: Vec<Point>,
    /// Simulator work counters flushed by this cycle's machines.
    pub telemetry: TelemetrySnapshot,
    /// Host wall time of the cycle, seconds.
    pub wall_s: f64,
    /// Points or fits that failed, with the reason.
    pub failures: Vec<String>,
}

/// Runs one calibration cycle: every operating point of every workload of
/// the mix, then the Eq. 1 fit per workload.
pub fn run_cycle(
    workloads: &[Workload],
    budget: &CalibrationBudget,
    stream_seed: u64,
    tracer: &mut Tracer,
    first_request: u64,
) -> Cycle {
    let started = Instant::now();
    let before = telemetry::snapshot();
    let mut cycle = Cycle::default();
    let mut request = first_request;
    let points = operating_points();
    for (w, &workload) in workloads.iter().enumerate() {
        let mut samples = Vec::new();
        for (p, &(memory, ghz)) in points.iter().enumerate() {
            match measure_point(workload, ghz, memory, budget, stream_seed, tracer, request) {
                Ok(mut point) => {
                    point.slot = w * points.len() + p;
                    samples.push(point.sample);
                    cycle.points.push(point);
                }
                Err(e) => cycle.failures.push(e),
            }
            request += 1;
        }
        let span = tracer.enter("experiments.calibrate.fit", request);
        let fit = fit_from_samples(workload, samples);
        tracer.exit(span);
        match fit {
            Ok(c) if c.cpi_cache.is_finite() && c.bf.is_finite() => cycle.calibrations.push(c),
            Ok(c) => cycle
                .failures
                .push(format!("{}: non-finite fit", c.workload.name())),
            Err(e) => cycle.failures.push(format!("{}: {e}", workload.name())),
        }
    }
    cycle.telemetry = telemetry::snapshot().delta_since(&before);
    cycle.wall_s = started.elapsed().as_secs_f64();
    cycle
}

/// The pinned form of a cycle: fitted `CPI_cache`/`BF` and every
/// `Measurement` field of every operating point.
pub fn golden_json(cycle: &Cycle) -> Json {
    let workloads = cycle
        .calibrations
        .iter()
        .map(|c| {
            let points = c
                .samples
                .iter()
                .map(|s| {
                    let m = &s.measurement;
                    Json::obj(vec![
                        ("core_ghz", Json::num(s.core_ghz)),
                        ("memory_mts", Json::num(s.memory_mts)),
                        ("cpi_eff", Json::num(m.cpi_eff)),
                        ("mpki", Json::num(m.mpki)),
                        ("miss_penalty_ns", Json::num(m.miss_penalty_ns)),
                        ("miss_penalty_cycles", Json::num(m.miss_penalty_cycles)),
                        ("wbr", Json::num(m.wbr)),
                        ("bandwidth_gbps", Json::num(m.bandwidth_gbps)),
                        ("cpu_utilization", Json::num(m.cpu_utilization)),
                        ("instructions", Json::num(m.instructions as f64)),
                        (
                            "latency_per_instruction",
                            Json::num(m.latency_per_instruction),
                        ),
                        ("l1_hit_ratio", Json::num(m.l1_hit_ratio)),
                        ("l2_hit_ratio", Json::num(m.l2_hit_ratio)),
                        ("llc_hit_ratio", Json::num(m.llc_hit_ratio)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("workload", Json::str(c.workload.name())),
                ("cpi_cache", Json::num(c.cpi_cache)),
                ("bf", Json::num(c.bf)),
                ("points", Json::Arr(points)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("stream_seed", Json::num(PINNED_STREAM_SEED as f64)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// Computes the pinned cycle of a mix (for `bless`).
pub fn pinned(kind: Kind) -> Json {
    let budget = CalibrationBudget::default();
    let cycle = run_cycle(
        &mix(kind),
        &budget,
        PINNED_STREAM_SEED,
        &mut Tracer::new(false),
        0,
    );
    golden_json(&cycle)
}

/// The stream seed of a run's timed cycles.
fn timed_stream_seed(seed: u64) -> u64 {
    derive(seed, 1)
}

/// Replays the op generation of `point`: the same streams, the same op
/// count per thread, pulled in the engine's 32-op blocks. Returns seconds.
fn replay_generation(workload: Workload, stream_seed: u64, point: &Point) -> f64 {
    let mut streams = workload.streams(point.core_ops.len() as u32, stream_seed);
    let mut block = OpBlock::new();
    let started = Instant::now();
    for (stream, &ops) in streams.iter_mut().zip(&point.core_ops) {
        let mut left = ops;
        while left > 0 {
            let n = left.min(32);
            stream.fill_block(&mut block, n as usize);
            std::hint::black_box(&block.ops);
            left -= n;
        }
    }
    started.elapsed().as_secs_f64()
}

/// Counts a cycle's points and failures into the outcome.
fn check_cycle(cycle: &Cycle, outcome: &mut Outcome) {
    outcome.attempted += cycle.points.len() as u64 + cycle.failures.len() as u64;
    outcome.failed += cycle.failures.len() as u64;
    for f in &cycle.failures {
        outcome.problem(f.clone());
    }
}

/// Runs a sim workload: the pinned cycle, then timed cycles for end-to-end
/// metrics or untraced/traced pairs for per-layer ones.
pub fn run(job: &Job, ready: impl FnOnce()) -> Outcome {
    let workloads = mix(job.kind);
    let budget = CalibrationBudget::default();
    let mut outcome = Outcome::new();
    // Set-up ends once the first machine is built and has retired its first
    // instructions: process start, the first machine build and any lazy
    // initialization on the op path count as set-up.
    let (memory, ghz) = operating_points()[0];
    let threads = threads_for(workloads[0], &budget);
    let config = SimConfig::xeon_like(threads)
        .with_core_clock(ghz)
        .with_memory(memory);
    match Machine::new(config, workloads[0].streams(threads, PINNED_STREAM_SEED)) {
        Ok(mut machine) => machine.run_ops(SETUP_OPS),
        Err(e) => {
            outcome.problem(format!("{}: {e}", workloads[0].name()));
            return outcome;
        }
    }
    ready();
    if job.setup_only {
        return outcome;
    }
    // The pinned cycle is checked against the golden and warms the process
    // up; it is not timed.
    let pinned = run_cycle(
        &workloads,
        &budget,
        PINNED_STREAM_SEED,
        &mut Tracer::new(false),
        0,
    );
    check_cycle(&pinned, &mut outcome);
    if let Err(e) = golden::check(job.kind.name(), &golden_json(&pinned)) {
        outcome.problem(e);
    }
    if job.trace {
        set_counts(&pinned, &mut outcome);
        run_traced(job, &workloads, &budget, &mut outcome);
    } else {
        run_untraced(job, &workloads, &budget, &mut outcome);
    }
    outcome
}

/// Each slot's fastest repeat, `(ops, wall seconds)` by slot, from
/// `(slot, ops, wall seconds)` measurements.
fn fastest(points: impl IntoIterator<Item = (usize, u64, f64)>) -> BTreeMap<usize, (u64, f64)> {
    let mut best: BTreeMap<usize, (u64, f64)> = BTreeMap::new();
    for (slot, ops, wall_s) in points {
        let entry = best.entry(slot).or_insert((ops, wall_s));
        if wall_s < entry.1 {
            *entry = (ops, wall_s);
        }
    }
    best
}

/// Repeats the seeded cycle until the cycle boundary nearest `--seconds`
/// (at least [`MIN_REPEATS`] cycles) and reports each operating point at
/// its fastest repeat. The inputs repeat exactly, and other tenants of a
/// shared host can only slow a repeat down, so the fastest repeat is the
/// estimate of a point's cost least disturbed by them.
fn run_untraced(job: &Job, workloads: &[Workload], budget: &CalibrationBudget, out: &mut Outcome) {
    let seed = timed_stream_seed(job.seed);
    let min_repeats = if job.smoke { 1 } else { MIN_REPEATS };
    let started = Instant::now();
    let mut cycles = Vec::new();
    loop {
        let cycle = run_cycle(workloads, budget, seed, &mut Tracer::new(false), 0);
        check_cycle(&cycle, out);
        let half = cycle.wall_s / 2.0;
        cycles.push(cycle);
        if cycles.len() >= min_repeats && started.elapsed().as_secs_f64() + half >= job.seconds {
            break;
        }
    }
    let best = fastest(
        cycles
            .iter()
            .flat_map(|c| &c.points)
            .map(|p| (p.slot, p.ops(), p.wall_s)),
    );
    let ops: u64 = best.values().map(|&(ops, _)| ops).sum();
    let wall_s: f64 = best.values().map(|&(_, wall)| wall).sum();
    let walls_ms: Vec<f64> = best.values().map(|&(_, wall)| wall * 1e3).collect();
    out.set("p50_ms", median(&walls_ms));
    out.set("ops_per_s", ops as f64 / wall_s);
    out.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN));
    out.detail("cycles", Json::num(cycles.len() as f64));
    out.detail("samples", Json::num(walls_ms.len() as f64));
}

fn run_traced(job: &Job, workloads: &[Workload], budget: &CalibrationBudget, out: &mut Outcome) {
    let seed = timed_stream_seed(job.seed);
    let started = Instant::now();
    let mut tracer = Tracer::new(true);
    let (mut wall_untraced, mut wall_traced, mut gen_s, mut ops, mut cycles) =
        (0.0, 0.0, 0.0, 0u64, 0u64);
    let mut cache_accesses = 0u64;
    let mut latencies_ms = Vec::new();
    loop {
        let plain = run_cycle(workloads, budget, seed, &mut Tracer::new(false), 0);
        check_cycle(&plain, out);
        let traced = run_cycle(workloads, budget, seed, &mut tracer, cycles * 1000);
        wall_untraced += plain.wall_s;
        wall_traced += traced.wall_s;
        // Four spans per ~0.1 s point cost nothing measurable, so traced
        // points join the latency sample.
        latencies_ms.extend(
            plain
                .points
                .iter()
                .chain(&traced.points)
                .map(|p| p.wall_s * 1e3),
        );
        for point in &traced.points {
            let workload = workloads[point.slot / operating_points().len()];
            gen_s += replay_generation(workload, seed, point);
            ops += point.ops();
        }
        cache_accesses += traced.telemetry.cache_accesses;
        cycles += 1;
        if started.elapsed().as_secs_f64() >= job.seconds || job.smoke {
            break;
        }
    }
    let n = cycles as f64;
    let host_s = tracer.self_seconds(&["sim.engine.warmup", "sim.engine.measure"]) / n;
    let ops_per_cycle = ops as f64 / n;
    out.set(
        "latency.tail_ms",
        percentile(&latencies_ms, TAIL_PERCENTILE),
    );
    out.set("latency.samples", latencies_ms.len() as f64);
    out.detail("tail_percentile", Json::num(TAIL_PERCENTILE));
    out.detail(
        "tail_supported",
        Json::Bool(supports(latencies_ms.len(), TAIL_PERCENTILE)),
    );
    out.set("trace.overhead_ratio", wall_traced / wall_untraced - 1.0);
    out.set("trace.coverage", tracer.self_seconds(&[""]) / wall_traced);
    out.set(
        "sim.engine.build_s",
        tracer.self_seconds(&["sim.engine.build"]) / n,
    );
    out.set("sim.engine.host_s", host_s);
    out.set("sim.engine.ns_per_op", host_s * 1e9 / ops_per_cycle);
    out.set(
        "sim.engine.ns_per_cache_access",
        host_s * 1e9 / (cache_accesses as f64 / n),
    );
    out.set("workloads.gen_s", gen_s / n);
    out.set("workloads.gen_share", gen_s / n / host_s);
    out.set(
        "experiments.calibrate.fit_s",
        tracer.self_seconds(&["experiments.calibrate.fit"]) / n,
    );
    out.detail("cycles", Json::num(n));
    tracer.write(job.kind.name());
}

/// Exact simulated counts of the pinned cycle: they repeat on every run and
/// must stay identical under any change that only speeds the simulator up.
fn set_counts(cycle: &Cycle, out: &mut Outcome) {
    let mut c = CoreCounters::default();
    let mut mem = MemStats::default();
    let (mut bus_capacity_ns, mut cycles) = (0.0, 0.0);
    for p in &cycle.points {
        c.merge(&p.counters);
        mem.reads += p.mem.reads;
        mem.writes += p.mem.writes;
        mem.total_read_latency_ns += p.mem.total_read_latency_ns;
        mem.bus_busy_ns += p.mem.bus_busy_ns;
        bus_capacity_ns += p.sim_ns * f64::from(p.channels);
        cycles += p.counters.busy_ns * p.sample.core_ghz;
    }
    let ratio = |hit: u64, rest: u64| hit as f64 / (hit + rest).max(1) as f64;
    let t = &cycle.telemetry;
    out.set("sim.ops", t.ops as f64);
    out.set("sim.cache.accesses", t.cache_accesses as f64);
    out.set(
        "sim.cache.l1_hit_ratio",
        ratio(c.l1_hits, c.l2_hits + c.llc_hits + c.llc_demand_misses),
    );
    out.set(
        "sim.cache.l2_hit_ratio",
        ratio(c.l2_hits, c.llc_hits + c.llc_demand_misses),
    );
    out.set(
        "sim.cache.llc_hit_ratio",
        ratio(c.llc_hits, c.llc_demand_misses),
    );
    out.set("sim.cache.llc_misses", c.llc_demand_misses as f64);
    out.set("sim.prefetch.fills", t.prefetch_fills as f64);
    out.set("sim.mem.reads", mem.reads as f64);
    out.set("sim.mem.writes", mem.writes as f64);
    out.set("sim.mem.bus_util", mem.bus_busy_ns / bus_capacity_ns);
    out.set("sim.mem.read_latency_ns", mem.avg_read_latency_ns());
    out.set("sim.cpi", cycles / c.instructions as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsense_experiments::calibrate::{calibrate, measure_at};

    #[test]
    fn measure_point_reproduces_calibrate_measure_at() {
        let budget = CalibrationBudget::quick();
        let (memory, ghz) = operating_points()[5];
        for w in [Workload::Povray, Workload::Milc] {
            let ours = measure_point(
                w,
                ghz,
                memory,
                &budget,
                PINNED_STREAM_SEED,
                &mut Tracer::new(false),
                0,
            )
            .expect("point");
            assert_eq!(
                ours.sample,
                measure_at(w, ghz, memory, &budget).expect("library")
            );
        }
    }

    #[test]
    fn pinned_cycle_fits_what_calibrate_fits() {
        let budget = CalibrationBudget::quick();
        let cycle = run_cycle(
            &[Workload::Proximity],
            &budget,
            PINNED_STREAM_SEED,
            &mut Tracer::new(false),
            0,
        );
        let library = calibrate(Workload::Proximity, &budget).expect("library fit");
        assert_eq!(cycle.calibrations, vec![library]);
        assert!(cycle.failures.is_empty());
        // The telemetry registry is process-wide and other tests drop
        // machines concurrently, so the cycle's delta is at least its own.
        assert!(cycle.telemetry.ops >= cycle.points.iter().map(Point::ops).sum());
        let slots: Vec<usize> = cycle.points.iter().map(|p| p.slot).collect();
        assert_eq!(slots, (0..operating_points().len()).collect::<Vec<_>>());
    }

    #[test]
    fn fastest_keeps_each_slots_quickest_repeat() {
        let best = fastest([
            (0, 100, 0.30),
            (1, 200, 0.50),
            (0, 100, 0.20),
            (1, 200, 0.70),
            (0, 100, 0.25),
        ]);
        assert_eq!(best.len(), 2);
        assert_eq!(best[&0], (100, 0.20));
        assert_eq!(best[&1], (200, 0.50));
    }
}

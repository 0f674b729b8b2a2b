//! End-to-end pipeline test: simulate → calibrate → classify → model,
//! crossing every crate boundary the way the `repro` binary does.

use memsense::experiments::calibrate::{calibrate, calibrate_all, CalibrationBudget};
use memsense::experiments::classify::{class_means, clustering_agreement};
use memsense::experiments::validate::validate_calibration;
use memsense::mlc::{composite_queueing_curve, loaded_latency_sweep, MlcConfig};
use memsense::model::solver::{solve_cpi, Regime};
use memsense::model::system::SystemConfig;
use memsense::workloads::{Class, Workload};
use std::sync::OnceLock;

fn cals() -> &'static Vec<memsense::experiments::calibrate::CalibratedWorkload> {
    static CACHE: OnceLock<Vec<memsense::experiments::calibrate::CalibratedWorkload>> =
        OnceLock::new();
    CACHE.get_or_init(|| calibrate_all(&CalibrationBudget::quick()).unwrap())
}

#[test]
fn full_pipeline_reproduces_class_structure() {
    // 1. Calibrate all fourteen workloads on the simulated testbed.
    let calibrations = cals();
    assert_eq!(calibrations.len(), 14);

    // 2. Class means land in the Tab. 6 neighbourhood and in the right order.
    let means = class_means(calibrations).unwrap();
    let get = |c: Class| means.iter().find(|m| m.class == c).unwrap();
    let ent = get(Class::Enterprise);
    let big = get(Class::BigData);
    let hpc = get(Class::Hpc);
    assert!(ent.bf > big.bf && big.bf > hpc.bf, "BF continuum");
    assert!(hpc.mpki > 3.0 * big.mpki, "HPC bandwidth appetite");

    // 3. Unsupervised clustering recovers the segments.
    assert!(clustering_agreement(calibrations).unwrap() > 0.7);

    // 4. Feed the *measured* class means into the analytic model on the
    //    paper baseline: regimes must match Sec. VI.
    let sys = SystemConfig::paper_baseline();
    let curve = {
        // Calibrate queueing from the simulated MLC, exactly as the paper
        // calibrates from the real MLC.
        let sweeps = vec![
            loaded_latency_sweep(&MlcConfig::default()),
            loaded_latency_sweep(&MlcConfig {
                read_fraction: 0.67,
                ..MlcConfig::default()
            }),
        ];
        composite_queueing_curve(&sweeps).unwrap()
    };
    let ent_solved = solve_cpi(&ent.to_params().unwrap(), &sys, &curve).unwrap();
    let hpc_solved = solve_cpi(&hpc.to_params().unwrap(), &sys, &curve).unwrap();
    assert_eq!(ent_solved.regime, Regime::LatencyLimited);
    assert_eq!(hpc_solved.regime, Regime::BandwidthBound);
}

#[test]
fn validation_errors_small_for_big_data() {
    // Tab. 3 discipline applied to every big data workload: the fitted
    // (CPI_cache, BF) pair predicts each sweep point's CPI from counters.
    for c in cals()
        .iter()
        .filter(|c| c.workload.class() == Class::BigData && c.workload != Workload::Proximity)
    {
        let v = validate_calibration(c.clone());
        assert!(
            v.max_abs_error() < 0.08,
            "{}: max error {}",
            c.workload,
            v.max_abs_error()
        );
    }
}

#[test]
fn simulator_and_model_agree_on_measured_operating_point() {
    // Cross-validation: take OLTP's calibrated parameters, ask the analytic
    // model for CPI on the characterization platform, and compare with the
    // CPI the simulator actually measured at the matching sweep point.
    let budget = CalibrationBudget::quick();
    let cal = calibrate(Workload::Oltp, &budget).unwrap();
    let params = cal.to_params().unwrap();

    // The measured 2.7 GHz / DDR3-1867 sample.
    let sample = cal
        .samples
        .iter()
        .find(|s| (s.core_ghz - 2.7).abs() < 1e-9 && s.memory_mts > 1500.0)
        .unwrap();

    // Model side: 4-thread machine, DDR3-1867 at the simulator's measured
    // efficiency, unloaded latency from the memory config.
    let mlc = loaded_latency_sweep(&MlcConfig::default());
    let sys = SystemConfig::new(
        1,
        budget.threads / 2, // 4 threads = 2 "cores" with 2 threads each
        2,
        memsense::model::units::GigaHertz(2.7),
        4,
        1866.7,
        mlc.efficiency(),
        memsense::model::units::Nanoseconds(mlc.unloaded_latency_ns),
    )
    .unwrap();
    let curve = mlc.to_queueing_curve().unwrap();
    let solved = solve_cpi(&params, &sys, &curve).unwrap();

    let measured = sample.measurement.cpi_eff;
    let predicted = solved.cpi_eff;
    assert!(
        (predicted / measured - 1.0).abs() < 0.15,
        "analytic model {predicted} vs simulator {measured}"
    );
}

#[test]
fn numa_model_agrees_with_numa_simulation() {
    // The Sec. VIII multi-socket extension, cross-validated: run JVM on a
    // simulated dual-socket machine with local vs interleaved placement and
    // compare the measured CPI penalty against the analytic NUMA model fed
    // the calibrated parameters.
    use memsense::model::numa::{numa_penalty, NumaConfig};
    use memsense::model::queueing::QueueingCurve;
    use memsense::model::units::Nanoseconds;
    use memsense::sim::config::NumaSimConfig;
    use memsense::sim::{Machine, SimConfig};

    let threads = 4;
    let measure = |numa: NumaSimConfig| {
        let cfg = SimConfig::xeon_like(threads).with_numa(numa);
        let mut m = Machine::new(cfg, Workload::Jvm.streams(threads, 0x9e9e)).unwrap();
        m.run_ops(90_000);
        m.measure_for_ns(120_000.0).unwrap().cpi_eff
    };
    let local = measure(NumaSimConfig::dual_socket(false));
    let interleaved = measure(NumaSimConfig::dual_socket(true));
    let sim_penalty = interleaved / local;

    // Analytic side: calibrated JVM parameters, 50% remote at a 60 ns
    // round-trip hop on a two-socket platform.
    let cal = calibrate(Workload::Jvm, &CalibrationBudget::quick()).unwrap();
    let params = cal.to_params().unwrap();
    let sys = memsense::model::system::SystemConfig::characterization_platform();
    let curve = QueueingCurve::composite_default();
    let model_penalty = numa_penalty(
        &params,
        &sys,
        &curve,
        &NumaConfig::new(0.5, Nanoseconds(60.0)).unwrap(),
    )
    .unwrap();

    assert!(sim_penalty > 1.01, "simulated NUMA penalty {sim_penalty}");
    assert!(
        (sim_penalty - model_penalty).abs() < 0.08,
        "simulated {sim_penalty} vs modeled {model_penalty}"
    );
}

#[test]
fn phase_weighted_model_predicts_multiphase_job() {
    // Sec. IV.D end to end: characterize each phase of a two-phase
    // Spark-like job separately, combine by instruction weight, and compare
    // against the CPI measured when the *whole job* runs on the testbed.
    use memsense::model::phases::{solve_phased, PhasedWorkload};
    use memsense::model::queueing::QueueingCurve;
    use memsense::model::units::{GigaHertz, Nanoseconds};
    use memsense::model::workload::{Segment, WorkloadParams};
    use memsense::sim::{Machine, SimConfig};
    use memsense::workloads::mix::MixWorkload;
    use memsense::workloads::multiphase::spark_job;

    let threads = 4u32;
    let measure = |streams: Vec<memsense::sim::trace::BoxedStream>| {
        let cfg = SimConfig::xeon_like(threads);
        let mut m = Machine::new(cfg, streams).unwrap();
        m.run_ops(150_000);
        m.measure_for_ns(200_000.0).unwrap()
    };

    // Whole job.
    let whole = measure(
        (0..threads)
            .map(|t| Box::new(spark_job(42 + t as u64)) as memsense::sim::trace::BoxedStream)
            .collect(),
    );

    // Per-phase characterization at the same operating point.
    let job = spark_job(42);
    let weights = job.weights();
    let phase_measurements: Vec<_> = job
        .phase_specs()
        .into_iter()
        .map(|spec| {
            measure(
                (0..threads)
                    .map(|t| {
                        Box::new(MixWorkload::new(spec.clone(), 42 + t as u64))
                            as memsense::sim::trace::BoxedStream
                    })
                    .collect(),
            )
        })
        .collect();

    // The instruction-weighted combination of the per-phase CPIs must
    // reproduce the whole-job CPI (the paper's Sec. IV.D claim).
    let total_w: f64 = weights.iter().sum();
    let predicted: f64 = phase_measurements
        .iter()
        .zip(&weights)
        .map(|(m, w)| m.cpi_eff * w / total_w)
        .sum();
    assert!(
        (predicted / whole.cpi_eff - 1.0).abs() < 0.12,
        "phase-weighted {predicted} vs whole-job {}",
        whole.cpi_eff
    );

    // And the analytic phased solver agrees with its collapsed
    // approximation within 10% for a synthetic two-phase class.
    let shuffle = WorkloadParams::new("shuffle", Segment::BigData, 0.85, 0.30, 9.0, 0.8).unwrap();
    let map = WorkloadParams::new("map", Segment::BigData, 1.0, 0.10, 1.5, 0.3).unwrap();
    let phased = PhasedWorkload::new("job", vec![(shuffle, 1.0), (map, 3.0)]).unwrap();
    let sys = memsense::model::system::SystemConfig::new(
        1,
        8,
        2,
        GigaHertz(2.7),
        4,
        1866.7,
        0.7,
        Nanoseconds(75.0),
    )
    .unwrap();
    let solved = solve_phased(&phased, &sys, &QueueingCurve::composite_default()).unwrap();
    assert!(solved.collapse_error().abs() < 0.10);
}

#[test]
fn colocation_model_agrees_with_mixed_simulation() {
    // Noisy-neighbour cross-validation: run 4 OLTP threads alone, then
    // alongside 4 bwaves threads, on the simulated testbed; compare the
    // measured interference with the shared-queueing colocation model fed
    // the calibrated parameters.
    use memsense::model::colocation::{solve_colocated, Tenant};
    use memsense::model::queueing::QueueingCurve;
    use memsense::sim::{Machine, SimConfig};

    let oltp_threads = 4u32;
    let budget = CalibrationBudget::quick();

    // Simulator: OLTP alone (4 threads on a 4-thread machine).
    let alone = {
        let cfg = SimConfig::xeon_like(oltp_threads);
        let mut m = Machine::new(cfg, Workload::Oltp.streams(oltp_threads, 0xc0)).unwrap();
        m.run_ops(90_000);
        // Per-thread CPI of the OLTP threads only.
        m.measure_for_ns(150_000.0).unwrap().cpi_eff
    };

    // Simulator: OLTP + bwaves co-located on an 8-thread machine.
    let mixed = {
        let cfg = SimConfig::xeon_like(8);
        let mut streams = Workload::Oltp.streams(oltp_threads, 0xc0);
        streams.extend(Workload::Bwaves.streams(4, 0xb1));
        let mut m = Machine::new(cfg, streams).unwrap();
        m.run_ops(90_000);
        let before: Vec<_> = m.core_counters();
        m.run_until_ns(m.now_ns() + 150_000.0);
        let after: Vec<_> = m.core_counters();
        // OLTP threads are indices 0..4.
        let mut cpi_sum = 0.0;
        for i in 0..oltp_threads as usize {
            let d = after[i].delta(&before[i]);
            cpi_sum += d.busy_ns * m.config().core_clock_ghz / d.instructions as f64;
        }
        cpi_sum / oltp_threads as f64
    };
    let sim_interference = mixed / alone;

    // Model side with calibrated parameters.
    let oltp = calibrate(Workload::Oltp, &budget)
        .unwrap()
        .to_params()
        .unwrap();
    let bwaves = calibrate(Workload::Bwaves, &budget)
        .unwrap()
        .to_params()
        .unwrap();
    let sys = memsense::model::system::SystemConfig::new(
        1,
        4,
        2,
        memsense::model::units::GigaHertz(2.7),
        4,
        1866.7,
        0.63, // simulator-measured efficiency
        memsense::model::units::Nanoseconds(74.5),
    )
    .unwrap();
    let curve = QueueingCurve::composite_default();
    let solved = solve_colocated(
        &[
            Tenant {
                workload: oltp,
                threads: oltp_threads,
            },
            Tenant {
                workload: bwaves,
                threads: 4,
            },
        ],
        &sys,
        &curve,
    )
    .unwrap();
    let model_interference = solved.tenants[0].interference;

    assert!(
        sim_interference > 1.02,
        "bwaves neighbours must slow OLTP: {sim_interference}"
    );
    assert!(
        model_interference > 1.02,
        "model predicts interference in the right direction: {model_interference}"
    );
    // Documented limitation (EXPERIMENTS.md): an average-utilization
    // queueing curve underestimates interference from *bursty* neighbours —
    // the simulator's prefetch bursts queue worse than smooth MLC traffic.
    // The model must be directionally right but is expected to undershoot.
    assert!(
        model_interference < sim_interference + 0.05,
        "model should not overshoot: {model_interference} vs {sim_interference}"
    );
    assert!(
        sim_interference / model_interference < 2.0,
        "within 2x of the simulated penalty: {sim_interference} vs {model_interference}"
    );
}

#[test]
fn prefetch_ablation_consistent_with_paper_section_7() {
    // "an improved prefetching technique will increase memory-level
    //  parallelism and will lower the blocking factor" — run in reverse.
    let budget = CalibrationBudget::quick();
    let on = calibrate(Workload::Wrf, &budget).unwrap();
    let ab = memsense::experiments::ablation::prefetch_ablation(&on, &budget).unwrap();
    assert!(
        ab.bf_prefetch_off > ab.bf_prefetch_on,
        "disabling the prefetcher must raise BF: {} -> {}",
        ab.bf_prefetch_on,
        ab.bf_prefetch_off
    );
}

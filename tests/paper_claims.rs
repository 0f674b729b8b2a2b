//! Integration tests asserting the paper's headline quantitative claims,
//! using the published Tab. 6 class constants through the analytic model —
//! the same path the paper's Sec. VI takes.

use memsense::model::queueing::QueueingCurve;
use memsense::model::sensitivity::{
    bandwidth_sweep, default_bandwidth_deltas, default_latency_steps, equivalence,
    latency_derivative, latency_sweep,
};
use memsense::model::solver::{solve_cpi, Regime};
use memsense::model::system::SystemConfig;
use memsense::model::units::{Cycles, GigaHertz, Nanoseconds};
use memsense::model::workload::WorkloadParams;

fn setup() -> (SystemConfig, QueueingCurve) {
    (
        SystemConfig::paper_baseline(),
        QueueingCurve::composite_default(),
    )
}

#[test]
fn tab3_computed_cpi_matches_paper_within_rounding() {
    // The eight (MPI, MP) columns of Tab. 3 and the paper's computed CPI.
    let rows = [
        (0.0056, 402.0, 1.33),
        (0.0056, 462.0, 1.39),
        (0.0059, 543.0, 1.52),
        (0.0057, 631.0, 1.60),
        (0.0056, 383.0, 1.31),
        (0.0056, 448.0, 1.38),
        (0.0055, 502.0, 1.43),
        (0.0055, 598.0, 1.53),
    ];
    for (mpi, mp, expected) in rows {
        let got = memsense::model::cpi::effective_cpi_raw(0.89, mpi, Cycles(mp), 0.20);
        assert!((got - expected).abs() < 0.02, "{got} vs {expected}");
    }
}

#[test]
fn baseline_regimes_match_section_6() {
    let (sys, curve) = setup();
    let ent = solve_cpi(&WorkloadParams::enterprise_class(), &sys, &curve).unwrap();
    let big = solve_cpi(&WorkloadParams::big_data_class(), &sys, &curve).unwrap();
    let hpc = solve_cpi(&WorkloadParams::hpc_class(), &sys, &curve).unwrap();
    assert_eq!(ent.regime, Regime::LatencyLimited);
    assert_eq!(big.regime, Regime::LatencyLimited);
    assert_eq!(hpc.regime, Regime::BandwidthBound);
    // Fig. 6 continuum: enterprise lowest utilization, HPC saturating.
    assert!(ent.utilization < big.utilization);
    assert!(big.utilization < hpc.utilization);
}

#[test]
fn fig8_bandwidth_impact_ordering() {
    let (sys, curve) = setup();
    let deltas = default_bandwidth_deltas();
    let at_worst = |w: &WorkloadParams| {
        bandwidth_sweep(w, &sys, &curve, &deltas)
            .unwrap()
            .last()
            .unwrap()
            .cpi_increase_pct()
    };
    let ent = at_worst(&WorkloadParams::enterprise_class());
    let big = at_worst(&WorkloadParams::big_data_class());
    let hpc = at_worst(&WorkloadParams::hpc_class());
    assert!(hpc > big && big > ent, "HPC {hpc} > big {big} > ent {ent}");
    // HPC is bandwidth bound at every baseline-or-below point.
    for p in bandwidth_sweep(&WorkloadParams::hpc_class(), &sys, &curve, &deltas).unwrap() {
        assert_eq!(
            p.solved.regime,
            Regime::BandwidthBound,
            "HPC at {}",
            p.delta
        );
    }
    // "the HPC class shows the most impact, while the enterprise class
    //  shows the least" — and the impact is dramatic for HPC.
    assert!(
        hpc > 100.0,
        "HPC CPI more than doubles at −3.5 GB/s/core: {hpc}"
    );
    assert!(ent < 10.0, "enterprise suffers modestly: {ent}");
}

#[test]
fn big_data_knee_at_2_5_gbps_per_core() {
    // "Big data can tolerate some bandwidth reduction, but does show
    //  significant impact when peak bandwidth is reduced by more than
    //  2.5 GB/s per core vs. our baseline."
    let (sys, curve) = setup();
    let sweep = bandwidth_sweep(
        &WorkloadParams::big_data_class(),
        &sys,
        &curve,
        &default_bandwidth_deltas(),
    )
    .unwrap();
    for p in &sweep {
        if p.delta >= -2.0 {
            assert!(
                p.cpi_increase_pct() < 8.0,
                "tolerates {} GB/s/core cut: {}%",
                p.delta,
                p.cpi_increase_pct()
            );
        }
        if p.delta <= -3.0 {
            assert_eq!(
                p.solved.regime,
                Regime::BandwidthBound,
                "past the knee at {}",
                p.delta
            );
        }
    }
}

#[test]
fn fig11_per_10ns_magnitudes() {
    // "enterprise … approximately 3.5% CPI increase for every 10 ns …
    //  big data … about 2.5%" — HPC shows none.
    let (sys, curve) = setup();
    let steps = default_latency_steps();
    let avg = |w: &WorkloadParams| {
        let sweep = latency_sweep(w, &sys, &curve, &steps).unwrap();
        let d = latency_derivative(&sweep).unwrap();
        d.iter().map(|p| p.pct_per_unit).sum::<f64>() / d.len() as f64
    };
    let ent = avg(&WorkloadParams::enterprise_class());
    let big = avg(&WorkloadParams::big_data_class());
    let hpc = avg(&WorkloadParams::hpc_class());
    assert!((ent - 3.5).abs() < 0.8, "enterprise {ent}%/10ns");
    assert!((big - 2.5).abs() < 0.8, "big data {big}%/10ns");
    assert!(hpc.abs() < 1e-9, "HPC {hpc}%/10ns");
}

#[test]
fn tab7_equivalences() {
    let (sys, curve) = setup();
    let ent = equivalence(&WorkloadParams::enterprise_class(), &sys, &curve).unwrap();
    let big = equivalence(&WorkloadParams::big_data_class(), &sys, &curve).unwrap();
    let hpc = equivalence(&WorkloadParams::hpc_class(), &sys, &curve).unwrap();

    // Paper: 10 ns ≈ 39.7 GB/s (enterprise) and 27.1 GB/s (big data).
    let ent_bw = ent.bandwidth_equivalent_of_10ns.unwrap();
    let big_bw = big.bandwidth_equivalent_of_10ns.unwrap();
    assert!(
        (ent_bw - 39.7).abs() < 12.0,
        "enterprise {ent_bw} GB/s vs 39.7"
    );
    assert!(
        (big_bw - 27.1).abs() < 14.0,
        "big data {big_bw} GB/s vs 27.1"
    );
    assert!(ent_bw > big_bw);
    // Paper: 8 GB/s/socket ≈ 2.0 ns (enterprise), 2.9 ns (big data).
    let ent_ns = ent.latency_equivalent_of_bandwidth.unwrap();
    let big_ns = big.latency_equivalent_of_bandwidth.unwrap();
    assert!((ent_ns - 2.0).abs() < 1.5, "enterprise {ent_ns} ns vs 2.0");
    assert!((big_ns - 2.9).abs() < 2.0, "big data {big_ns} ns vs 2.9");
    assert!(big_ns > ent_ns);
    // Paper: HPC ~24% from bandwidth, nothing from latency; "no amount of
    // latency reduction can compensate for bandwidth constraints".
    assert!((hpc.benefit_of_bandwidth_pct - 24.0).abs() < 4.0);
    assert_eq!(hpc.bandwidth_equivalent_of_10ns, Some(0.0));
    assert_eq!(hpc.latency_equivalent_of_bandwidth, None);
}

#[test]
fn frequency_scaling_direction() {
    // Faster cores see a larger cycle-denominated miss penalty: CPI rises,
    // even though wall-clock performance improves (Sec. V.A).
    let (sys, curve) = setup();
    let w = WorkloadParams::structured_data();
    let mut last_cpi = 0.0;
    let mut last_perf = f64::INFINITY;
    for ghz in [2.1, 2.4, 2.7, 3.1] {
        let s = solve_cpi(
            &w,
            &sys.clone().with_core_clock(GigaHertz(ghz)).unwrap(),
            &curve,
        )
        .unwrap();
        assert!(s.cpi_eff > last_cpi, "CPI rises with clock");
        let time_per_instr = s.cpi_eff / ghz;
        assert!(time_per_instr < last_perf, "wall-clock still improves");
        last_cpi = s.cpi_eff;
        last_perf = time_per_instr;
    }
}

#[test]
fn hierarchical_model_reduces_to_flat() {
    use memsense::model::hierarchy::{hierarchical_cpi, TieredMemory};
    let w = WorkloadParams::big_data_class();
    let clock = GigaHertz(2.7);
    let flat = TieredMemory::flat(Nanoseconds(75.0)).unwrap();
    let split = TieredMemory::two_tier(0.5, Nanoseconds(75.0), Nanoseconds(75.0)).unwrap();
    assert!(
        (hierarchical_cpi(&w, &flat, clock) - hierarchical_cpi(&w, &split, clock)).abs() < 1e-12,
        "equal tiers collapse to flat"
    );
}

//! Coupled CPI / bandwidth / queueing solver (paper Sec. VI.C.1).
//!
//! Eq. 1 needs the loaded miss penalty; the miss penalty depends on queueing
//! delay; queueing delay depends on bandwidth utilization; and utilization
//! depends (through Eq. 4) on the CPI that Eq. 1 produces. The paper resolves
//! this circularity with "an iterative calculation to find a stable solution
//! for queuing delay vs. bandwidth demand" — this module implements that
//! fixed point, plus the bandwidth-bound fallback when no stable solution
//! exists below the maximum stable utilization.

use crate::bandwidth;
use crate::cpi;
use crate::queueing::QueueingCurve;
use crate::system::SystemConfig;
use crate::units::{Cycles, GigabytesPerSecond, Nanoseconds};
use crate::workload::WorkloadParams;
use crate::ModelError;

/// Which constraint determines the workload's performance on this system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Memory stalls contribute less than ~2% on top of `CPI_cache`; the
    /// workload shows essentially no sensitivity to the memory subsystem
    /// (the proximity-search case the paper excludes from Tab. 6).
    CoreBound,
    /// A stable solution exists below the maximum stable utilization; CPI is
    /// set by Eq. 1 at the loaded latency (compulsory + queueing delay).
    LatencyLimited,
    /// Demand exceeds what the channels can deliver; CPI is set by Eq. 4
    /// solved with `BW` equal to the available bandwidth.
    BandwidthBound,
}

impl core::fmt::Display for Regime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Regime::CoreBound => write!(f, "core bound"),
            Regime::LatencyLimited => write!(f, "latency limited"),
            Regime::BandwidthBound => write!(f, "bandwidth bound"),
        }
    }
}

impl Regime {
    /// Stable machine-readable token (snake_case), for wire formats that
    /// should not depend on the human-facing [`Display`](core::fmt::Display)
    /// text.
    pub fn token(&self) -> &'static str {
        match self {
            Regime::CoreBound => "core_bound",
            Regime::LatencyLimited => "latency_limited",
            Regime::BandwidthBound => "bandwidth_bound",
        }
    }
}

/// The converged operating point for a workload on a system.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedCpi {
    /// Effective cycles per instruction.
    pub cpi_eff: f64,
    /// Loaded miss penalty (compulsory + queueing) in wall-clock terms.
    pub miss_penalty: Nanoseconds,
    /// Loaded miss penalty in core cycles (what Eq. 1 consumed).
    pub miss_penalty_cycles: Cycles,
    /// Queueing-delay component of the miss penalty.
    pub queueing_delay: Nanoseconds,
    /// System-wide bandwidth demand at the converged CPI.
    pub bandwidth_demand: GigabytesPerSecond,
    /// Demand as a fraction of effective bandwidth.
    pub utilization: f64,
    /// Constraint that set the CPI.
    pub regime: Regime,
    /// Fixed-point iterations performed.
    pub iterations: usize,
}

impl SolvedCpi {
    /// Decomposes the CPI into the Emma-style stack the paper builds on:
    /// infinite-cache CPI + compulsory-latency stall + queueing stall
    /// (+ bandwidth-wall residual when the Eq. 4 ceiling binds).
    pub fn cpi_stack(&self, workload: &WorkloadParams, system: &SystemConfig) -> CpiStack {
        let clock = system.core_clock();
        let compulsory =
            cpi::memory_cpi_component(workload, system.unloaded_latency().to_cycles(clock));
        let queueing = cpi::memory_cpi_component(workload, self.queueing_delay.to_cycles(clock));
        let explained = workload.cpi_cache + compulsory + queueing;
        CpiStack {
            cpi_cache: workload.cpi_cache,
            compulsory_stall: compulsory,
            queueing_stall: queueing,
            bandwidth_residual: (self.cpi_eff - explained).max(0.0),
        }
    }
}

/// A CPI breakdown (see [`SolvedCpi::cpi_stack`]). Components sum to the
/// effective CPI (up to the clamped bandwidth residual).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiStack {
    /// Infinite-cache CPI.
    pub cpi_cache: f64,
    /// Stall CPI attributable to the compulsory memory latency.
    pub compulsory_stall: f64,
    /// Stall CPI attributable to queueing delay.
    pub queueing_stall: f64,
    /// CPI beyond the latency-limited model when the workload is pinned to
    /// the bandwidth ceiling (zero for latency-limited workloads).
    pub bandwidth_residual: f64,
}

impl CpiStack {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.cpi_cache + self.compulsory_stall + self.queueing_stall + self.bandwidth_residual
    }

    /// Fraction of CPI spent stalled on memory (everything but `cpi_cache`).
    /// An all-zero stack has no memory component, so the fraction is 0.
    pub fn memory_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            1.0 - self.cpi_cache / total
        }
    }
}

impl core::fmt::Display for CpiStack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "core {:.3} + compulsory {:.3} + queueing {:.3} + bw-wall {:.3} = {:.3}",
            self.cpi_cache,
            self.compulsory_stall,
            self.queueing_stall,
            self.bandwidth_residual,
            self.total()
        )
    }
}

/// Process-wide solver telemetry: counts of solves, fixed-point iterations,
/// and regime outcomes, accumulated across threads with relaxed atomics.
///
/// The experiment executor snapshots these around each pipeline stage to
/// build its run report; nothing in the model reads them. Counters are
/// cumulative — take [`telemetry::snapshot`] deltas to scope a window.
pub mod telemetry {
    use super::Regime;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SOLVES: AtomicU64 = AtomicU64::new(0);
    static ITERATIONS: AtomicU64 = AtomicU64::new(0);
    static CORE_BOUND: AtomicU64 = AtomicU64::new(0);
    static LATENCY_LIMITED: AtomicU64 = AtomicU64::new(0);
    static BANDWIDTH_BOUND: AtomicU64 = AtomicU64::new(0);

    /// A point-in-time copy of the cumulative solver counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SolverStats {
        /// Completed `solve_cpi` calls.
        pub solves: u64,
        /// Total bisection iterations across all solves.
        pub iterations: u64,
        /// Solves that classified the workload core bound.
        pub core_bound: u64,
        /// Solves that classified the workload latency limited.
        pub latency_limited: u64,
        /// Solves that classified the workload bandwidth bound.
        pub bandwidth_bound: u64,
    }

    impl SolverStats {
        /// Counter-wise difference `self − earlier` (saturating).
        pub fn since(&self, earlier: &SolverStats) -> SolverStats {
            SolverStats {
                solves: self.solves.saturating_sub(earlier.solves),
                iterations: self.iterations.saturating_sub(earlier.iterations),
                core_bound: self.core_bound.saturating_sub(earlier.core_bound),
                latency_limited: self.latency_limited.saturating_sub(earlier.latency_limited),
                bandwidth_bound: self.bandwidth_bound.saturating_sub(earlier.bandwidth_bound),
            }
        }
    }

    /// Reads the cumulative counters.
    pub fn snapshot() -> SolverStats {
        SolverStats {
            solves: SOLVES.load(Ordering::Relaxed),
            iterations: ITERATIONS.load(Ordering::Relaxed),
            core_bound: CORE_BOUND.load(Ordering::Relaxed),
            latency_limited: LATENCY_LIMITED.load(Ordering::Relaxed),
            bandwidth_bound: BANDWIDTH_BOUND.load(Ordering::Relaxed),
        }
    }

    pub(super) fn record(iterations: usize, regime: Regime) {
        SOLVES.fetch_add(1, Ordering::Relaxed);
        ITERATIONS.fetch_add(iterations as u64, Ordering::Relaxed);
        let counter = match regime {
            Regime::CoreBound => &CORE_BOUND,
            Regime::LatencyLimited => &LATENCY_LIMITED,
            Regime::BandwidthBound => &BANDWIDTH_BOUND,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Memory-CPI share below which a workload is tagged [`Regime::CoreBound`].
const CORE_BOUND_THRESHOLD: f64 = 0.02;

const MAX_ITERATIONS: usize = 10_000;
const TOLERANCE_NS: f64 = 1e-9;

/// Solves for the stable CPI of `workload` on `system` with queueing
/// behaviour `curve`.
///
/// The fixed point iterates `MP ← unloaded + Q(util(CPI(MP)))` with damping.
/// If the iteration settles above the curve's maximum stable utilization, the
/// system is bandwidth bound and CPI comes from Eq. 4 with `BW` set to the
/// available bandwidth (clamped from below by Eq. 1 at the maximum stable
/// loaded latency, which dominates only in pathological configurations).
///
/// # Errors
///
/// Returns [`ModelError::DidNotConverge`] if the damped iteration fails to
/// settle (not observed for monotone queueing curves; defensive).
///
/// # Examples
///
/// ```
/// use memsense_model::queueing::QueueingCurve;
/// use memsense_model::solver::{solve_cpi, Regime};
/// use memsense_model::system::SystemConfig;
/// use memsense_model::workload::WorkloadParams;
///
/// let curve = QueueingCurve::composite_default();
/// let sys = SystemConfig::paper_baseline();
///
/// let ent = solve_cpi(&WorkloadParams::enterprise_class(), &sys, &curve).unwrap();
/// assert_eq!(ent.regime, Regime::LatencyLimited);
///
/// let hpc = solve_cpi(&WorkloadParams::hpc_class(), &sys, &curve).unwrap();
/// assert_eq!(hpc.regime, Regime::BandwidthBound);
/// ```
pub fn solve_cpi(
    workload: &WorkloadParams,
    system: &SystemConfig,
    curve: &QueueingCurve,
) -> Result<SolvedCpi, ModelError> {
    let clock = system.core_clock();
    let threads = system.hardware_threads();
    let available = system.effective_bandwidth();
    let unloaded = system.unloaded_latency();
    let max_util = curve.max_stable_utilization();

    // The residual g(mp) = unloaded + Q(util(CPI(mp))) − mp is strictly
    // decreasing in mp (a longer miss penalty raises CPI, which lowers
    // bandwidth demand, utilization, and queueing delay), so the fixed point
    // is unique and bisection over [unloaded, unloaded + Q_max] always
    // converges — including for the near-vertical measured curves the MLC
    // calibration can produce, where damped iteration oscillates.
    let residual = |mp_ns: f64| -> f64 {
        let cpi = cpi::effective_cpi(workload, Nanoseconds(mp_ns).to_cycles(clock));
        let util = bandwidth::utilization(workload, cpi, clock, threads, available);
        unloaded.value() + curve.delay(util).value() - mp_ns
    };
    let mut lo = unloaded.value();
    let mut hi = unloaded.value() + curve.max_stable_delay().value().max(1.0);
    let mut iterations = 0;
    if residual(lo) <= 0.0 {
        // No queueing at all; the fixed point is the unloaded latency.
        hi = lo;
    } else {
        while hi - lo > TOLERANCE_NS {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(ModelError::DidNotConverge {
                    iterations: MAX_ITERATIONS,
                });
            }
            let mid = 0.5 * (lo + hi);
            if residual(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    let mp_ns = 0.5 * (lo + hi);

    let latency_limited_cpi = cpi::effective_cpi(workload, Nanoseconds(mp_ns).to_cycles(clock));
    let util_at_fixed_point =
        bandwidth::utilization(workload, latency_limited_cpi, clock, threads, available);

    if util_at_fixed_point > max_util {
        // Bandwidth bound: Eq. 4 solved for CPI with BW = available. The
        // loaded latency saturates at compulsory + maximum stable queueing
        // delay (paper Sec. VI.C.3: "the loaded latency is the compulsory
        // latency plus the maximum stable queuing delay from Fig. 7").
        let mp = Nanoseconds(unloaded.value() + curve.max_stable_delay().value());
        let bw_cpi = bandwidth::bandwidth_limited_cpi(workload, available, clock, threads)?;
        let lat_cpi = cpi::effective_cpi(workload, mp.to_cycles(clock));
        let cpi_eff = bw_cpi.max(lat_cpi);
        let demand = bandwidth::demand_system(workload, cpi_eff, clock, threads);
        telemetry::record(iterations, Regime::BandwidthBound);
        return Ok(SolvedCpi {
            cpi_eff,
            miss_penalty: mp,
            miss_penalty_cycles: mp.to_cycles(clock),
            queueing_delay: curve.max_stable_delay(),
            bandwidth_demand: demand,
            utilization: demand.value() / available.value(),
            regime: Regime::BandwidthBound,
            iterations,
        });
    }

    let mp = Nanoseconds(mp_ns);
    let memory_share = cpi::memory_cpi_component(workload, mp.to_cycles(clock))
        / latency_limited_cpi.max(f64::MIN_POSITIVE);
    let regime = if memory_share < CORE_BOUND_THRESHOLD {
        Regime::CoreBound
    } else {
        Regime::LatencyLimited
    };
    let demand = bandwidth::demand_system(workload, latency_limited_cpi, clock, threads);
    telemetry::record(iterations, regime);
    Ok(SolvedCpi {
        cpi_eff: latency_limited_cpi,
        miss_penalty: mp,
        miss_penalty_cycles: mp.to_cycles(clock),
        queueing_delay: mp - unloaded,
        bandwidth_demand: demand,
        utilization: util_at_fixed_point,
        regime,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Segment;

    fn curve() -> QueueingCurve {
        QueueingCurve::composite_default()
    }

    #[test]
    fn enterprise_is_latency_limited_at_baseline() {
        let s = solve_cpi(
            &WorkloadParams::enterprise_class(),
            &SystemConfig::paper_baseline(),
            &curve(),
        )
        .unwrap();
        assert_eq!(s.regime, Regime::LatencyLimited);
        // CPI_cache 1.47 + 0.0067 × (75+q)·2.7 × 0.41 ≈ 2.03–2.08
        assert!((s.cpi_eff - 2.05).abs() < 0.1, "cpi = {}", s.cpi_eff);
        assert!(s.utilization < 0.45, "util = {}", s.utilization);
        assert!(s.queueing_delay.value() < 12.0);
    }

    #[test]
    fn big_data_is_latency_limited_with_moderate_utilization() {
        let s = solve_cpi(
            &WorkloadParams::big_data_class(),
            &SystemConfig::paper_baseline(),
            &curve(),
        )
        .unwrap();
        assert_eq!(s.regime, Regime::LatencyLimited);
        assert!(
            s.utilization > 0.4 && s.utilization < 0.8,
            "util = {}",
            s.utilization
        );
        assert!(
            s.queueing_delay.value() > 1.0,
            "big data sees some queueing"
        );
    }

    #[test]
    fn hpc_is_bandwidth_bound_at_baseline() {
        let s = solve_cpi(
            &WorkloadParams::hpc_class(),
            &SystemConfig::paper_baseline(),
            &curve(),
        )
        .unwrap();
        assert_eq!(s.regime, Regime::BandwidthBound);
        // Demand equals supply at the bandwidth-limited CPI.
        assert!((s.utilization - 1.0).abs() < 1e-9);
        assert!(s.cpi_eff > 2.0, "cpi = {}", s.cpi_eff);
    }

    #[test]
    fn proximity_is_core_bound() {
        let s = solve_cpi(
            &WorkloadParams::proximity(),
            &SystemConfig::paper_baseline(),
            &curve(),
        )
        .unwrap();
        assert_eq!(s.regime, Regime::CoreBound);
        assert!((s.cpi_eff - 0.93).abs() < 0.02);
    }

    #[test]
    fn more_bandwidth_helps_hpc() {
        let base = SystemConfig::paper_baseline();
        let wide = base.clone().with_channels(8).unwrap();
        let w = WorkloadParams::hpc_class();
        let s0 = solve_cpi(&w, &base, &curve()).unwrap();
        let s1 = solve_cpi(&w, &wide, &curve()).unwrap();
        assert!(s1.cpi_eff < s0.cpi_eff);
        assert!(s0.cpi_eff / s1.cpi_eff > 1.5);
    }

    #[test]
    fn lower_latency_helps_enterprise_not_hpc() {
        let base = SystemConfig::paper_baseline();
        let fast = base
            .clone()
            .with_unloaded_latency(Nanoseconds(45.0))
            .unwrap();
        let c = curve();
        let ent = WorkloadParams::enterprise_class();
        let hpc = WorkloadParams::hpc_class();
        let e0 = solve_cpi(&ent, &base, &c).unwrap();
        let e1 = solve_cpi(&ent, &fast, &c).unwrap();
        assert!(e1.cpi_eff < e0.cpi_eff - 0.05);
        let h0 = solve_cpi(&hpc, &base, &c).unwrap();
        let h1 = solve_cpi(&hpc, &fast, &c).unwrap();
        assert!(
            (h1.cpi_eff - h0.cpi_eff).abs() < 1e-9,
            "HPC stays bandwidth bound"
        );
    }

    #[test]
    fn frequency_scaling_raises_cpi() {
        // Faster cores make memory *relatively* slower: CPI_eff grows with
        // clock even though wall-clock performance improves (Sec. V.A).
        let c = curve();
        let w = WorkloadParams::structured_data();
        let mut last = 0.0;
        for ghz in [2.1, 2.4, 2.7, 3.1] {
            let sys = SystemConfig::paper_baseline()
                .with_core_clock(crate::units::GigaHertz(ghz))
                .unwrap();
            let s = solve_cpi(&w, &sys, &c).unwrap();
            assert!(s.cpi_eff > last, "CPI must rise with frequency");
            last = s.cpi_eff;
        }
    }

    #[test]
    fn fixed_point_self_consistent() {
        // At the solution, recomputing the chain MP → CPI → util → Q → MP
        // reproduces the same MP.
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        let w = WorkloadParams::big_data_class();
        let s = solve_cpi(&w, &sys, &c).unwrap();
        let cpi = cpi::effective_cpi(&w, s.miss_penalty.to_cycles(sys.core_clock()));
        assert!((cpi - s.cpi_eff).abs() < 1e-9);
        let util = bandwidth::utilization(
            &w,
            cpi,
            sys.core_clock(),
            sys.hardware_threads(),
            sys.effective_bandwidth(),
        );
        let q = c.delay(util).value();
        assert!((sys.unloaded_latency().value() + q - s.miss_penalty.value()).abs() < 1e-6);
    }

    #[test]
    fn zero_mpki_workload_core_bound_and_stable() {
        let w = WorkloadParams::new("noram", Segment::Hpc, 1.0, 0.5, 0.0, 0.0).unwrap();
        let s = solve_cpi(&w, &SystemConfig::paper_baseline(), &curve()).unwrap();
        assert_eq!(s.regime, Regime::CoreBound);
        assert_eq!(s.cpi_eff, 1.0);
        assert_eq!(s.bandwidth_demand.value(), 0.0);
    }

    #[test]
    fn cpi_stack_sums_to_cpi() {
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        for w in [
            WorkloadParams::enterprise_class(),
            WorkloadParams::big_data_class(),
            WorkloadParams::hpc_class(),
        ] {
            let s = solve_cpi(&w, &sys, &c).unwrap();
            let stack = s.cpi_stack(&w, &sys);
            assert!(
                (stack.total() - s.cpi_eff).abs() < 1e-9,
                "{}: stack {} vs cpi {}",
                w.name,
                stack.total(),
                s.cpi_eff
            );
            assert!(stack.memory_fraction() > 0.0 && stack.memory_fraction() < 1.0);
        }
    }

    #[test]
    fn hpc_stack_has_bandwidth_residual() {
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        let w = WorkloadParams::hpc_class();
        let s = solve_cpi(&w, &sys, &c).unwrap();
        let stack = s.cpi_stack(&w, &sys);
        assert!(stack.bandwidth_residual > 0.1, "{stack}");
        // Latency-limited classes have none.
        let e = WorkloadParams::enterprise_class();
        let se = solve_cpi(&e, &sys, &c).unwrap();
        assert_eq!(se.cpi_stack(&e, &sys).bandwidth_residual, 0.0);
    }

    #[test]
    fn cpi_stack_display() {
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        let w = WorkloadParams::big_data_class();
        let s = solve_cpi(&w, &sys, &c).unwrap();
        let text = s.cpi_stack(&w, &sys).to_string();
        assert!(text.contains("compulsory") && text.contains("queueing"));
    }

    #[test]
    fn memory_fraction_zero_stack_is_zero_not_nan() {
        let stack = CpiStack {
            cpi_cache: 0.0,
            compulsory_stall: 0.0,
            queueing_stall: 0.0,
            bandwidth_residual: 0.0,
        };
        assert_eq!(stack.total(), 0.0);
        let frac = stack.memory_fraction();
        assert!(!frac.is_nan(), "all-zero stack must not be NaN");
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn memory_fraction_pure_core_stack_is_zero() {
        let stack = CpiStack {
            cpi_cache: 1.5,
            compulsory_stall: 0.0,
            queueing_stall: 0.0,
            bandwidth_residual: 0.0,
        };
        assert_eq!(stack.memory_fraction(), 0.0);
    }

    #[test]
    fn telemetry_counts_solves_and_regimes() {
        let before = telemetry::snapshot();
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        solve_cpi(&WorkloadParams::enterprise_class(), &sys, &c).unwrap();
        solve_cpi(&WorkloadParams::hpc_class(), &sys, &c).unwrap();
        let delta = telemetry::snapshot().since(&before);
        assert!(delta.solves >= 2);
        assert!(delta.latency_limited >= 1);
        assert!(delta.bandwidth_bound >= 1);
        assert!(delta.iterations > 0, "bisection iterations recorded");
    }
}

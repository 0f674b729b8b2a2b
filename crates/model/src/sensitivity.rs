//! Sensitivity sweeps and design-tradeoff analysis (paper Sec. VI.C–D).
//!
//! These functions regenerate the quantitative results of the paper:
//!
//! * [`bandwidth_sweep`] — Fig. 8: CPI increase vs. per-core bandwidth
//!   reduction.
//! * [`bandwidth_derivative`] — Fig. 9: marginal CPI impact per GB/s/core.
//! * [`latency_sweep`] — Fig. 10: CPI vs. compulsory latency.
//! * [`latency_derivative`] — Fig. 11: CPI impact per +10 ns step.
//! * [`equivalence`] — Tab. 7: the bandwidth increase worth the same as a
//!   10 ns latency reduction, and vice versa.

use crate::queueing::QueueingCurve;
use crate::solver::{solve_cpi, SolvedCpi};
use crate::system::SystemConfig;
use crate::units::{GigabytesPerSecond, Nanoseconds};
use crate::workload::WorkloadParams;
use crate::ModelError;

/// One point of a bandwidth or latency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept quantity: per-core bandwidth delta (GB/s, negative =
    /// reduction) for bandwidth sweeps, or added compulsory latency (ns) for
    /// latency sweeps.
    pub delta: f64,
    /// Per-core effective bandwidth (GB/s) at this point.
    pub bandwidth_per_core: f64,
    /// Compulsory latency (ns) at this point.
    pub unloaded_latency_ns: f64,
    /// Converged operating point.
    pub solved: SolvedCpi,
    /// CPI relative to the sweep's baseline (`cpi / cpi_baseline`).
    pub cpi_ratio: f64,
}

impl SweepPoint {
    /// CPI increase over the baseline, as a percentage.
    pub fn cpi_increase_pct(&self) -> f64 {
        (self.cpi_ratio - 1.0) * 100.0
    }
}

/// Fig. 8: sweeps per-core available bandwidth by `deltas` (GB/s per core,
/// typically `0.0` down to `-3.5`) and reports the CPI at each point.
///
/// # Errors
///
/// Propagates [`ModelError`] from the solver or from an infeasible
/// configuration (a delta that drives bandwidth to zero).
pub fn bandwidth_sweep(
    workload: &WorkloadParams,
    baseline: &SystemConfig,
    curve: &QueueingCurve,
    deltas: &[f64],
) -> Result<Vec<SweepPoint>, ModelError> {
    let base = solve_cpi(workload, baseline, curve)?;
    deltas
        .iter()
        .map(|&d| {
            let sys = baseline
                .clone()
                .with_bandwidth_per_core_delta(GigabytesPerSecond(d))?;
            let solved = solve_cpi(workload, &sys, curve)?;
            Ok(SweepPoint {
                delta: d,
                bandwidth_per_core: sys.bandwidth_per_core().value(),
                unloaded_latency_ns: sys.unloaded_latency().value(),
                cpi_ratio: solved.cpi_eff / base.cpi_eff,
                solved,
            })
        })
        .collect()
}

/// The default Fig. 8 x-axis: 0 to −3.5 GB/s/core in 0.5 GB/s steps.
pub fn default_bandwidth_deltas() -> Vec<f64> {
    // `0.0 - x` keeps the first point at +0.0; `-0.5 * 0` would produce the
    // negative zero, which leaks a spurious "-0.0" into tables and wire
    // formats that canonicalize the sign away.
    (0..=7).map(|i| 0.0 - 0.5 * f64::from(i)).collect()
}

/// The default Fig. 10 x-axis: +0 ns to +60 ns in 10 ns steps.
pub fn default_latency_steps() -> Vec<f64> {
    (0..=6).map(|i| 10.0 * i as f64).collect()
}

/// One point of the Fig. 9 / Fig. 11 derivative plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivativePoint {
    /// X position: available per-core bandwidth (Fig. 9) or compulsory
    /// latency in ns (Fig. 11) at the *midpoint* of the pair.
    pub at: f64,
    /// Percent CPI change per unit (per 1 GB/s/core or per 10 ns step).
    pub pct_per_unit: f64,
}

/// Fig. 9: the discrete derivative of a Fig. 8 sweep — percent CPI increase
/// per GB/s/core of bandwidth removed, plotted against the available
/// bandwidth per core. "The performance impact of bandwidth reduction is
/// based on the starting configuration."
///
/// # Errors
///
/// Returns [`ModelError::InvalidParameter`] for sweeps with fewer than two
/// points.
pub fn bandwidth_derivative(sweep: &[SweepPoint]) -> Result<Vec<DerivativePoint>, ModelError> {
    if sweep.len() < 2 {
        return Err(ModelError::InvalidParameter(
            "need at least two sweep points",
        ));
    }
    Ok(sweep
        .windows(2)
        .map(|w| {
            let dbw = (w[0].bandwidth_per_core - w[1].bandwidth_per_core).abs();
            let dcpi_pct = (w[1].cpi_ratio - w[0].cpi_ratio) * 100.0;
            DerivativePoint {
                at: (w[0].bandwidth_per_core + w[1].bandwidth_per_core) / 2.0,
                pct_per_unit: dcpi_pct / dbw,
            }
        })
        .collect())
}

/// Fig. 10: sweeps the compulsory latency by `added_ns` steps over the
/// baseline latency.
///
/// # Errors
///
/// Propagates solver errors.
pub fn latency_sweep(
    workload: &WorkloadParams,
    baseline: &SystemConfig,
    curve: &QueueingCurve,
    added_ns: &[f64],
) -> Result<Vec<SweepPoint>, ModelError> {
    let base = solve_cpi(workload, baseline, curve)?;
    added_ns
        .iter()
        .map(|&d| {
            let sys = baseline
                .clone()
                .with_unloaded_latency(Nanoseconds(baseline.unloaded_latency().value() + d))?;
            let solved = solve_cpi(workload, &sys, curve)?;
            Ok(SweepPoint {
                delta: d,
                bandwidth_per_core: sys.bandwidth_per_core().value(),
                unloaded_latency_ns: sys.unloaded_latency().value(),
                cpi_ratio: solved.cpi_eff / base.cpi_eff,
                solved,
            })
        })
        .collect()
}

/// Fig. 11: percent CPI increase per 10 ns of added compulsory latency,
/// computed between consecutive points of a Fig. 10 sweep.
///
/// # Errors
///
/// Returns [`ModelError::InvalidParameter`] for sweeps with fewer than two
/// points or non-uniform steps of zero width.
pub fn latency_derivative(sweep: &[SweepPoint]) -> Result<Vec<DerivativePoint>, ModelError> {
    if sweep.len() < 2 {
        return Err(ModelError::InvalidParameter(
            "need at least two sweep points",
        ));
    }
    sweep
        .windows(2)
        .map(|w| {
            let dns = w[1].unloaded_latency_ns - w[0].unloaded_latency_ns;
            if dns == 0.0 {
                return Err(ModelError::InvalidParameter("zero-width latency step"));
            }
            let dcpi_pct = (w[1].cpi_ratio - w[0].cpi_ratio) * 100.0;
            Ok(DerivativePoint {
                at: (w[0].unloaded_latency_ns + w[1].unloaded_latency_ns) / 2.0,
                pct_per_unit: dcpi_pct / dns * 10.0,
            })
        })
        .collect()
}

/// Tab. 7: the latency ⇄ bandwidth equivalence for one workload class.
#[derive(Debug, Clone, PartialEq)]
pub struct Equivalence {
    /// Performance benefit of 1 GB/s/core (8 GB/s/socket) of bandwidth:
    /// the percent CPI increase suffered when that bandwidth is removed from
    /// the baseline (Tab. 7's "difference of 8 GB/s/socket").
    pub benefit_of_bandwidth_pct: f64,
    /// Performance benefit of 10 ns of compulsory latency: the percent CPI
    /// increase suffered when 10 ns is added to the baseline.
    pub benefit_of_latency_pct: f64,
    /// Total bandwidth increase (GB/s, system-wide) delivering the same
    /// benefit as a 10 ns latency reduction. `None` when no finite bandwidth
    /// increase can match it; `Some(0.0)` when the latency reduction itself
    /// is worthless (the HPC case).
    pub bandwidth_equivalent_of_10ns: Option<f64>,
    /// Latency reduction (ns) delivering the same benefit as +1 GB/s/core.
    /// `None` when no physically meaningful reduction (≤ the full compulsory
    /// latency) can match it — the paper's "no amount of latency reduction
    /// can compensate for bandwidth constraints" HPC observation.
    pub latency_equivalent_of_bandwidth: Option<f64>,
}

/// Computes the Tab. 7 equivalences for a workload class on a baseline.
///
/// The bandwidth side asks: what system-wide bandwidth increase produces the
/// same CPI as reducing the compulsory latency by 10 ns? The latency side
/// asks the mirror question for a +1 GB/s/core bandwidth increase. Both are
/// answered by bisection on the solver, which is monotone in each knob.
///
/// # Errors
///
/// Propagates solver errors.
pub fn equivalence(
    workload: &WorkloadParams,
    baseline: &SystemConfig,
    curve: &QueueingCurve,
) -> Result<Equivalence, ModelError> {
    let base = solve_cpi(workload, baseline, curve)?;

    // Tab. 7 quantifies the benefit as "performance compared to our baseline
    // for a difference of 8 GB/s/socket of bandwidth or 10 ns of compulsory
    // latency": the speedup the baseline enjoys over the degraded
    // configuration (removing 1 GB/s/core gives the ~24% HPC number).
    let minus_bw = baseline
        .clone()
        .with_bandwidth_per_core_delta(GigabytesPerSecond(-1.0))?;
    let cpi_minus_bw = solve_cpi(workload, &minus_bw, curve)?.cpi_eff;
    let benefit_bw = (cpi_minus_bw / base.cpi_eff - 1.0) * 100.0;

    // Benefit of 10 ns: baseline vs. baseline + 10 ns.
    let plus_lat = baseline
        .clone()
        .with_unloaded_latency(Nanoseconds(baseline.unloaded_latency().value() + 10.0))?;
    let cpi_plus_lat = solve_cpi(workload, &plus_lat, curve)?.cpi_eff;
    let benefit_lat = (cpi_plus_lat / base.cpi_eff - 1.0) * 100.0;

    // The equivalences are the paper's ratio construction: "improving
    // latency by 10 ns gives the same performance benefit, on average, as
    // X GB/s improvement in bandwidth", where X scales the 8 GB/s/socket
    // marginal benefit by the ratio of the two benefits.
    let bw_step = 8.0 * baseline.sockets() as f64; // GB/s, system-wide

    let bandwidth_equivalent_of_10ns = if benefit_lat <= 1e-9 {
        // A latency change buys nothing (bandwidth-bound HPC): equivalent to
        // zero bandwidth.
        Some(0.0)
    } else if benefit_bw <= 1e-9 {
        // Bandwidth buys nothing, so no finite increase matches 10 ns.
        None
    } else {
        Some(benefit_lat / benefit_bw * bw_step)
    };

    let latency_equivalent_of_bandwidth = if benefit_bw <= 1e-9 {
        Some(0.0)
    } else if benefit_lat <= 1e-9 {
        // Paper Sec. VI.D: "no amount of latency reduction can compensate
        // for bandwidth constraints for our HPC mix".
        None
    } else {
        Some(benefit_bw / benefit_lat * 10.0)
    };

    Ok(Equivalence {
        benefit_of_bandwidth_pct: benefit_bw,
        benefit_of_latency_pct: benefit_lat,
        bandwidth_equivalent_of_10ns,
        latency_equivalent_of_bandwidth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Regime;

    fn setup() -> (SystemConfig, QueueingCurve) {
        (
            SystemConfig::paper_baseline(),
            QueueingCurve::composite_default(),
        )
    }

    #[test]
    fn fig8_hpc_hit_hardest_by_bandwidth_loss() {
        let (sys, curve) = setup();
        let deltas = default_bandwidth_deltas();
        let hpc = bandwidth_sweep(&WorkloadParams::hpc_class(), &sys, &curve, &deltas).unwrap();
        let ent =
            bandwidth_sweep(&WorkloadParams::enterprise_class(), &sys, &curve, &deltas).unwrap();
        let big =
            bandwidth_sweep(&WorkloadParams::big_data_class(), &sys, &curve, &deltas).unwrap();
        // At the largest reduction, HPC suffers most, enterprise least.
        let last = deltas.len() - 1;
        assert!(hpc[last].cpi_increase_pct() > big[last].cpi_increase_pct());
        assert!(big[last].cpi_increase_pct() > ent[last].cpi_increase_pct());
        // Paper: HPC is bandwidth bound at every point — CPI rises steadily.
        for w in hpc.windows(2) {
            assert!(w[1].cpi_ratio > w[0].cpi_ratio);
        }
        // Enterprise sees only small, slowly-growing impact.
        assert!(
            ent[last].cpi_increase_pct() < 10.0,
            "{}",
            ent[last].cpi_increase_pct()
        );
    }

    #[test]
    fn fig8_big_data_has_a_knee() {
        // "Big data can tolerate some bandwidth reduction, but does show
        // significant impact when peak bandwidth is reduced by more than
        // 2.5 GB/s per core."
        let (sys, curve) = setup();
        let sweep = bandwidth_sweep(
            &WorkloadParams::big_data_class(),
            &sys,
            &curve,
            &default_bandwidth_deltas(),
        )
        .unwrap();
        let at = |d: f64| {
            sweep
                .iter()
                .find(|p| (p.delta - d).abs() < 1e-9)
                .expect("delta present")
        };
        assert!(at(-1.0).cpi_increase_pct() < 5.0, "tolerates small cuts");
        assert!(
            at(-3.5).cpi_increase_pct() > 15.0,
            "significant impact past the knee: {}",
            at(-3.5).cpi_increase_pct()
        );
        assert_eq!(at(-3.5).solved.regime, Regime::BandwidthBound);
    }

    #[test]
    fn fig9_derivative_grows_as_bandwidth_shrinks() {
        let (sys, curve) = setup();
        let sweep = bandwidth_sweep(
            &WorkloadParams::hpc_class(),
            &sys,
            &curve,
            &default_bandwidth_deltas(),
        )
        .unwrap();
        let deriv = bandwidth_derivative(&sweep).unwrap();
        assert_eq!(deriv.len(), sweep.len() - 1);
        // Marginal impact is larger at lower available bandwidth.
        assert!(deriv.last().unwrap().pct_per_unit > deriv.first().unwrap().pct_per_unit);
        assert!(bandwidth_derivative(&sweep[..1]).is_err());
    }

    #[test]
    fn fig10_latency_ordering_matches_paper() {
        let (sys, curve) = setup();
        let steps = default_latency_steps();
        let ent = latency_sweep(&WorkloadParams::enterprise_class(), &sys, &curve, &steps).unwrap();
        let big = latency_sweep(&WorkloadParams::big_data_class(), &sys, &curve, &steps).unwrap();
        let hpc = latency_sweep(&WorkloadParams::hpc_class(), &sys, &curve, &steps).unwrap();
        let last = steps.len() - 1;
        // Enterprise most latency sensitive, then big data, HPC flat.
        assert!(ent[last].cpi_increase_pct() > big[last].cpi_increase_pct());
        assert!(big[last].cpi_increase_pct() > 5.0);
        assert!(
            hpc[last].cpi_increase_pct().abs() < 1e-6,
            "HPC shows no latency sensitivity"
        );
    }

    #[test]
    fn fig11_per_10ns_magnitudes_match_paper() {
        // Paper: ~3.5%/10 ns enterprise, ~2.5%/10 ns big data, 0 for HPC.
        let (sys, curve) = setup();
        let steps = default_latency_steps();
        let ent = latency_derivative(
            &latency_sweep(&WorkloadParams::enterprise_class(), &sys, &curve, &steps).unwrap(),
        )
        .unwrap();
        let big = latency_derivative(
            &latency_sweep(&WorkloadParams::big_data_class(), &sys, &curve, &steps).unwrap(),
        )
        .unwrap();
        let ent_avg = ent.iter().map(|d| d.pct_per_unit).sum::<f64>() / ent.len() as f64;
        let big_avg = big.iter().map(|d| d.pct_per_unit).sum::<f64>() / big.len() as f64;
        assert!((ent_avg - 3.5).abs() < 0.7, "enterprise {ent_avg}%/10ns");
        assert!((big_avg - 2.5).abs() < 0.7, "big data {big_avg}%/10ns");
        // Near-constant steps ("the impact is nearly constant").
        let spread = ent
            .iter()
            .map(|d| (d.pct_per_unit - ent_avg).abs())
            .fold(0.0, f64::max);
        assert!(
            spread < 0.5,
            "Fig. 11 steps nearly constant, spread {spread}"
        );
    }

    #[test]
    fn tab7_equivalences_match_paper_shape() {
        let (sys, curve) = setup();
        let ent = equivalence(&WorkloadParams::enterprise_class(), &sys, &curve).unwrap();
        let big = equivalence(&WorkloadParams::big_data_class(), &sys, &curve).unwrap();
        let hpc = equivalence(&WorkloadParams::hpc_class(), &sys, &curve).unwrap();

        // Enterprise / big data: under ~1% from bandwidth, ~3% from latency.
        assert!(ent.benefit_of_bandwidth_pct < 1.5);
        assert!(big.benefit_of_bandwidth_pct < 3.0);
        assert!((ent.benefit_of_latency_pct - 3.5).abs() < 1.0);
        assert!((big.benefit_of_latency_pct - 2.5).abs() < 1.0);
        // HPC: ~24% from bandwidth, nothing from latency.
        assert!(
            (hpc.benefit_of_bandwidth_pct - 24.0).abs() < 5.0,
            "HPC bandwidth benefit {}",
            hpc.benefit_of_bandwidth_pct
        );
        assert!(hpc.benefit_of_latency_pct.abs() < 1e-6);

        // Equivalences: 10 ns is worth tens of GB/s for the latency-bound
        // classes (paper: 39.7 and 27.1 GB/s), nothing for HPC.
        let ent_bw = ent
            .bandwidth_equivalent_of_10ns
            .expect("finite for enterprise");
        let big_bw = big
            .bandwidth_equivalent_of_10ns
            .expect("finite for big data");
        assert!(ent_bw > big_bw, "enterprise 10 ns worth more bandwidth");
        assert!((15.0..90.0).contains(&ent_bw), "enterprise {ent_bw} GB/s");
        assert!((10.0..60.0).contains(&big_bw), "big data {big_bw} GB/s");
        assert_eq!(hpc.bandwidth_equivalent_of_10ns, Some(0.0));

        // +1 GB/s/core is worth a few ns for enterprise/big data
        // (paper: 2.0 ns and 2.9 ns), unmatched by latency for HPC.
        let ent_ns = ent.latency_equivalent_of_bandwidth.expect("finite");
        let big_ns = big.latency_equivalent_of_bandwidth.expect("finite");
        assert!((0.5..6.0).contains(&ent_ns), "enterprise {ent_ns} ns");
        assert!((0.5..8.0).contains(&big_ns), "big data {big_ns} ns");
        assert!(
            big_ns > ent_ns,
            "big data values bandwidth more in latency terms"
        );
        assert_eq!(hpc.latency_equivalent_of_bandwidth, None);
    }
}

//! Multi-level memory hierarchies (paper Eq. 5 / Sec. VII).
//!
//! Emerging memory technologies are slower and lower-bandwidth than DRAM but
//! much larger; the paper proposes tiering them behind a faster tier and
//! extends Eq. 1 to
//! `CPI_eff = CPI_cache + (MPI_i × MP_i + MPI_ii × MP_ii + …) × BF`.
//! This module models such tiered systems and answers the Sec. VII questions:
//! how good must the near tier's hit rate be for a slow far tier to break
//! even with flat DRAM?

use crate::units::{Cycles, GigaHertz, Nanoseconds};
use crate::workload::WorkloadParams;
use crate::ModelError;

/// One level of the memory hierarchy behind the LLC.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryTier {
    /// Human-readable tier name ("DRAM cache", "NVM", …).
    pub name: String,
    /// Fraction of LLC misses satisfied by this tier, in `[0, 1]`.
    /// Fractions across tiers must sum to 1.
    pub hit_fraction: f64,
    /// Loaded latency of this tier.
    pub latency: Nanoseconds,
}

impl MemoryTier {
    /// Creates a tier.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when `hit_fraction` is
    /// outside `[0, 1]` or `latency` is negative/non-finite.
    pub fn new(
        name: impl Into<String>,
        hit_fraction: f64,
        latency: Nanoseconds,
    ) -> Result<Self, ModelError> {
        if !(0.0..=1.0).contains(&hit_fraction) {
            return Err(ModelError::InvalidParameter(
                "hit_fraction must be in [0, 1]",
            ));
        }
        if !(latency.value() >= 0.0 && latency.is_finite()) {
            return Err(ModelError::InvalidParameter("latency must be >= 0"));
        }
        Ok(MemoryTier {
            name: name.into(),
            hit_fraction,
            latency,
        })
    }
}

/// A memory hierarchy: an ordered list of tiers whose hit fractions sum to 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredMemory {
    tiers: Vec<MemoryTier>,
}

impl TieredMemory {
    /// Builds a hierarchy, checking that hit fractions sum to 1 (±1e-6).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for an empty tier list or
    /// fractions not summing to one.
    pub fn new(tiers: Vec<MemoryTier>) -> Result<Self, ModelError> {
        if tiers.is_empty() {
            return Err(ModelError::InvalidParameter("at least one tier required"));
        }
        let sum: f64 = tiers.iter().map(|t| t.hit_fraction).sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(ModelError::InvalidParameter(
                "tier hit fractions must sum to 1",
            ));
        }
        Ok(TieredMemory { tiers })
    }

    /// A single flat tier — equivalent to the base Eq. 1 model.
    ///
    /// # Errors
    ///
    /// Propagates tier validation errors (negative latency).
    pub fn flat(latency: Nanoseconds) -> Result<Self, ModelError> {
        TieredMemory::new(vec![MemoryTier::new("flat", 1.0, latency)?])
    }

    /// A two-tier near/far hierarchy: `near_hit` of misses land in the near
    /// tier, the rest in the far tier.
    ///
    /// # Errors
    ///
    /// Propagates tier validation errors.
    pub fn two_tier(
        near_hit: f64,
        near_latency: Nanoseconds,
        far_latency: Nanoseconds,
    ) -> Result<Self, ModelError> {
        TieredMemory::new(vec![
            MemoryTier::new("near", near_hit, near_latency)?,
            MemoryTier::new("far", 1.0 - near_hit, far_latency)?,
        ])
    }

    /// The average miss latency across tiers:
    /// `Σ hit_fraction_k × latency_k`.
    pub fn average_latency(&self) -> Nanoseconds {
        Nanoseconds(
            self.tiers
                .iter()
                .map(|t| t.hit_fraction * t.latency.value())
                .sum(),
        )
    }

    /// The Eq. 5 per-instruction miss-latency term
    /// `Σ MPI_k × MP_k` in core cycles, where `MPI_k = MPI × hit_fraction_k`.
    pub fn miss_latency_per_instruction(&self, mpi: f64, clock: GigaHertz) -> Cycles {
        Cycles(
            self.tiers
                .iter()
                .map(|t| mpi * t.hit_fraction * t.latency.to_cycles(clock).value())
                .sum(),
        )
    }
}

/// Eq. 5: effective CPI over a tiered memory hierarchy.
///
/// # Examples
///
/// ```
/// use memsense_model::hierarchy::{hierarchical_cpi, TieredMemory};
/// use memsense_model::units::{GigaHertz, Nanoseconds};
/// use memsense_model::workload::WorkloadParams;
///
/// let big = WorkloadParams::big_data_class();
/// // A 2x-slower far tier fronted by a near tier catching 80% of misses:
/// let tiered = TieredMemory::two_tier(0.8, Nanoseconds(75.0), Nanoseconds(150.0)).unwrap();
/// let cpi = hierarchical_cpi(&big, &tiered, GigaHertz(2.7));
/// assert!(cpi > big.cpi_cache);
/// ```
pub fn hierarchical_cpi(workload: &WorkloadParams, memory: &TieredMemory, clock: GigaHertz) -> f64 {
    workload.cpi_cache
        + memory
            .miss_latency_per_instruction(workload.mpi(), clock)
            .value()
            * workload.bf
}

/// Finds the near-tier hit fraction at which a two-tier hierarchy matches
/// the CPI of a flat memory at `flat_latency` — the break-even point for
/// deploying a slower (e.g. non-volatile) far tier behind a DRAM cache.
///
/// Returns `None` when even a 100% near-tier hit rate cannot reach the flat
/// CPI (the near tier itself is slower than flat memory), or when the far
/// tier alone is already at least as fast.
///
/// # Errors
///
/// Propagates tier validation errors.
///
/// # Examples
///
/// ```
/// use memsense_model::hierarchy::break_even_near_hit;
/// use memsense_model::units::{GigaHertz, Nanoseconds};
/// use memsense_model::workload::WorkloadParams;
///
/// let w = WorkloadParams::big_data_class();
/// let h = break_even_near_hit(
///     &w,
///     Nanoseconds(75.0),  // near tier: DRAM-like
///     Nanoseconds(300.0), // far tier: 4x slower NVM
///     Nanoseconds(75.0),  // must match flat DRAM
///     GigaHertz(2.7),
/// ).unwrap();
/// // Only a perfect near tier matches flat DRAM when near == flat.
/// assert_eq!(h, Some(1.0));
/// ```
pub fn break_even_near_hit(
    workload: &WorkloadParams,
    near_latency: Nanoseconds,
    far_latency: Nanoseconds,
    flat_latency: Nanoseconds,
    clock: GigaHertz,
) -> Result<Option<f64>, ModelError> {
    let flat = hierarchical_cpi(workload, &TieredMemory::flat(flat_latency)?, clock);
    // CPI is linear in the near-hit fraction h:
    //   cpi(h) = cpi(0) + h × (cpi(1) − cpi(0))
    let cpi0 = hierarchical_cpi(
        workload,
        &TieredMemory::two_tier(0.0, near_latency, far_latency)?,
        clock,
    );
    let cpi1 = hierarchical_cpi(
        workload,
        &TieredMemory::two_tier(1.0, near_latency, far_latency)?,
        clock,
    );
    if cpi0 <= flat {
        // Far tier alone already fast enough: break-even at h = 0.
        return Ok(Some(0.0));
    }
    if cpi1 > flat + 1e-12 {
        return Ok(None);
    }
    let h = (cpi0 - flat) / (cpi0 - cpi1);
    Ok(Some(h.clamp(0.0, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big() -> WorkloadParams {
        WorkloadParams::big_data_class()
    }

    #[test]
    fn flat_hierarchy_matches_eq1() {
        let clock = GigaHertz(2.7);
        let mem = TieredMemory::flat(Nanoseconds(75.0)).unwrap();
        let via_eq5 = hierarchical_cpi(&big(), &mem, clock);
        let via_eq1 = crate::cpi::effective_cpi(&big(), Nanoseconds(75.0).to_cycles(clock));
        assert!((via_eq5 - via_eq1).abs() < 1e-12);
    }

    #[test]
    fn hit_fractions_must_sum_to_one() {
        let t1 = MemoryTier::new("a", 0.5, Nanoseconds(75.0)).unwrap();
        let t2 = MemoryTier::new("b", 0.4, Nanoseconds(150.0)).unwrap();
        assert!(TieredMemory::new(vec![t1, t2]).is_err());
        assert!(TieredMemory::new(vec![]).is_err());
    }

    #[test]
    fn tier_validation() {
        assert!(MemoryTier::new("x", -0.1, Nanoseconds(10.0)).is_err());
        assert!(MemoryTier::new("x", 1.1, Nanoseconds(10.0)).is_err());
        assert!(MemoryTier::new("x", 0.5, Nanoseconds(-1.0)).is_err());
    }

    #[test]
    fn average_latency_weighted() {
        let mem = TieredMemory::two_tier(0.8, Nanoseconds(75.0), Nanoseconds(375.0)).unwrap();
        assert!((mem.average_latency().value() - 135.0).abs() < 1e-9);
    }

    #[test]
    fn cpi_monotone_in_near_hit() {
        let clock = GigaHertz(2.7);
        let mut last = f64::INFINITY;
        for h in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mem = TieredMemory::two_tier(h, Nanoseconds(75.0), Nanoseconds(300.0)).unwrap();
            let cpi = hierarchical_cpi(&big(), &mem, clock);
            assert!(cpi <= last, "CPI must fall as near hit rate rises");
            last = cpi;
        }
    }

    #[test]
    fn break_even_interior_point() {
        // Near tier faster than flat: an interior break-even hit rate exists.
        let h = break_even_near_hit(
            &big(),
            Nanoseconds(40.0),
            Nanoseconds(300.0),
            Nanoseconds(75.0),
            GigaHertz(2.7),
        )
        .unwrap()
        .expect("reachable");
        assert!(h > 0.5 && h < 1.0, "h = {h}");
        // Verify: CPI at break-even equals flat CPI.
        let mem = TieredMemory::two_tier(h, Nanoseconds(40.0), Nanoseconds(300.0)).unwrap();
        let flat = TieredMemory::flat(Nanoseconds(75.0)).unwrap();
        let clock = GigaHertz(2.7);
        assert!(
            (hierarchical_cpi(&big(), &mem, clock) - hierarchical_cpi(&big(), &flat, clock)).abs()
                < 1e-9
        );
    }

    #[test]
    fn break_even_unreachable() {
        // Near tier slower than flat: no hit rate can match.
        let h = break_even_near_hit(
            &big(),
            Nanoseconds(100.0),
            Nanoseconds(300.0),
            Nanoseconds(75.0),
            GigaHertz(2.7),
        )
        .unwrap();
        assert_eq!(h, None);
    }

    #[test]
    fn break_even_trivial_when_far_fast() {
        let h = break_even_near_hit(
            &big(),
            Nanoseconds(40.0),
            Nanoseconds(60.0),
            Nanoseconds(75.0),
            GigaHertz(2.7),
        )
        .unwrap();
        assert_eq!(h, Some(0.0));
    }

    #[test]
    fn three_tier_hierarchy() {
        let mem = TieredMemory::new(vec![
            MemoryTier::new("hbm", 0.5, Nanoseconds(40.0)).unwrap(),
            MemoryTier::new("dram", 0.3, Nanoseconds(80.0)).unwrap(),
            MemoryTier::new("nvm", 0.2, Nanoseconds(350.0)).unwrap(),
        ])
        .unwrap();
        assert!((mem.average_latency().value() - (20.0 + 24.0 + 70.0)).abs() < 1e-9);
        let cpi = hierarchical_cpi(&big(), &mem, GigaHertz(2.7));
        assert!(cpi > big().cpi_cache);
    }
}

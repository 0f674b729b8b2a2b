//! The parametrized workload engine.
//!
//! Every paper workload decomposes into the same ingredients at different
//! ratios: sequential (prefetchable) scans, dependent pointer probes into a
//! large footprint, store traffic that produces dirty writebacks,
//! non-temporal stores, cache-resident "hot" accesses, compute with a
//! characteristic latency mix, I/O DMA, idle time, and phase modulation.
//! [`MixSpec`] captures those ratios; [`MixWorkload`] turns a spec into an
//! [`InstructionStream`] the simulator executes. The per-workload modules
//! ([`crate::bigdata`], [`crate::enterprise`], [`crate::hpc`]) provide the
//! tuned specs.

use memsense_sim::trace::{InstructionStream, Op, OpBlock};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::patterns::{
    mix_rng, PointerChase, SequentialScan, StridedScan, UniformRandom, ZipfSampler,
};

/// Probabilities of an instruction costing 0, 1, 2, 4, or 8 extra cycles.
/// Controls the workload's `CPI_cache`.
pub type ExtraCycleDist = [f64; 5];

const EXTRA_CYCLE_VALUES: [u32; 5] = [0, 1, 2, 4, 8];

/// Extra cycles of a compute op, indexed by how many running sums of the
/// distribution a draw reaches. The trailing 0 is a draw at or above the
/// last sum, which a distribution summing to just under 1 leaves room for.
const EXTRA_CYCLES_BY_RANK: [u32; 6] = [0, 1, 2, 4, 8, 0];

/// Running sums of `dist`, accumulated in bucket order.
fn extra_cycle_cdf(dist: &ExtraCycleDist) -> [f64; 5] {
    let mut acc = 0.0;
    dist.map(|p| {
        acc += p;
        acc
    })
}

/// Extra cycles for the draw `u`. Its bucket is the first whose running sum
/// exceeds `u`; with non-negative probabilities that is the count of sums at
/// or below `u`, which needs no branch.
fn extra_cycles(cdf: &[f64; 5], u: f64) -> u32 {
    let rank: usize = cdf.iter().map(|&c| usize::from(c <= u)).sum();
    EXTRA_CYCLES_BY_RANK[rank]
}

/// Fills `out` with compute ops, one `f64` draw each, in order.
fn fill_compute(rng: &mut SmallRng, cdf: &[f64; 5], out: &mut [Op]) {
    for op in out {
        *op = Op::compute_heavy(extra_cycles(cdf, rng.gen()));
    }
}

/// Per-unit-of-work ratios defining a workload. Counts may be fractional;
/// the generator carries credit across units.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Workload name (matches the paper's Tab. 2/4/5 rows).
    pub name: &'static str,
    /// Sequential scan lines consumed per unit (prefetch-friendly reads).
    pub seq_lines: f64,
    /// Loads issued per scanned line (elements per line actually touched).
    pub loads_per_line: u32,
    /// Byte stride between consecutive scan lines (64 = dense; larger for
    /// lattice sweeps). Must be a multiple of 64.
    pub seq_stride: u64,
    /// Store lines per unit into the large footprint (drives `WBR`).
    pub store_lines: f64,
    /// Dependent (pointer-chase) loads per unit into the large footprint —
    /// each exposes the full miss penalty (drives `BF`).
    pub dep_probes: f64,
    /// Dependent loads addressed by Zipf-distributed object popularity over
    /// the large footprint: hot objects stay cache resident, so the
    /// *effective* miss rate emerges from the skew (web-cache GETs, OLTP
    /// hot rows).
    pub zipf_loads: f64,
    /// Zipf exponent for [`MixSpec::zipf_loads`] (≈0.99 for web traffic).
    pub zipf_theta: f64,
    /// Independent random loads per unit into the large footprint. At the
    /// MPKI of these workloads they rarely overlap, so they also stall, but
    /// they model gather traffic distinctly.
    pub indep_loads: f64,
    /// Non-temporal store lines per unit (cache-bypassing writes; pushes
    /// `WBR` above 100% as in NITS).
    pub nt_lines: f64,
    /// Loads per unit into the cache-resident hot region (index nodes,
    /// dictionaries, metadata).
    pub hot_loads: f64,
    /// Plain compute instructions per unit.
    pub compute: u32,
    /// Extra-cycle distribution for compute instructions.
    pub extra_dist: ExtraCycleDist,
    /// Large footprint size in bytes (must dwarf the LLC slice).
    pub big_region: u64,
    /// Hot footprint size in bytes (should fit the LLC slice).
    pub hot_region: u64,
    /// DMA bytes per retired instruction (`IOPI × IOSZ`).
    pub io_bytes_per_instr: f64,
    /// Halted cycles appended per unit (models <100% CPU utilization).
    pub idle_cycles_per_unit: f64,
    /// Period (in units) of the compute-intensity modulation; 0 disables.
    pub phase_period: u64,
    /// Relative amplitude of the modulation (e.g. 0.3 → ±30% compute).
    pub phase_amplitude: f64,
}

impl MixSpec {
    /// A neutral spec: pure compute, no memory traffic. Workload modules
    /// override fields from this base.
    pub fn base(name: &'static str) -> Self {
        MixSpec {
            name,
            seq_lines: 0.0,
            loads_per_line: 4,
            seq_stride: 64,
            store_lines: 0.0,
            dep_probes: 0.0,
            zipf_loads: 0.0,
            zipf_theta: 0.99,
            indep_loads: 0.0,
            nt_lines: 0.0,
            hot_loads: 0.0,
            compute: 100,
            extra_dist: [1.0, 0.0, 0.0, 0.0, 0.0],
            big_region: 32 * 1024 * 1024,
            hot_region: 16 * 1024,
            io_bytes_per_instr: 0.0,
            idle_cycles_per_unit: 0.0,
            phase_period: 0,
            phase_amplitude: 0.0,
        }
    }

    /// Fraction of Zipf-addressed loads expected to miss (the cold tail;
    /// a first-order estimate used only for spec sanity checks).
    pub const ZIPF_MISS_ESTIMATE: f64 = 0.8;

    /// Expected LLC misses per unit (scan + store + probe + gather lines +
    /// the cold tail of Zipf loads).
    pub fn expected_misses_per_unit(&self) -> f64 {
        self.seq_lines
            + self.store_lines
            + self.dep_probes
            + self.indep_loads
            + self.zipf_loads * Self::ZIPF_MISS_ESTIMATE
    }

    /// Expected instructions per unit.
    pub fn expected_instructions_per_unit(&self) -> f64 {
        self.seq_lines * self.loads_per_line as f64
            + self.store_lines * 4.0
            + self.dep_probes
            + self.zipf_loads
            + self.indep_loads
            + self.nt_lines
            + self.hot_loads
            + self.compute as f64
    }

    /// First-order MPKI prediction (misses incl. prefetch fills per 1000
    /// instructions), for spec sanity checks.
    pub fn predicted_mpki(&self) -> f64 {
        self.expected_misses_per_unit() / self.expected_instructions_per_unit() * 1000.0
    }

    /// Mean extra cycles per compute instruction.
    pub fn mean_extra_cycles(&self) -> f64 {
        self.extra_dist
            .iter()
            .zip(EXTRA_CYCLE_VALUES)
            .map(|(p, v)| p * v as f64)
            .sum()
    }

    /// Validates that the distribution sums to ~1 and counts are sane.
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec (these are compiled-in constants, so a bad
    /// spec is a programming error, not a runtime condition).
    pub fn assert_valid(&self) {
        // The compute draw relies on non-decreasing running sums.
        assert!(
            self.extra_dist.iter().all(|&p| p >= 0.0),
            "{}: extra_dist has a negative probability",
            self.name
        );
        let sum: f64 = self.extra_dist.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{}: extra_dist must sum to 1, got {sum}",
            self.name
        );
        assert!(self.seq_stride.is_multiple_of(64) && self.seq_stride > 0);
        assert!(self.big_region >= 1024 * 1024, "big region too small");
        assert!(self.hot_region >= 4096, "hot region too small");
        assert!(self.loads_per_line >= 1);
        assert!(self.zipf_theta >= 0.0 && self.zipf_theta.is_finite());
        assert!(
            [
                self.seq_lines,
                self.store_lines,
                self.dep_probes,
                self.zipf_loads,
                self.indep_loads,
                self.nt_lines,
                self.hot_loads,
                self.io_bytes_per_instr,
                self.idle_cycles_per_unit,
                self.phase_amplitude,
            ]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0),
            "{}: negative or non-finite rate",
            self.name
        );
    }
}

/// Fractional-credit counter: turns per-unit rates into integer counts.
#[derive(Debug, Clone, Default)]
struct Credit(f64);

impl Credit {
    fn take(&mut self, rate: f64) -> u32 {
        self.0 += rate;
        let n = self.0.floor();
        self.0 -= n;
        n as u32
    }
}

/// An [`InstructionStream`] generated from a [`MixSpec`].
#[derive(Debug)]
pub struct MixWorkload {
    spec: MixSpec,
    /// Ops for the current unit; consumed from `head`, reused across
    /// refills so steady-state generation performs no allocation.
    buf: Vec<Op>,
    head: usize,
    rng: SmallRng,
    /// Running sums of `spec.extra_dist` (see [`fill_compute`]).
    extra_cdf: [f64; 5],
    scan: ScanKind,
    store_scan: SequentialScan,
    nt_scan: SequentialScan,
    chase: PointerChase,
    gather: UniformRandom,
    hot: UniformRandom,
    zipf: Option<ZipfSampler>,
    seq_credit: Credit,
    store_credit: Credit,
    dep_credit: Credit,
    zipf_credit: Credit,
    indep_credit: Credit,
    nt_credit: Credit,
    hot_credit: Credit,
    idle_credit: Credit,
    unit: u64,
    phase_name: &'static str,
}

#[derive(Debug)]
enum ScanKind {
    Dense(SequentialScan),
    Strided(StridedScan),
}

impl ScanKind {
    fn next_addr(&mut self) -> u64 {
        match self {
            ScanKind::Dense(s) => s.next_addr(),
            ScanKind::Strided(s) => s.next_addr(),
        }
    }
}

/// Address-space layout: distinct, non-overlapping bases for each traffic
/// class so streams do not alias.
const SCAN_BASE: u64 = 0x1_0000_0000;
const STORE_BASE: u64 = 0x2_0000_0000;
const NT_BASE: u64 = 0x3_0000_0000;
const CHASE_BASE: u64 = 0x4_0000_0000;
const GATHER_BASE: u64 = 0x5_0000_0000;
const HOT_BASE: u64 = 0x6_0000_0000;
const ZIPF_BASE: u64 = 0x7_0000_0000;

impl MixWorkload {
    /// Builds the stream for `spec`, seeded deterministically.
    pub fn new(spec: MixSpec, seed: u64) -> Self {
        spec.assert_valid();
        let scan = if spec.seq_stride == 64 {
            ScanKind::Dense(SequentialScan::new(SCAN_BASE, spec.big_region, 64))
        } else {
            ScanKind::Strided(StridedScan::new(
                SCAN_BASE,
                spec.big_region,
                spec.seq_stride,
            ))
        };
        MixWorkload {
            store_scan: SequentialScan::new(STORE_BASE, spec.big_region, 64),
            nt_scan: SequentialScan::new(NT_BASE, spec.big_region, 64),
            chase: PointerChase::new(CHASE_BASE, spec.big_region, seed ^ 0xc4a5e),
            gather: UniformRandom::new(GATHER_BASE, spec.big_region, seed ^ 0x6a783),
            hot: UniformRandom::new(HOT_BASE, spec.hot_region, seed ^ 0x407),
            zipf: if spec.zipf_loads > 0.0 {
                // One "object" per line across the large footprint, capped
                // so CDF construction stays cheap.
                let objects = (spec.big_region / 64).min(262_144) as usize;
                Some(ZipfSampler::new(objects, spec.zipf_theta, seed ^ 0x21bf))
            } else {
                None
            },
            rng: mix_rng(seed),
            extra_cdf: extra_cycle_cdf(&spec.extra_dist),
            scan,
            spec,
            buf: Vec::new(),
            head: 0,
            seq_credit: Credit::default(),
            store_credit: Credit::default(),
            dep_credit: Credit::default(),
            zipf_credit: Credit::default(),
            indep_credit: Credit::default(),
            nt_credit: Credit::default(),
            hot_credit: Credit::default(),
            idle_credit: Credit::default(),
            unit: 0,
            phase_name: "steady",
        }
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &MixSpec {
        &self.spec
    }

    /// Appends `n` compute ops to `buf`.
    fn push_compute(&mut self, n: usize) {
        let start = self.buf.len();
        self.buf.resize(start + n, Op::compute());
        fill_compute(&mut self.rng, &self.extra_cdf, &mut self.buf[start..]);
    }

    fn refill(&mut self) {
        self.unit += 1;

        // Phase modulation of compute intensity (Spark's variable CPI).
        let compute = if self.spec.phase_period > 0 {
            let phase = (self.unit % self.spec.phase_period) as f64 / self.spec.phase_period as f64;
            let wave = (phase * core::f64::consts::TAU).sin();
            self.phase_name = if wave >= 0.0 { "map" } else { "reduce" };
            ((self.spec.compute as f64) * (1.0 + self.spec.phase_amplitude * wave)).round() as u32
        } else {
            self.spec.compute
        };

        // This unit's memory-event counts, in a fixed schedule order. A
        // plain array (no per-refill allocation): the round-robin interleave
        // below walks it pass by pass, emitting one event of every kind with
        // remaining count per pass, so e.g. all dependent probes don't
        // cluster at the front of the unit.
        const SEQ: usize = 0;
        const STORE: usize = 1;
        const DEP: usize = 2;
        const ZIPF: usize = 3;
        const INDEP: usize = 4;
        const NT: usize = 5;
        const HOT: usize = 6;
        let mut counts: [u32; 7] = [
            self.seq_credit.take(self.spec.seq_lines),
            self.store_credit.take(self.spec.store_lines),
            self.dep_credit.take(self.spec.dep_probes),
            self.zipf_credit.take(self.spec.zipf_loads),
            self.indep_credit.take(self.spec.indep_loads),
            self.nt_credit.take(self.spec.nt_lines),
            self.hot_credit.take(self.spec.hot_loads),
        ];
        let total_events: usize = counts.iter().map(|&c| c as usize).sum();

        // Spread compute — and idle time — evenly between memory events so
        // traffic is paced rather than bursty.
        let slots = total_events.max(1);
        let per_slot = compute as usize / slots;
        let mut extra_budget = compute as usize % slots;
        let idle_total = self
            .idle_credit
            .take(self.spec.idle_cycles_per_unit / slots as f64 * slots as f64);
        let idle_chunk = idle_total / slots as u32;
        let mut idle_left = idle_total;

        let mut remaining = total_events;
        while remaining > 0 {
            // `kind` is matched against the SEQ..=HOT constants below, so the
            // index itself carries meaning; an enumerate() rewrite obscures it.
            #[allow(clippy::needless_range_loop)]
            for kind in SEQ..=HOT {
                if counts[kind] == 0 {
                    continue;
                }
                counts[kind] -= 1;
                remaining -= 1;
                match kind {
                    SEQ => {
                        let addr = self.scan.next_addr();
                        for k in 0..self.spec.loads_per_line {
                            self.buf.push(Op::load(addr + (k as u64 * 8) % 64));
                        }
                    }
                    STORE => {
                        let addr = self.store_scan.next_addr() & !63;
                        for k in 0..4u64 {
                            self.buf.push(Op::store(addr + k * 16));
                        }
                    }
                    DEP => {
                        let addr = self.chase.next_addr();
                        self.buf.push(Op::dependent_load(addr));
                    }
                    ZIPF => {
                        // memsense-lint: allow(no-panic-in-lib) — the schedule only emits a zipf event when the sampler was built
                        let rank = self
                            .zipf
                            .as_mut()
                            .expect("zipf sampler present when zipf_loads > 0")
                            .sample() as u64;
                        // Popular ranks (low numbers) map to a compact region
                        // that stays cache resident; the tail misses.
                        self.buf.push(Op::dependent_load(ZIPF_BASE + rank * 64));
                    }
                    INDEP => {
                        let addr = self.gather.next_addr();
                        self.buf.push(Op::load(addr));
                    }
                    NT => {
                        let addr = self.nt_scan.next_addr();
                        self.buf.push(Op::nt_store(addr));
                    }
                    _ => {
                        let addr = self.hot.next_addr();
                        self.buf.push(Op::load(addr));
                    }
                }
                let n = per_slot + usize::from(extra_budget > 0);
                extra_budget = extra_budget.saturating_sub(1);
                self.push_compute(n);
                if idle_chunk > 0 {
                    self.buf.push(Op::idle(idle_chunk));
                    idle_left -= idle_chunk;
                }
            }
        }
        if slots == 1 && self.buf.is_empty() {
            self.push_compute(compute as usize);
        }
        if idle_left > 0 {
            self.buf.push(Op::idle(idle_left));
        }
    }
}

impl InstructionStream for MixWorkload {
    fn next_op(&mut self) -> Op {
        loop {
            if self.head < self.buf.len() {
                let op = self.buf[self.head];
                self.head += 1;
                return op;
            }
            self.buf.clear();
            self.head = 0;
            self.refill();
        }
    }

    fn phase(&self) -> &str {
        self.phase_name
    }

    fn io_bytes_per_instruction(&self) -> f64 {
        self.spec.io_bytes_per_instr
    }

    fn fill_block(&mut self, block: &mut OpBlock, n: usize) {
        block.clear();
        let mut filled = 0;
        while filled < n {
            if self.head == self.buf.len() {
                self.buf.clear();
                self.head = 0;
                self.refill();
                continue;
            }
            // Everything buffered came from one refill, so it all carries
            // the phase label that refill chose.
            let take = (self.buf.len() - self.head).min(n - filled);
            block
                .ops
                .extend_from_slice(&self.buf[self.head..self.head + take]);
            block.note_phase_n(self.phase_name, take as u32);
            self.head += take;
            filled += take;
        }
        block.note_io_n(self.spec.io_bytes_per_instr, n as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The early-return scan over running sums that the branchless draw
    /// must match bucket for bucket.
    fn linear_scan_extra_cycles(dist: &ExtraCycleDist, u: f64) -> u32 {
        let mut acc = 0.0;
        for (p, v) in dist.iter().zip(EXTRA_CYCLE_VALUES) {
            acc += p;
            if u < acc {
                return v;
            }
        }
        0
    }

    /// A valid distribution from five `(keep, weight)` pairs: a bucket is
    /// zero when `keep` is 0, and the total falls `shortfall` short of 1.
    fn dist_from(weights: &[(u32, f64)], shortfall: f64) -> Option<ExtraCycleDist> {
        let mut dist = [0.0; 5];
        for (p, &(keep, w)) in dist.iter_mut().zip(weights) {
            *p = if keep == 0 { 0.0 } else { w };
        }
        let total: f64 = dist.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let scale = (1.0 - shortfall) / total;
        for p in &mut dist {
            *p *= scale;
        }
        Some(dist)
    }

    proptest! {
        #[test]
        fn branchless_draw_matches_linear_scan(
            weights in collection::vec((0u32..3, 0.0f64..1.0), 5..6),
            shortfall in 0.0f64..0.9e-9,
            draws in collection::vec(0.0f64..1.0, 1..64),
        ) {
            let dist = dist_from(&weights, shortfall);
            prop_assume!(dist.is_some());
            let dist = dist.unwrap();
            MixSpec { extra_dist: dist, ..MixSpec::base("draw") }.assert_valid();
            let cdf = extra_cycle_cdf(&dist);
            // Every running sum exactly, and its neighbours on either side.
            let thresholds = cdf.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]);
            for u in draws.iter().copied().chain(thresholds).chain([0.0]) {
                prop_assert_eq!(
                    extra_cycles(&cdf, u),
                    linear_scan_extra_cycles(&dist, u),
                    "u = {u:e}, dist = {dist:?}"
                );
            }
        }

        #[test]
        fn fill_compute_draws_in_order(
            weights in collection::vec((0u32..3, 0.0f64..1.0), 5..6),
            seed in 0u64..=u64::MAX,
            n in 0usize..200,
        ) {
            let dist = dist_from(&weights, 0.0);
            prop_assume!(dist.is_some());
            let dist = dist.unwrap();
            let mut out = vec![Op::idle(7); n];
            let mut rng = mix_rng(seed);
            fill_compute(&mut rng, &extra_cycle_cdf(&dist), &mut out);
            let mut twin = mix_rng(seed);
            for op in &out {
                let want = linear_scan_extra_cycles(&dist, twin.gen());
                prop_assert_eq!(*op, Op::compute_heavy(want));
            }
            // Both consumed the same number of draws.
            prop_assert_eq!(rng.gen::<u64>(), twin.gen::<u64>());
        }
    }

    fn spec() -> MixSpec {
        MixSpec {
            seq_lines: 1.0,
            store_lines: 0.5,
            dep_probes: 0.4,
            indep_loads: 0.25,
            hot_loads: 2.0,
            compute: 50,
            extra_dist: [0.5, 0.3, 0.1, 0.08, 0.02],
            ..MixSpec::base("test")
        }
    }

    #[test]
    fn op_counts_match_rates() {
        let s = spec();
        let mut w = MixWorkload::new(s.clone(), 1);
        let total_units = 400;
        let mut loads = 0u64;
        let mut dep = 0u64;
        let mut stores = 0u64;
        let n = (s.expected_instructions_per_unit() * total_units as f64) as u64;
        for _ in 0..n {
            let op = w.next_op();
            match op.access {
                Some((_, memsense_sim::AccessKind::Load { dependent: true })) => dep += 1,
                Some((_, memsense_sim::AccessKind::Load { dependent: false })) => loads += 1,
                Some((_, memsense_sim::AccessKind::Store)) => stores += 1,
                _ => {}
            }
        }
        let units = total_units as f64;
        // 0.4 dep probes per unit:
        assert!((dep as f64 / units - 0.4).abs() < 0.1, "dep {dep}");
        // 4 loads/line × 1 line + 0.25 gathers + 2 hot = 6.25 indep loads:
        assert!((loads as f64 / units - 6.25).abs() < 0.6, "loads {loads}");
        // 0.5 store lines × 4 stores:
        assert!((stores as f64 / units - 2.0).abs() < 0.4, "stores {stores}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = MixWorkload::new(spec(), 9);
        let mut b = MixWorkload::new(spec(), 9);
        for _ in 0..5_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = MixWorkload::new(spec(), 10);
        let differs = (0..5_000).any(|_| {
            let x = a.next_op();
            let y = c.next_op();
            x != y
        });
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn predicted_mpki_formula() {
        let s = spec();
        let misses = 1.0 + 0.5 + 0.4 + 0.25;
        let instrs = 4.0 + 2.0 + 0.4 + 0.25 + 2.0 + 50.0;
        assert!((s.predicted_mpki() - misses / instrs * 1000.0).abs() < 1e-9);
        assert!((s.expected_misses_per_unit() - misses).abs() < 1e-12);
    }

    #[test]
    fn mean_extra_cycles() {
        let s = spec();
        let want = 0.3 + 0.2 + 0.08 * 4.0 + 0.02 * 8.0;
        assert!((s.mean_extra_cycles() - want).abs() < 1e-9);
    }

    #[test]
    fn zipf_loads_skew_toward_hot_objects() {
        let mut s = MixSpec::base("zipfy");
        s.zipf_loads = 1.0;
        s.compute = 10;
        let mut w = MixWorkload::new(s, 5);
        let mut hot = 0u32;
        let mut total = 0u32;
        for _ in 0..20_000 {
            if let Some((addr, memsense_sim::AccessKind::Load { dependent: true })) =
                w.next_op().access
            {
                total += 1;
                // "Hot" = the first 256 objects (16 KiB of 16+ MiB).
                if addr < ZIPF_BASE + 256 * 64 {
                    hot += 1;
                }
            }
        }
        assert!(total > 1_000);
        let frac = hot as f64 / total as f64;
        assert!(frac > 0.3, "zipf head share {frac}");
    }

    #[test]
    fn idle_credit_emits_idle_ops() {
        let mut s = MixSpec::base("idler");
        s.compute = 10;
        s.idle_cycles_per_unit = 100.0;
        let mut w = MixWorkload::new(s, 1);
        let mut idles = 0;
        for _ in 0..1000 {
            if w.next_op().idle {
                idles += 1;
            }
        }
        assert!(idles > 50, "idle ops present: {idles}");
    }

    #[test]
    fn phase_modulation_changes_label() {
        let mut s = MixSpec::base("phased");
        s.compute = 20;
        s.phase_period = 10;
        s.phase_amplitude = 0.5;
        let mut w = MixWorkload::new(s, 1);
        let mut labels = std::collections::HashSet::new();
        for _ in 0..2_000 {
            w.next_op();
            labels.insert(w.phase().to_string());
        }
        assert!(
            labels.contains("map") && labels.contains("reduce"),
            "{labels:?}"
        );
    }

    #[test]
    #[should_panic(expected = "extra_dist must sum to 1")]
    fn invalid_dist_panics() {
        let mut s = MixSpec::base("bad");
        s.extra_dist = [0.5, 0.0, 0.0, 0.0, 0.0];
        let _ = MixWorkload::new(s, 1);
    }

    #[test]
    fn addresses_partition_by_class() {
        let mut s = MixSpec::base("addrs");
        s.seq_lines = 1.0;
        s.store_lines = 1.0;
        s.dep_probes = 1.0;
        s.nt_lines = 1.0;
        s.hot_loads = 1.0;
        s.compute = 5;
        let mut w = MixWorkload::new(s, 3);
        for _ in 0..1_000 {
            let op = w.next_op();
            if let Some((addr, kind)) = op.access {
                match kind {
                    memsense_sim::AccessKind::NonTemporalStore => {
                        assert!((NT_BASE..NT_BASE + 0x1_0000_0000).contains(&addr))
                    }
                    memsense_sim::AccessKind::Store => {
                        assert!((STORE_BASE..STORE_BASE + 0x1_0000_0000).contains(&addr))
                    }
                    memsense_sim::AccessKind::Load { dependent: true } => {
                        let in_chase = (CHASE_BASE..CHASE_BASE + 0x1_0000_0000).contains(&addr);
                        let in_zipf = (ZIPF_BASE..ZIPF_BASE + 0x1_0000_0000).contains(&addr);
                        assert!(in_chase || in_zipf);
                    }
                    memsense_sim::AccessKind::Load { dependent: false } => {
                        assert!(addr >= SCAN_BASE, "scan/gather/hot ranges")
                    }
                }
            }
        }
    }
}

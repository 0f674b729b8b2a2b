//! Golden determinism snapshots for the simulator hot path.
//!
//! The cache, TLB, scheduler, and prefetch-table data structures are
//! performance-tuned under one contract: bit-identical behavior. These tests
//! pin a mixed multi-core scenario (OLTP + Spark on a 4-core Xeon-like
//! machine) and a TLB-enabled NITS run to the exact `f64` bit patterns and
//! counter values the engine produced when the snapshots were recorded.
//! Any change to replacement decisions, scheduling order, prefetch
//! bookkeeping, or phase accounting shows up here as a bit-level diff —
//! before it silently shifts a figure or table downstream.
//!
//! If one of these fails, the fix is almost never to update the constants:
//! the engine is supposed to be deterministic, and every repro artifact is
//! downstream of these bits. Update them only for an *intentional*
//! modeling change, in the same commit that regenerates the affected
//! tables and figures.

use memsense::sim::tlb::TlbConfig;
use memsense::sim::{Machine, SimConfig};
use memsense::workloads::Workload;

/// Asserts two `f64`s are the *same bits*, printing both patterns on
/// mismatch (a plain `assert_eq!` on floats would accept -0.0 vs 0.0 and
/// hide how far apart the values drifted).
fn assert_bits(name: &str, got: f64, want_bits: u64) {
    assert_eq!(
        got.to_bits(),
        want_bits,
        "{name} drifted: got {got} (0x{:016x}), want 0x{want_bits:016x} ({})",
        got.to_bits(),
        f64::from_bits(want_bits),
    );
}

#[test]
fn mixed_workload_measurement_is_bit_stable() {
    let cfg = SimConfig::xeon_like(4);
    let mut streams = Workload::Oltp.streams(2, 0xc0);
    streams.extend(Workload::Spark.streams(2, 0xb1));
    let mut m = Machine::new(cfg, streams).expect("valid config");
    m.run_ops(30_000);
    let meas = m.measure_for_ns(60_000.0).expect("non-empty window");

    assert_bits("cpi_eff", meas.cpi_eff, 0x3ffd7f00952bb7f8);
    assert_bits("mpki", meas.mpki, 0x401ecf844dbf95d5);
    assert_bits("miss_penalty_ns", meas.miss_penalty_ns, 0x405725f50bb9a168);
    assert_bits("wbr", meas.wbr, 0x3fcbfae4408d2d65);
    assert_bits("bandwidth_gbps", meas.bandwidth_gbps, 0x4007682cc86e51a6);
    assert_bits("cpu_utilization", meas.cpu_utilization, 0x3fea0f911e89045a);
    assert_eq!(meas.instructions, 286_265, "instruction count drifted");

    let counters = m.total_counters();
    assert_eq!(
        counters.llc_demand_misses, 1_877,
        "LLC demand-miss count drifted"
    );
    assert_bits("busy_ns", counters.busy_ns, 0x41113a0f0dbec43c);
}

#[test]
fn phase_instruction_counts_are_exact_and_ordered() {
    let cfg = SimConfig::xeon_like(4);
    let mut streams = Workload::Oltp.streams(2, 0xc0);
    streams.extend(Workload::Spark.streams(2, 0xb1));
    let mut m = Machine::new(cfg, streams).expect("valid config");
    m.run_ops(30_000);
    m.measure_for_ns(60_000.0).expect("non-empty window");

    // The public API promises name-sorted (BTreeMap) iteration no matter
    // how phases are interned internally, and the per-phase totals are part
    // of the determinism contract.
    let phases: Vec<(String, u64)> = m.phase_instruction_counts().into_iter().collect();
    let want = [("map", 145_136u64), ("reduce", 80_681), ("steady", 180_448)];
    assert_eq!(phases.len(), want.len(), "phase set changed: {phases:?}");
    for ((got_name, got_count), (want_name, want_count)) in phases.iter().zip(want) {
        assert_eq!(got_name, want_name, "phase ordering/naming drifted");
        assert_eq!(
            got_count, &want_count,
            "phase {want_name} instruction count drifted"
        );
    }
}

/// Pins the paths the mixed scenario above leaves dark: a DTLB whose misses
/// charge page walks, non-temporal stores that bypass the caches, and I/O
/// credits that inject device traffic (NITS has all three).
#[test]
fn tlb_nt_store_and_io_paths_are_bit_stable() {
    let cfg = SimConfig::xeon_like(2).with_tlb(TlbConfig::dtlb_64());
    let mut m = Machine::new(cfg, Workload::Nits.streams(2, 0x5e)).expect("valid config");
    m.run_ops(30_000);
    let meas = m.measure_for_ns(60_000.0).expect("non-empty window");

    assert_bits("cpi_eff", meas.cpi_eff, 0x3ff2a2e92dc08522);
    assert_bits("mpki", meas.mpki, 0x401474f75e12ea3a);
    assert_bits("miss_penalty_ns", meas.miss_penalty_ns, 0x40548bd8a9a0fa8b);
    assert_bits("wbr", meas.wbr, 0x3ff2c7789e6cbcab);
    assert_bits("bandwidth_gbps", meas.bandwidth_gbps, 0x400cfaacd9e83e42);
    assert_bits("cpu_utilization", meas.cpu_utilization, 0x3feffc884037309b);
    assert_eq!(meas.instructions, 278_048, "instruction count drifted");

    let counters = m.total_counters();
    assert_eq!(counters.tlb_misses, 368, "TLB miss count drifted");
    assert_eq!(
        counters.nt_stores, 2_029,
        "non-temporal store count drifted"
    );
    assert_eq!(counters.io_bytes, 23_616, "I/O byte count drifted");
    assert_eq!(
        counters.llc_demand_misses, 788,
        "LLC demand-miss count drifted"
    );
    assert_bits("busy_ns", counters.busy_ns, 0x4102f22dd79f7900);
}

//! Property-based tests on the core invariants, spanning the model, stats,
//! and simulator crates.

use memsense::model::bandwidth::{bandwidth_limited_cpi, demand_system};
use memsense::model::cpi::{blocking_factor, chou_cpi, effective_cpi_raw};
use memsense::model::queueing::QueueingCurve;
use memsense::model::solver::solve_cpi;
use memsense::model::system::SystemConfig;
use memsense::model::units::{Cycles, GigaHertz, GigabytesPerSecond, Nanoseconds};
use memsense::model::workload::{Segment, WorkloadParams};
use memsense::stats::{fit_line, PiecewiseLinear};
use proptest::prelude::*;

fn arb_workload() -> impl Strategy<Value = WorkloadParams> {
    (
        0.3f64..3.0,  // cpi_cache
        0.0f64..0.8,  // bf
        0.1f64..40.0, // mpki
        0.0f64..1.5,  // wbr
    )
        .prop_map(|(cpi_cache, bf, mpki, wbr)| {
            WorkloadParams::new("prop", Segment::BigData, cpi_cache, bf, mpki, wbr).unwrap()
        })
}

fn arb_system() -> impl Strategy<Value = SystemConfig> {
    (
        1u32..=2,         // sockets
        2u32..=16,        // cores/socket
        1u32..=2,         // threads/core
        1.0f64..4.0,      // GHz
        1u32..=8,         // channels/socket
        800.0f64..3200.0, // MT/s
        0.5f64..1.0,      // efficiency
        40.0f64..150.0,   // unloaded ns
    )
        .prop_map(|(s, c, t, ghz, ch, mts, eff, lat)| {
            SystemConfig::new(s, c, t, GigaHertz(ghz), ch, mts, eff, Nanoseconds(lat)).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solver_always_converges_and_is_sane(w in arb_workload(), sys in arb_system()) {
        let curve = QueueingCurve::composite_default();
        let s = solve_cpi(&w, &sys, &curve).unwrap();
        // CPI can never be below the infinite-cache CPI.
        prop_assert!(s.cpi_eff >= w.cpi_cache - 1e-9);
        // Miss penalty at least the compulsory latency.
        prop_assert!(s.miss_penalty.value() >= sys.unloaded_latency().value() - 1e-9);
        // Demand never exceeds supply at the converged point (Eq. 4 with
        // BW = available is the ceiling).
        prop_assert!(s.utilization <= 1.0 + 1e-6);
        prop_assert!(s.bandwidth_demand.value() >= 0.0);
    }

    #[test]
    fn solver_monotone_in_latency(w in arb_workload(), sys in arb_system(), extra in 1.0f64..100.0) {
        let curve = QueueingCurve::composite_default();
        let base = solve_cpi(&w, &sys, &curve).unwrap();
        let slower = sys.clone().with_unloaded_latency(
            Nanoseconds(sys.unloaded_latency().value() + extra)).unwrap();
        let worse = solve_cpi(&w, &slower, &curve).unwrap();
        prop_assert!(worse.cpi_eff >= base.cpi_eff - 1e-9,
            "adding latency cannot reduce CPI: {} -> {}", base.cpi_eff, worse.cpi_eff);
    }

    #[test]
    fn solver_monotone_in_bandwidth(w in arb_workload(), sys in arb_system(), factor in 1.05f64..4.0) {
        let curve = QueueingCurve::composite_default();
        let base = solve_cpi(&w, &sys, &curve).unwrap();
        let wider = sys.clone().with_channel_speed(
            sys.channel_mega_transfers() * factor).unwrap();
        let better = solve_cpi(&w, &wider, &curve).unwrap();
        prop_assert!(better.cpi_eff <= base.cpi_eff + 1e-9,
            "adding bandwidth cannot raise CPI: {} -> {}", base.cpi_eff, better.cpi_eff);
    }

    #[test]
    fn eq1_eq2_equivalence(
        cpi_cache in 0.3f64..3.0,
        overlap in 0.0f64..0.95,
        mpi in 0.0005f64..0.05,
        mp in 50.0f64..1000.0,
        mlp in 1.0f64..16.0,
    ) {
        let bf = blocking_factor(cpi_cache, overlap, mpi, Cycles(mp), mlp);
        let via1 = effective_cpi_raw(cpi_cache, mpi, Cycles(mp), bf);
        let via2 = chou_cpi(cpi_cache, overlap, mpi, Cycles(mp), mlp);
        prop_assert!((via1 - via2).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_limited_cpi_inverts_demand(
        w in arb_workload(),
        avail in 1.0f64..200.0,
        ghz in 1.0f64..4.0,
        threads in 1u32..64,
    ) {
        let cpi = bandwidth_limited_cpi(&w, GigabytesPerSecond(avail), GigaHertz(ghz), threads).unwrap();
        let demand = demand_system(&w, cpi, GigaHertz(ghz), threads);
        prop_assert!((demand.value() - avail).abs() < 1e-6);
    }

    #[test]
    fn queueing_curve_monotone_everywhere(points in proptest::collection::vec((0.0f64..1.0, 0.0f64..200.0), 2..20)) {
        // Sort by utilization, force monotone delays, then the curve must
        // evaluate monotonically.
        let mut pts = points;
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut maxd = 0.0f64;
        for p in &mut pts {
            maxd = maxd.max(p.1);
            p.1 = maxd;
        }
        if let Ok(curve) = QueueingCurve::from_measurements(pts, 0.95) {
            let mut last = -1.0;
            for i in 0..=100 {
                let d = curve.delay(i as f64 / 100.0).value();
                prop_assert!(d >= last - 1e-12);
                last = d;
            }
        }
    }

    #[test]
    fn line_fit_recovers_exact_lines(
        slope in -5.0f64..5.0,
        intercept in -10.0f64..10.0,
        xs in proptest::collection::vec(-100.0f64..100.0, 3..30),
    ) {
        // Need variance in x.
        let spread = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        prop_assume!(spread > 1e-6);
        let ys: Vec<f64> = xs.iter().map(|x| intercept + slope * x).collect();
        let fit = fit_line(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6);
        prop_assert!((fit.intercept - intercept).abs() < 1e-4);
    }

    #[test]
    fn piecewise_linear_within_knot_bounds(
        knots in proptest::collection::vec((0.0f64..100.0, -50.0f64..50.0), 2..12),
        x in -10.0f64..110.0,
    ) {
        let mut ks = knots;
        ks.sort_by(|a, b| a.0.total_cmp(&b.0));
        ks.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
        prop_assume!(ks.len() >= 2);
        let f = PiecewiseLinear::new(ks.clone()).unwrap();
        let lo = ks.iter().map(|k| k.1).fold(f64::MAX, f64::min);
        let hi = ks.iter().map(|k| k.1).fold(f64::MIN, f64::max);
        let y = f.eval(x);
        prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9, "interpolation stays in bounds");
    }

    #[test]
    fn units_roundtrip(ns in 0.1f64..1000.0, ghz in 0.5f64..5.0) {
        let cycles = Nanoseconds(ns).to_cycles(GigaHertz(ghz));
        let back = cycles.to_nanoseconds(GigaHertz(ghz));
        prop_assert!((back.value() - ns).abs() < 1e-9);
    }
}

mod extension_properties {
    use super::*;
    use memsense::model::hierarchy::{hierarchical_cpi, TieredMemory};
    use memsense::model::numa::{solve_numa, NumaConfig};
    use memsense::stats::Histogram;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn numa_penalty_bounded_by_hop(
            w in arb_workload(),
            frac in 0.0f64..1.0,
            hop in 0.0f64..200.0,
        ) {
            let sys = SystemConfig::characterization_platform();
            let curve = QueueingCurve::composite_default();
            let numa = NumaConfig::new(frac, Nanoseconds(hop)).unwrap();
            let local = solve_numa(&w, &sys, &curve, &NumaConfig::local_only()).unwrap();
            let mixed = solve_numa(&w, &sys, &curve, &numa).unwrap();
            // Remote traffic can only hurt, and by no more than the full
            // hop applied to every miss.
            prop_assert!(mixed.cpi_eff >= local.cpi_eff - 1e-9);
            let ghz = sys.core_clock().value();
            let ceiling = local.cpi_eff + w.mpi() * hop * ghz * w.bf + 1e-6;
            prop_assert!(mixed.cpi_eff <= ceiling,
                "penalty bounded: {} vs ceiling {}", mixed.cpi_eff, ceiling);
        }

        #[test]
        fn hierarchy_cpi_monotone_in_far_latency(
            w in arb_workload(),
            near_hit in 0.0f64..1.0,
            far_a in 50.0f64..300.0,
            extra in 1.0f64..500.0,
        ) {
            let clock = GigaHertz(2.7);
            let a = TieredMemory::two_tier(near_hit, Nanoseconds(40.0), Nanoseconds(far_a)).unwrap();
            let b = TieredMemory::two_tier(near_hit, Nanoseconds(40.0), Nanoseconds(far_a + extra)).unwrap();
            prop_assert!(hierarchical_cpi(&w, &b, clock) >= hierarchical_cpi(&w, &a, clock) - 1e-12);
        }

        #[test]
        fn hierarchy_average_latency_is_convex_combination(
            near_hit in 0.0f64..1.0,
            near in 10.0f64..100.0,
            far in 100.0f64..500.0,
        ) {
            let mem = TieredMemory::two_tier(near_hit, Nanoseconds(near), Nanoseconds(far)).unwrap();
            let avg = mem.average_latency().value();
            prop_assert!(avg >= near - 1e-9 && avg <= far + 1e-9);
        }

        #[test]
        fn histogram_conserves_samples(
            samples in proptest::collection::vec(-1000.0f64..1000.0, 1..300),
            bins in 1usize..40,
        ) {
            let h = Histogram::from_samples(&samples, bins).unwrap();
            let binned: u64 = h.bins().iter().sum();
            let (below, above) = h.outliers();
            prop_assert_eq!(binned + below + above, samples.len() as u64);
            prop_assert_eq!(h.count(), samples.len() as u64);
        }

        #[test]
        fn colocation_interference_at_least_one(
            a in arb_workload(),
            b in arb_workload(),
            ta in 1u32..8,
            tb in 1u32..8,
        ) {
            use memsense::model::colocation::{solve_colocated, Tenant};
            let sys = SystemConfig::paper_baseline();
            let curve = QueueingCurve::composite_default();
            let solved = solve_colocated(
                &[
                    Tenant { workload: a, threads: ta },
                    Tenant { workload: b, threads: tb },
                ],
                &sys,
                &curve,
            ).unwrap();
            for t in &solved.tenants {
                prop_assert!(t.interference >= 1.0 - 1e-6,
                    "a neighbour cannot speed you up: {}", t.interference);
                prop_assert!(t.cpi_eff.is_finite() && t.cpi_eff > 0.0);
            }
            prop_assert!(solved.utilization <= 1.0 + 1e-6);
        }

        #[test]
        fn zipf_sampler_always_in_range(
            n in 1usize..5000,
            theta in 0.0f64..2.0,
            seed in any::<u64>(),
        ) {
            let mut z = memsense::workloads::patterns::ZipfSampler::new(n, theta, seed);
            for _ in 0..50 {
                prop_assert!(z.sample() < n);
            }
        }
    }
}

mod sim_properties {
    use super::*;
    use memsense::sim::cache::{CacheHierarchy, HitLevel};
    use memsense::sim::config::{MemoryConfig, SimConfig};
    use memsense::sim::mem::MemoryController;
    use memsense::sim::tlb::TlbConfig;
    use memsense::sim::trace::{BoxedStream, PatternStream};
    use memsense::sim::{Machine, Op};

    /// Op `i` of a random pattern: `kind` picks compute, idle, load,
    /// dependent load, store or non-temporal store. A sequential pattern
    /// walks 16-byte elements in order (so the stream prefetcher trains and
    /// its fills are used); a random one hops between pages over 1 MiB.
    /// Long patterns outgrow the 40 KiB LLC, so dirty lines are evicted by
    /// demand misses and prefetch fills alike.
    fn pattern_op(i: usize, kind: u8, offset: u64, sequential: bool) -> Op {
        let addr = if sequential {
            i as u64 * 16
        } else {
            (offset + i as u64 * 4160) % (1 << 20)
        };
        match kind {
            0 => Op::compute(),
            1 => Op::idle(3),
            2 | 3 => Op::load(addr),
            4 => Op::dependent_load(addr),
            5 | 6 => Op::store(addr),
            _ => Op::nt_store(addr),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every request the memory controllers see has one source: a
        /// demand LLC miss, a prefetch fill, a dirty-victim writeback, a
        /// non-temporal store or a line of I/O (no background agents run),
        /// and each moves one line.
        #[test]
        fn machine_conserves_memory_requests(
            cores in 1u32..=4,
            tlb in any::<bool>(),
            prefetch in any::<bool>(),
            sequential in any::<bool>(),
            io in any::<bool>(),
            io_rate in 0.0f64..8.0,
            ops in proptest::collection::vec((0u8..8, 0u64..(1 << 20)), 1..96),
            repeats in 1usize..256,
        ) {
            let mut cfg = SimConfig::xeon_like(cores).with_prefetcher(prefetch);
            if tlb {
                cfg = cfg.with_tlb(TlbConfig::dtlb_64());
            }
            let line = cfg.line_size as u64;
            let pattern: Vec<Op> = ops
                .iter()
                .cycle()
                .take(ops.len() * repeats)
                .enumerate()
                .map(|(i, &(kind, offset))| pattern_op(i, kind, offset, sequential))
                .collect();
            let proto = PatternStream::new(pattern).with_io_rate(if io { io_rate } else { 0.0 });
            let streams: Vec<BoxedStream> = (0..cores)
                .map(|_| Box::new(proto.clone()) as BoxedStream)
                .collect();
            let mut m = Machine::new(cfg, streams).unwrap();
            m.run_ops(20_000);
            let c = m.total_counters();
            let s = m.memory_stats();
            prop_assert_eq!(
                s.reads + s.writes,
                c.llc_demand_misses + c.prefetch_fills + c.writebacks + c.nt_stores
                    + c.io_bytes / line
            );
            prop_assert_eq!(s.read_bytes + s.write_bytes, line * (s.reads + s.writes));
        }

        #[test]
        fn cache_second_access_always_hits(addrs in proptest::collection::vec(0u64..(1<<24), 1..200)) {
            let cfg = SimConfig::xeon_like(1);
            let mut h = CacheHierarchy::new(&cfg);
            for &a in &addrs {
                h.access(a, false);
                let again = h.access(a, false);
                prop_assert_eq!(again.level, HitLevel::L1, "immediate re-access is an L1 hit");
            }
        }

        #[test]
        fn memory_latency_at_least_unloaded(
            reqs in proptest::collection::vec((0u64..(1<<28), any::<bool>(), 0.0f64..10_000.0), 1..300)
        ) {
            let mut m = MemoryController::new(MemoryConfig::ddr3_1867(), 64);
            let unloaded = m.unloaded_latency_ns();
            let mut sorted = reqs;
            sorted.sort_by(|a, b| a.2.total_cmp(&b.2));
            for (addr, write, t) in sorted {
                let r = m.request(t, addr & !63, write);
                prop_assert!(r.latency_ns >= unloaded - 1e-6);
                prop_assert!(r.complete_ns >= t);
            }
        }

        #[test]
        fn memory_stats_conserve_bytes(
            n_reads in 1u64..200, n_writes in 1u64..200
        ) {
            let mut m = MemoryController::new(MemoryConfig::ddr3_1867(), 64);
            for i in 0..n_reads {
                m.request(i as f64, i * 64, false);
            }
            for i in 0..n_writes {
                m.request(i as f64, (i + 10_000) * 64, true);
            }
            let s = m.stats();
            prop_assert_eq!(s.reads, n_reads);
            prop_assert_eq!(s.writes, n_writes);
            prop_assert_eq!(s.total_bytes(), (n_reads + n_writes) * 64);
        }
    }
}

// ---------------------------------------------------------------------------
// Executor-facing invariants: the solver must be safe to call concurrently.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `solve_cpi` takes only shared references and keeps no mutable state
    /// besides the relaxed telemetry counters, so concurrent calls sharing
    /// one `SystemConfig` and one `QueueingCurve` must return exactly the
    /// serial results — the invariant the parallel experiment executor
    /// relies on for byte-identical tables.
    #[test]
    fn solve_cpi_is_thread_safe_under_shared_inputs(
        ws in proptest::collection::vec(arb_workload(), 4..12),
        sys in arb_system()
    ) {
        let curve = QueueingCurve::composite_default();
        let serial: Vec<_> = ws.iter()
            .map(|w| solve_cpi(w, &sys, &curve).unwrap())
            .collect();
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = ws.iter()
                .map(|w| {
                    let (sys, curve) = (&sys, &curve);
                    scope.spawn(move || solve_cpi(w, sys, curve).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (s, c) in serial.iter().zip(&concurrent) {
            prop_assert_eq!(s.cpi_eff.to_bits(), c.cpi_eff.to_bits(),
                "CPI must be bitwise identical: {} vs {}", s.cpi_eff, c.cpi_eff);
            prop_assert_eq!(s.iterations, c.iterations);
            prop_assert_eq!(s.regime, c.regime);
            prop_assert_eq!(s.miss_penalty.value().to_bits(),
                c.miss_penalty.value().to_bits());
        }
    }
}

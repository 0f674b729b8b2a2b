//! Multi-phase workloads (paper Sec. IV.D).
//!
//! Real jobs alternate between distinct behaviours — Spark's map vs shuffle,
//! OLTP's transactions vs checkpoints, a JVM's mutator vs GC. The paper
//! handles this by modeling phases independently and weighting them by
//! instruction count. [`MultiPhaseWorkload`] composes [`MixSpec`]s into such
//! a job: each phase runs for a configured number of instructions, with the
//! phase label exposed so samplers can attribute counters.

use memsense_sim::trace::{InstructionStream, Op, OpBlock};

use crate::mix::{MixSpec, MixWorkload};

/// One phase of a multi-phase job.
#[derive(Debug)]
pub struct Phase {
    /// Label surfaced through [`InstructionStream::phase`].
    pub label: String,
    /// Instructions the phase runs before yielding to the next.
    pub instructions: u64,
    generator: MixWorkload,
}

impl Phase {
    /// Creates a phase running `spec` for `instructions` retired ops.
    ///
    /// # Panics
    ///
    /// Panics when `instructions` is zero or the spec is invalid.
    pub fn new(label: impl Into<String>, spec: MixSpec, instructions: u64, seed: u64) -> Self {
        assert!(instructions > 0, "phase must run at least one instruction");
        Phase {
            label: label.into(),
            instructions,
            generator: MixWorkload::new(spec, seed),
        }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &MixSpec {
        self.generator.spec()
    }
}

/// A workload cycling through phases round-robin by instruction budget.
#[derive(Debug)]
pub struct MultiPhaseWorkload {
    phases: Vec<Phase>,
    current: usize,
    retired_in_phase: u64,
}

impl MultiPhaseWorkload {
    /// Builds the job from its phases.
    ///
    /// # Panics
    ///
    /// Panics when `phases` is empty.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "at least one phase required");
        MultiPhaseWorkload {
            phases,
            current: 0,
            retired_in_phase: 0,
        }
    }

    /// Relative instruction weights of the phases, for feeding
    /// `memsense_model::phases::PhasedWorkload`.
    pub fn weights(&self) -> Vec<f64> {
        self.phases.iter().map(|p| p.instructions as f64).collect()
    }

    /// Clones of the per-phase specs, in phase order.
    pub fn phase_specs(&self) -> Vec<MixSpec> {
        self.phases.iter().map(|p| p.spec().clone()).collect()
    }
}

impl InstructionStream for MultiPhaseWorkload {
    fn next_op(&mut self) -> Op {
        if self.retired_in_phase >= self.phases[self.current].instructions {
            self.current = (self.current + 1) % self.phases.len();
            self.retired_in_phase = 0;
        }
        // Pull from the current phase's generator; only count retired
        // instructions (idle ops don't advance the budget).
        let op = self.phases[self.current].generator.next_op();
        if !op.idle {
            self.retired_in_phase += 1;
        }
        op
    }

    fn phase(&self) -> &str {
        &self.phases[self.current].label
    }

    fn io_bytes_per_instruction(&self) -> f64 {
        self.phases[self.current].spec().io_bytes_per_instr
    }

    fn fill_block(&mut self, block: &mut OpBlock, n: usize) {
        block.clear();
        let mut filled = 0;
        while filled < n {
            if self.retired_in_phase >= self.phases[self.current].instructions {
                self.current = (self.current + 1) % self.phases.len();
                self.retired_in_phase = 0;
            }
            // Pull ops from the current phase until it exhausts its budget
            // or the block is full; the generator call is direct (no virtual
            // dispatch) and the phase/io annotations are recorded once per
            // run instead of once per op. As in `next_op`, the op that
            // retires the last budgeted instruction still carries this
            // phase's label — the switch happens before the *next* pull.
            let p = &mut self.phases[self.current];
            let budget = p.instructions;
            let mut run = 0u32;
            while filled < n && self.retired_in_phase < budget {
                let op = p.generator.next_op();
                if !op.idle {
                    self.retired_in_phase += 1;
                }
                block.push_op(op);
                run += 1;
                filled += 1;
            }
            block.note_phase_n(&p.label, run);
            block.note_io_n(p.generator.spec().io_bytes_per_instr, run);
        }
    }
}

/// A ready-made two-phase Spark-like job: a memory-heavy shuffle phase and a
/// compute-heavy map phase, 1:3 by instructions.
pub fn spark_job(seed: u64) -> MultiPhaseWorkload {
    let shuffle = MixSpec {
        seq_lines: 0.5,
        store_lines: 1.8,
        dep_probes: 0.8,
        compute: 260,
        extra_dist: [0.70, 0.20, 0.07, 0.03, 0.0],
        ..MixSpec::base("shuffle")
    };
    let map = MixSpec {
        seq_lines: 0.4,
        store_lines: 0.3,
        hot_loads: 4.0,
        compute: 420,
        extra_dist: [0.60, 0.25, 0.10, 0.05, 0.0],
        ..MixSpec::base("map")
    };
    MultiPhaseWorkload::new(vec![
        Phase::new("shuffle", shuffle, 25_000, seed),
        Phase::new("map", map, 75_000, seed ^ 0xabc),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsense_sim::{Machine, SimConfig};

    #[test]
    fn phases_alternate_by_instruction_budget() {
        let a = MixSpec {
            compute: 10,
            ..MixSpec::base("a")
        };
        let b = MixSpec {
            compute: 10,
            ..MixSpec::base("b")
        };
        let mut w =
            MultiPhaseWorkload::new(vec![Phase::new("a", a, 100, 1), Phase::new("b", b, 50, 2)]);
        let mut seen = Vec::new();
        for _ in 0..300 {
            w.next_op();
            seen.push(w.phase().to_string());
        }
        assert!(seen[..90].iter().all(|p| p == "a"));
        assert!(seen[110..140].iter().all(|p| p == "b"));
        assert!(seen[160..240].iter().all(|p| p == "a"), "wraps around");
    }

    #[test]
    fn weights_reflect_instruction_budgets() {
        let job = spark_job(7);
        assert_eq!(job.weights(), vec![25_000.0, 75_000.0]);
    }

    #[test]
    fn spark_job_phases_have_distinct_cpi() {
        // Measure each phase in isolation on the testbed: shuffle must be
        // memory-heavier (higher MPKI) than map.
        let measure = |spec: MixSpec| {
            let cfg = SimConfig::xeon_like(2);
            let streams: Vec<memsense_sim::trace::BoxedStream> = (0..2)
                .map(|t| {
                    Box::new(MixWorkload::new(spec.clone(), 13 + t))
                        as memsense_sim::trace::BoxedStream
                })
                .collect();
            let mut m = Machine::new(cfg, streams).unwrap();
            m.run_ops(40_000);
            m.measure_for_ns(60_000.0).unwrap()
        };
        let job = spark_job(1);
        let shuffle = measure(job.phases[0].spec().clone());
        let map = measure(job.phases[1].spec().clone());
        assert!(
            shuffle.mpki > 2.0 * map.mpki,
            "shuffle {} vs map {}",
            shuffle.mpki,
            map.mpki
        );
    }

    #[test]
    fn multiphase_runs_on_machine() {
        let cfg = SimConfig::xeon_like(1);
        let mut m = Machine::new(cfg, vec![Box::new(spark_job(3))]).unwrap();
        m.run_ops(150_000);
        let c = m.total_counters();
        assert!(c.instructions >= 150_000);
        assert!(c.llc_demand_misses > 0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let _ = MultiPhaseWorkload::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn zero_budget_rejected() {
        let _ = Phase::new("x", MixSpec::base("x"), 0, 1);
    }
}

//! Trace recording and replay.
//!
//! The paper's methodology requires running the *same* workload at many
//! operating points (frequency × memory-speed sweeps). For generated
//! workloads that is guaranteed by seeding; [`Trace::record`] and
//! [`ReplayStream`] extend the guarantee to any stream by capturing a finite
//! op trace once and replaying it (looped) everywhere. The `phase_profiling`
//! example records a multi-phase job this way.

use std::sync::Arc;

use crate::trace::{InstructionStream, Op};

/// A finite recorded trace.
///
/// The op buffer is `Arc`-shared: cloning a trace or building replay streams
/// from it never copies the ops, so an N-core replay holds one buffer, not N.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    ops: Arc<[Op]>,
    io_bytes_per_instruction: f64,
}

impl Trace {
    /// Records `n` ops from `stream`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (a replayable trace needs at least one op).
    pub fn record<S: InstructionStream + ?Sized>(stream: &mut S, n: usize) -> Self {
        assert!(n > 0, "trace must contain at least one op");
        let ops: Vec<Op> = (0..n).map(|_| stream.next_op()).collect();
        Trace {
            ops: ops.into(),
            io_bytes_per_instruction: stream.io_bytes_per_instruction(),
        }
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty (never true for constructed traces).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Instructions (non-idle ops) in the trace.
    pub fn instructions(&self) -> usize {
        self.ops.iter().filter(|o| !o.idle).count()
    }

    /// Memory accesses in the trace.
    pub fn memory_accesses(&self) -> usize {
        self.ops.iter().filter(|o| o.access.is_some()).count()
    }

    /// Creates a looping replay stream over this trace. The stream shares
    /// the recorded op buffer — no copy per replaying core.
    pub fn replay(&self) -> ReplayStream {
        ReplayStream {
            ops: Arc::clone(&self.ops),
            io_bytes_per_instruction: self.io_bytes_per_instruction,
            next: 0,
        }
    }
}

/// An [`InstructionStream`] that loops over a recorded [`Trace`] forever.
/// Clones share the op buffer; each clone keeps a private cursor.
#[derive(Debug, Clone)]
pub struct ReplayStream {
    ops: Arc<[Op]>,
    io_bytes_per_instruction: f64,
    next: usize,
}

impl InstructionStream for ReplayStream {
    fn next_op(&mut self) -> Op {
        let op = self.ops[self.next];
        self.next = (self.next + 1) % self.ops.len();
        op
    }

    fn phase(&self) -> &str {
        "replay"
    }

    fn io_bytes_per_instruction(&self) -> f64 {
        self.io_bytes_per_instruction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{BoxedStream, PatternStream};

    fn pattern() -> PatternStream {
        PatternStream::new(vec![Op::compute(), Op::load(64), Op::store(4096)]).with_io_rate(1.5)
    }

    #[test]
    fn record_and_replay_identical() {
        let mut original = pattern();
        let trace = Trace::record(&mut original, 9);
        assert_eq!(trace.len(), 9);
        assert_eq!(trace.instructions(), 9);
        assert_eq!(trace.memory_accesses(), 6);

        let mut replay = trace.replay();
        let mut fresh = pattern();
        for _ in 0..30 {
            assert_eq!(replay.next_op(), fresh.next_op());
        }
        assert_eq!(replay.io_bytes_per_instruction(), 1.5);
        assert_eq!(replay.phase(), "replay");
    }

    #[test]
    fn replay_loops() {
        let mut src = PatternStream::new(vec![Op::compute(), Op::load(0)]);
        let trace = Trace::record(&mut src, 2);
        let mut r = trace.replay();
        assert_eq!(r.next_op(), Op::compute());
        assert_eq!(r.next_op(), Op::load(0));
        assert_eq!(r.next_op(), Op::compute());
    }

    #[test]
    fn replayed_trace_drives_machine_like_the_live_stream() {
        use crate::config::SimConfig;
        use crate::engine::Machine;
        // Ops of unequal cost, so any shift in the replayed sequence moves
        // `busy_ns`; the I/O rate shows up as DMA writes. The trace holds a
        // whole number of the 5-op periods, so the looped replay yields
        // exactly the live stream's op sequence.
        let live = || {
            PatternStream::new(vec![
                Op::compute_heavy(30),
                Op::load(0x10_0000),
                Op::store(0x20_0000),
                Op::dependent_load(0x40_0000),
                Op::idle(200),
            ])
            .with_io_rate(1.5)
        };
        let trace = Trace::record(&mut live(), 5 * 16);
        let run = |stream: BoxedStream| {
            let mut m = Machine::new(SimConfig::xeon_like(1), vec![stream]).unwrap();
            m.run_ops(1_000);
            let c = m.total_counters();
            (c.instructions, c.busy_ns.to_bits(), m.memory_stats())
        };
        let replayed = run(Box::new(trace.replay()));
        assert!(replayed.0 > 0 && replayed.2.write_bytes > 0);
        assert_eq!(replayed, run(Box::new(live())));
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_trace_rejected() {
        let _ = Trace::record(&mut pattern(), 0);
    }

    #[test]
    fn idle_ops_not_counted_as_instructions() {
        let mut src = PatternStream::new(vec![Op::compute(), Op::idle(10)]);
        let trace = Trace::record(&mut src, 2);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.instructions(), 1);
    }
}

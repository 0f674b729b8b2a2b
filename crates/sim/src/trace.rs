//! The instruction-stream abstraction between workloads and the engine.
//!
//! A workload is an infinite generator of [`Op`]s — retired instructions with
//! optional memory or I/O side effects. The engine pulls one [`OpBlock`] per
//! scheduling quantum per hardware thread, then executes its ops in order;
//! phase labels let samplers attribute counters to workload phases (paper
//! Sec. IV.D).

/// Kind of memory access an instruction performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load. `dependent` loads cannot issue until every older outstanding
    /// miss has completed (pointer chasing); independent loads overlap.
    Load {
        /// Whether the load serializes behind outstanding misses.
        dependent: bool,
    },
    /// A store (write-allocate, written back on eviction).
    Store,
    /// A non-temporal store: bypasses the cache hierarchy and writes straight
    /// to memory (the NITS workload's >100% writeback rate, paper Tab. 2).
    NonTemporalStore,
}

/// One retired instruction — or, when `idle` is set, a halted interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Extra execution cycles this instruction costs beyond the pipelined
    /// `1 / issue_width` (data dependencies, long-latency ALU ops, …).
    /// This is what gives each workload its distinct `CPI_cache`.
    /// For idle ops, this is the halted duration in cycles.
    pub extra_cycles: u32,
    /// Optional memory access: byte address and kind.
    pub access: Option<(u64, AccessKind)>,
    /// When true, the op represents halted time: the thread is idle for
    /// `extra_cycles` and *no instruction retires*. Used to model the
    /// sub-100% CPU utilization of Spark or web caching (paper Figs. 2/4)
    /// without diluting CPI — the paper notes halted idle "does not include
    /// spinning … and thus the CPI is not diluted" (Sec. V.J).
    pub idle: bool,
}

impl Op {
    /// A plain single-slot compute instruction.
    pub fn compute() -> Self {
        Op {
            extra_cycles: 0,
            access: None,
            idle: false,
        }
    }

    /// A compute instruction with extra latency cycles.
    pub fn compute_heavy(extra_cycles: u32) -> Self {
        Op {
            extra_cycles,
            access: None,
            idle: false,
        }
    }

    /// A halted interval of `cycles` core cycles (no instruction retires).
    pub fn idle(cycles: u32) -> Self {
        Op {
            extra_cycles: cycles,
            access: None,
            idle: true,
        }
    }

    /// An independent (overlappable) load.
    pub fn load(addr: u64) -> Self {
        Op {
            extra_cycles: 0,
            access: Some((addr, AccessKind::Load { dependent: false })),
            idle: false,
        }
    }

    /// A dependent load: serializes behind all outstanding misses.
    pub fn dependent_load(addr: u64) -> Self {
        Op {
            extra_cycles: 0,
            access: Some((addr, AccessKind::Load { dependent: true })),
            idle: false,
        }
    }

    /// A cacheable store.
    pub fn store(addr: u64) -> Self {
        Op {
            extra_cycles: 0,
            access: Some((addr, AccessKind::Store)),
            idle: false,
        }
    }

    /// A non-temporal store.
    pub fn nt_store(addr: u64) -> Self {
        Op {
            extra_cycles: 0,
            access: Some((addr, AccessKind::NonTemporalStore)),
            idle: false,
        }
    }
}

/// A reusable block of ops plus run-length-encoded phase/I/O sidecars — the
/// unit the engine pulls per scheduling quantum instead of one op at a time.
///
/// Phase labels and I/O rates change rarely (phase boundaries, refills), so
/// both are stored as `(op count, value)` runs covering the block in order.
/// Labels are interned into a grow-only pool so steady-state filling
/// allocates nothing.
#[derive(Debug, Default)]
pub struct OpBlock {
    /// Ops in stream order. Filled by [`InstructionStream::fill_block`].
    pub ops: Vec<Op>,
    /// Grow-only label intern pool (stable indices).
    labels: Vec<String>,
    /// `(op count, label pool index)` runs covering `ops` in order.
    phase_runs: Vec<(u32, u32)>,
    /// `(op count, io bytes per instruction)` runs covering `ops` in order.
    io_runs: Vec<(u32, f64)>,
}

impl OpBlock {
    /// Creates an empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears ops and runs; the label pool is retained so refills stay
    /// allocation-free.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.phase_runs.clear();
        self.io_runs.clear();
    }

    /// Appends one op.
    #[inline]
    pub fn push_op(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Attributes the most recently pushed op to `label`.
    #[inline]
    pub fn note_phase(&mut self, label: &str) {
        if let Some((n, idx)) = self.phase_runs.last_mut() {
            if self.labels[*idx as usize] == label {
                *n += 1;
                return;
            }
        }
        self.start_phase_run(label, 1);
    }

    /// Attributes the `n` most recently pushed ops to `label`.
    pub fn note_phase_n(&mut self, label: &str, n: u32) {
        if n == 0 {
            return;
        }
        if let Some((run_n, idx)) = self.phase_runs.last_mut() {
            if self.labels[*idx as usize] == label {
                *run_n += n;
                return;
            }
        }
        self.start_phase_run(label, n);
    }

    fn start_phase_run(&mut self, label: &str, n: u32) {
        let idx = match self.labels.iter().position(|l| l == label) {
            Some(i) => i as u32,
            None => {
                self.labels.push(label.to_string());
                self.labels.len() as u32 - 1
            }
        };
        self.phase_runs.push((n, idx));
    }

    /// Records the I/O rate in effect for the most recently pushed op.
    #[inline]
    pub fn note_io(&mut self, rate: f64) {
        self.note_io_n(rate, 1);
    }

    /// Records the I/O rate in effect for the `n` most recently pushed ops.
    pub fn note_io_n(&mut self, rate: f64, n: u32) {
        if n == 0 {
            return;
        }
        if let Some((run_n, run_rate)) = self.io_runs.last_mut() {
            if run_rate.to_bits() == rate.to_bits() {
                *run_n += n;
                return;
            }
        }
        self.io_runs.push((n, rate));
    }

    /// Number of phase runs covering the block.
    pub fn phase_run_count(&self) -> usize {
        self.phase_runs.len()
    }

    /// The `i`-th phase run as `(op count, label)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn phase_run(&self, i: usize) -> (u32, &str) {
        let (n, idx) = self.phase_runs[i];
        (n, &self.labels[idx as usize])
    }

    /// The `i`-th I/O run as `(op count, rate)`, or `(0, 0.0)` past the end
    /// (so cursor arithmetic needs no bounds branches).
    pub fn io_run(&self, i: usize) -> (u32, f64) {
        self.io_runs.get(i).copied().unwrap_or((0, 0.0))
    }
}

/// An infinite instruction stream bound to one hardware thread.
///
/// Implementors are the workload generators in `memsense-workloads`; the
/// engine pulls a block of ops per scheduling quantum via
/// [`InstructionStream::fill_block`] (one dynamic dispatch per block).
pub trait InstructionStream {
    /// Produces the next retired instruction.
    fn next_op(&mut self) -> Op;

    /// A short label for the currently executing phase ("scan", "probe",
    /// "gc", …). Used by samplers; defaults to `"steady"`.
    fn phase(&self) -> &str {
        "steady"
    }

    /// I/O bytes of DMA traffic this thread's device activity should inject
    /// per retired instruction (`IOPI × IOSZ` from Eq. 4). Zero by default.
    fn io_bytes_per_instruction(&self) -> f64 {
        0.0
    }

    /// Fills `block` with the next `n` ops plus their phase/I/O sidecars.
    ///
    /// Must be equivalent to `n` successive `next_op` calls, where each op
    /// is annotated with the `phase()` and `io_bytes_per_instruction()`
    /// values observable immediately after that `next_op` returned. The
    /// default body does exactly that; since default methods are
    /// monomorphized per implementor, the inner calls are static — one
    /// dynamic dispatch per block instead of three per op. Generators with
    /// internal op buffers override this to drain them in bulk.
    fn fill_block(&mut self, block: &mut OpBlock, n: usize) {
        block.clear();
        for _ in 0..n {
            let op = self.next_op();
            block.push_op(op);
            block.note_phase(self.phase());
            block.note_io(self.io_bytes_per_instruction());
        }
    }
}

/// A boxed stream, the form the engine consumes.
pub type BoxedStream = Box<dyn InstructionStream>;

/// A trivial stream for tests and micro-benchmarks: cycles through a fixed
/// pattern of ops.
///
/// The op buffer is immutable and `Arc`-shared: cloning the stream (one per
/// hardware thread) shares the pattern and gives each clone its own cursor.
#[derive(Debug, Clone)]
pub struct PatternStream {
    ops: std::sync::Arc<[Op]>,
    next: usize,
    io_rate: f64,
}

impl PatternStream {
    /// Creates a stream cycling through `ops` forever.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(ops: Vec<Op>) -> Self {
        assert!(!ops.is_empty(), "pattern must not be empty");
        PatternStream {
            ops: ops.into(),
            next: 0,
            io_rate: 0.0,
        }
    }

    /// Sets the per-instruction I/O byte rate.
    pub fn with_io_rate(mut self, bytes_per_instr: f64) -> Self {
        self.io_rate = bytes_per_instr;
        self
    }
}

impl InstructionStream for PatternStream {
    fn next_op(&mut self) -> Op {
        let op = self.ops[self.next];
        self.next = (self.next + 1) % self.ops.len();
        op
    }

    fn io_bytes_per_instruction(&self) -> f64 {
        self.io_rate
    }

    fn fill_block(&mut self, block: &mut OpBlock, n: usize) {
        block.clear();
        let mut filled = 0;
        while filled < n {
            let take = (n - filled).min(self.ops.len() - self.next);
            block
                .ops
                .extend_from_slice(&self.ops[self.next..self.next + take]);
            self.next = (self.next + take) % self.ops.len();
            filled += take;
        }
        block.note_phase_n("steady", n as u32);
        block.note_io_n(self.io_rate, n as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_op() {
        let op = Op::idle(100);
        assert!(op.idle);
        assert_eq!(op.extra_cycles, 100);
        assert_eq!(op.access, None);
    }

    #[test]
    fn constructors_set_kinds() {
        assert_eq!(Op::compute().access, None);
        assert_eq!(Op::compute_heavy(3).extra_cycles, 3);
        assert!(matches!(
            Op::load(64).access,
            Some((64, AccessKind::Load { dependent: false }))
        ));
        assert!(matches!(
            Op::dependent_load(128).access,
            Some((128, AccessKind::Load { dependent: true }))
        ));
        assert!(matches!(Op::store(0).access, Some((0, AccessKind::Store))));
        assert!(matches!(
            Op::nt_store(0).access,
            Some((0, AccessKind::NonTemporalStore))
        ));
    }

    #[test]
    fn pattern_cycles() {
        let mut s = PatternStream::new(vec![Op::compute(), Op::load(64)]);
        assert_eq!(s.next_op(), Op::compute());
        assert_eq!(s.next_op(), Op::load(64));
        assert_eq!(s.next_op(), Op::compute());
        assert_eq!(s.phase(), "steady");
        assert_eq!(s.io_bytes_per_instruction(), 0.0);
    }

    #[test]
    fn pattern_io_rate() {
        let s = PatternStream::new(vec![Op::compute()]).with_io_rate(0.5);
        assert_eq!(s.io_bytes_per_instruction(), 0.5);
    }

    #[test]
    #[should_panic(expected = "pattern must not be empty")]
    fn empty_pattern_panics() {
        let _ = PatternStream::new(vec![]);
    }

    #[test]
    fn op_block_runs_cover_ops() {
        let mut b = OpBlock::new();
        b.push_op(Op::compute());
        b.note_phase("map");
        b.note_io(0.0);
        b.push_op(Op::compute());
        b.note_phase("map");
        b.note_io(0.0);
        b.push_op(Op::compute());
        b.note_phase("reduce");
        b.note_io(2.0);
        assert_eq!(b.ops.len(), 3);
        assert_eq!(b.phase_run_count(), 2);
        assert_eq!(b.phase_run(0), (2, "map"));
        assert_eq!(b.phase_run(1), (1, "reduce"));
        assert_eq!(b.io_run(0), (2, 0.0));
        assert_eq!(b.io_run(1), (1, 2.0));
        assert_eq!(b.io_run(2), (0, 0.0), "past-the-end sentinel");
    }

    #[test]
    fn op_block_clear_retains_label_pool() {
        let mut b = OpBlock::new();
        b.push_op(Op::compute());
        b.note_phase("map");
        b.clear();
        assert!(b.ops.is_empty());
        assert_eq!(b.phase_run_count(), 0);
        // The pool index for "map" is stable across clears.
        b.push_op(Op::compute());
        b.note_phase_n("map", 1);
        assert_eq!(b.phase_run(0), (1, "map"));
    }

    #[test]
    fn op_block_zero_count_notes_are_ignored() {
        let mut b = OpBlock::new();
        b.note_phase_n("never", 0);
        b.note_io_n(5.0, 0);
        assert_eq!(b.phase_run_count(), 0);
        assert_eq!(b.io_run(0), (0, 0.0));
    }

    #[test]
    fn default_fill_block_matches_next_op() {
        struct Counting {
            n: u64,
        }
        impl InstructionStream for Counting {
            fn next_op(&mut self) -> Op {
                self.n += 1;
                Op::compute_heavy(self.n as u32)
            }
            fn phase(&self) -> &str {
                if self.n < 3 {
                    "warm"
                } else {
                    "hot"
                }
            }
            fn io_bytes_per_instruction(&self) -> f64 {
                self.n as f64
            }
        }
        let mut a = Counting { n: 0 };
        let mut b = Counting { n: 0 };
        let mut blk = OpBlock::new();
        a.fill_block(&mut blk, 5);
        assert_eq!(blk.ops.len(), 5);
        for (i, op) in blk.ops.iter().enumerate() {
            assert_eq!(*op, b.next_op(), "op {i}");
        }
        // Ops 1..=2 observe "warm", 3..=5 observe "hot".
        assert_eq!(blk.phase_run(0), (2, "warm"));
        assert_eq!(blk.phase_run(1), (3, "hot"));
        // Each op carries its own io rate (all distinct).
        assert_eq!(blk.io_run(0), (1, 1.0));
        assert_eq!(blk.io_run(4), (1, 5.0));
    }

    #[test]
    fn pattern_fill_block_matches_next_op() {
        let ops = vec![Op::compute(), Op::load(64), Op::store(128)];
        let mut a = PatternStream::new(ops.clone()).with_io_rate(1.5);
        let mut b = PatternStream::new(ops).with_io_rate(1.5);
        let mut blk = OpBlock::new();
        a.fill_block(&mut blk, 8); // wraps the 3-op pattern
        assert_eq!(blk.ops.len(), 8);
        for op in &blk.ops {
            assert_eq!(*op, b.next_op());
        }
        assert_eq!(a.next_op(), b.next_op(), "cursors stay in sync");
        assert_eq!(blk.phase_run(0), (8, "steady"));
        assert_eq!(blk.io_run(0), (8, 1.5));
    }
}

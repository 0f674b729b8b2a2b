//! The multicore simulation engine.
//!
//! [`Machine`] assembles per-thread cores (instruction window, MSHRs, cache
//! hierarchy, stream prefetcher), a shared [`MemoryController`], and I/O
//! injection, then interleaves threads in simulated-time order. Memory-level
//! parallelism — and therefore the blocking factor the calibration recovers —
//! *emerges* from the window/MSHR limits and the dependence structure of the
//! instruction stream, rather than being dialed in.
//!
//! # The retire path
//!
//! Every retired op ends in one retire step, `Clock::retire`: drain the
//! reorder window, advance the thread clock, charge `now − op_start` to
//! `busy_ns`. A quantum keeps the clock in a local `Clock` and writes it
//! back to the core once. Most ops of a core-bound workload are pure
//! compute (no access, not idle), and a run of them inside one
//! zero-I/O-rate, single-phase segment retires in `retire_compute_run`, a
//! loop that must call nothing: on x86-64 every `xmm` register is
//! caller-saved, so a loop containing any call keeps its `f64` clocks in
//! stack slots, and each op's two adds then wait on a store-to-load
//! forward (~9 cycles an op instead of ~4). Everything else — accesses,
//! idle ops, ops under a nonzero I/O rate — takes the access path, which
//! does call (TLB, caches, prefetcher, memory controller). Both paths make
//! the same `f64` additions in the same order, so results are bit-identical
//! to a per-op loop: `busy_ns` adds `(now + advance) − now` per op, never
//! `advance` itself, and never a product with a count.

use std::collections::{BTreeMap, VecDeque};

use crate::cache::{CacheHierarchy, HitLevel};
use crate::config::SimConfig;
use crate::counters::{CoreCounters, Measurement, PhaseCounts, Sample};
use crate::mem::MemoryController;
use crate::prefetch::StreamPrefetcher;
use crate::tlb::Tlb;
use crate::trace::{AccessKind, BoxedStream, Op, OpBlock};
use crate::SimError;

/// Fraction of the hit latency an *independent* access exposes to the core
/// (the pipeline overlaps most of it); dependent accesses expose all of it.
const INDEPENDENT_HIT_EXPOSURE: f64 = 0.25;

/// Maximum prefetched lines in flight per core before the prefetcher backs
/// off (models the prefetch queue of the real part).
const MAX_PENDING_PREFETCHES: usize = 64;

/// Ops executed per scheduling quantum before re-electing the laggard core.
const BATCH_OPS: u32 = 32;

/// Slot count of the per-core prefetch table. Twice
/// [`MAX_PENDING_PREFETCHES`], so the load factor never exceeds 0.5 and
/// probe chains stay short. Must be a power of two.
const PREFETCH_SLOTS: usize = 2 * MAX_PENDING_PREFETCHES;

/// Sentinel for an empty prefetch-table slot. Line addresses are byte
/// addresses shifted down by `line_shift ≥ 1`, so no real key collides.
const PREFETCH_EMPTY: u64 = u64::MAX;

/// A fixed-capacity open-addressed map from in-flight prefetched line
/// address to memory completion time.
///
/// Replaces a `HashMap<u64, f64>` on the engine's per-access hot path:
/// fibonacci-hashed linear probing over two flat arrays, no allocation, no
/// SipHash. Deletion uses backward shifting, so no tombstones accumulate.
/// Semantics match the map it replaced: `insert` overwrites an existing
/// key, `len` counts distinct keys.
struct PrefetchTable {
    keys: [u64; PREFETCH_SLOTS],
    vals: [f64; PREFETCH_SLOTS],
    len: usize,
}

impl PrefetchTable {
    fn new() -> Self {
        PrefetchTable {
            keys: [PREFETCH_EMPTY; PREFETCH_SLOTS],
            vals: [0.0; PREFETCH_SLOTS],
            len: 0,
        }
    }

    fn home(key: u64) -> usize {
        debug_assert!(PREFETCH_SLOTS.is_power_of_two());
        // Fibonacci hashing: multiply by 2^64/φ and keep the top bits.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - PREFETCH_SLOTS.trailing_zeros())) as usize
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, key: u64, val: f64) {
        debug_assert_ne!(key, PREFETCH_EMPTY);
        debug_assert!(self.len < PREFETCH_SLOTS - 1, "table kept half-full");
        let mask = PREFETCH_SLOTS - 1;
        let mut i = Self::home(key);
        loop {
            if self.keys[i] == key {
                self.vals[i] = val;
                return;
            }
            if self.keys[i] == PREFETCH_EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn remove(&mut self, key: u64) -> Option<f64> {
        let mask = PREFETCH_SLOTS - 1;
        let mut i = Self::home(key);
        loop {
            if self.keys[i] == PREFETCH_EMPTY {
                return None;
            }
            if self.keys[i] == key {
                break;
            }
            i = (i + 1) & mask;
        }
        let val = self.vals[i];
        self.len -= 1;
        // Backward-shift deletion: pull each follower whose home precedes
        // the hole into the hole, preserving every probe chain.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if self.keys[j] == PREFETCH_EMPTY {
                break;
            }
            let h = Self::home(self.keys[j]);
            // Movable iff its home is cyclically at or before the hole —
            // i.e. the probe from `h` reaches `hole` no later than `j`.
            if (j.wrapping_sub(h) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = self.keys[j];
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = PREFETCH_EMPTY;
        Some(val)
    }
}

/// An index-min binary heap electing the laggard core: entries are
/// `(time_ns, core index)` ordered lexicographically, so equal times resolve
/// to the lowest index — exactly the election the former linear scan made.
/// Each eligible core holds one entry; stepping a core mutates only that
/// core's clock, so remaining entries stay valid without re-keying.
struct CoreHeap {
    data: Vec<(f64, u32)>,
}

impl CoreHeap {
    fn with_capacity(n: usize) -> Self {
        CoreHeap {
            data: Vec::with_capacity(n),
        }
    }

    fn less(a: (f64, u32), b: (f64, u32)) -> bool {
        // Core clocks are always finite, so `<` is a total order here.
        a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    fn push(&mut self, time_ns: f64, idx: u32) {
        self.data.push((time_ns, idx));
        let mut child = self.data.len() - 1;
        while child > 0 {
            let parent = (child - 1) / 2;
            if Self::less(self.data[child], self.data[parent]) {
                self.data.swap(child, parent);
                child = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        let last = self.data.len().checked_sub(1)?;
        self.data.swap(0, last);
        let top = self.data.pop()?;
        let mut parent = 0;
        loop {
            let left = 2 * parent + 1;
            if left >= self.data.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.data.len() && Self::less(self.data[right], self.data[left])
            {
                right
            } else {
                left
            };
            if Self::less(self.data[child], self.data[parent]) {
                self.data.swap(child, parent);
                parent = child;
            } else {
                break;
            }
        }
        Some(top)
    }
}

struct Core {
    stream: BoxedStream,
    /// The socket whose controller serves this thread's memory requests.
    socket: usize,
    hierarchy: CacheHierarchy,
    prefetcher: StreamPrefetcher,
    tlb: Tlb,
    /// Simulated time of this thread, ns.
    time_ns: f64,
    counters: CoreCounters,
    /// Outstanding independent misses: (completion ns, retired index).
    outstanding: VecDeque<(f64, u64)>,
    /// Prefetched lines (line address → memory completion time).
    pending_prefetch: PrefetchTable,
    io_credit: f64,
    io_toggle: bool,
    /// Instructions retired per phase label (Sec. IV.D weights, measured).
    phase_instructions: PhaseCounts,
    /// Reused prefetch-target buffer — keeps `issue_prefetches` allocation-
    /// free after the first trained miss.
    pf_scratch: Vec<u64>,
    /// Reused op block: one `fill_block` dispatch per scheduling quantum.
    block: OpBlock,
}

/// A background DMA agent: device traffic (storage, NIC) that hits memory
/// at a fixed rate independent of instruction progress — the explicit form
/// of the paper's I/O terms, usable to study analytics under storage
/// pressure.
#[derive(Debug, Clone)]
struct BackgroundAgent {
    rate_gbps: f64,
    read_fraction: f64,
    next_ns: f64,
    addr_state: u64,
    socket: usize,
}

/// A simulated multicore machine bound to one instruction stream per thread.
pub struct Machine {
    config: SimConfig,
    cores: Vec<Core>,
    /// One controller per socket (exactly one for non-NUMA configs).
    memory: Vec<MemoryController>,
    background: Vec<BackgroundAgent>,
    cycle_ns: f64,
    issue_ns: f64,
}

impl Drop for Machine {
    fn drop(&mut self) {
        // Flush this machine's lifetime work into the process-wide
        // telemetry registry (see `crate::telemetry`): harnesses snapshot
        // the registry around a stage to attribute simulator work to it.
        let mut total = crate::telemetry::TelemetrySnapshot::default();
        for core in &self.cores {
            total.ops += core.counters.instructions;
            total.cache_accesses += core.hierarchy.total_accesses();
            let (tlb_hits, tlb_misses) = core.tlb.stats();
            total.tlb_accesses += tlb_hits + tlb_misses;
            total.prefetch_fills += core.counters.prefetch_fills;
        }
        crate::telemetry::record(total);
    }
}

/// Routes a request to its home socket's controller, charging interconnect
/// hops for remote accesses. Free function so `step_core` can call it while
/// holding a mutable borrow of a core.
fn numa_request(
    config: &SimConfig,
    memory: &mut [MemoryController],
    core_socket: usize,
    now_ns: f64,
    addr: u64,
    write: bool,
) -> crate::mem::MemResponse {
    let sockets = memory.len();
    let home = if sockets == 1 {
        0
    } else if config.numa.interleaved {
        // Interleave at 4 KiB granularity across sockets, hashed so strided
        // patterns don't alias.
        let page = addr >> 12;
        ((page ^ (page >> 7)) % sockets as u64) as usize
    } else {
        core_socket
    };
    let hop = if home == core_socket {
        0.0
    } else {
        2.0 * config.numa.hop_ns
    };
    let mut resp = memory[home].request(now_ns + hop * 0.5, addr, write);
    resp.complete_ns += hop * 0.5;
    resp.latency_ns += hop;
    resp
}

impl Machine {
    /// Builds a machine running `streams[i]` on hardware thread `i`.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] if the configuration fails validation.
    /// * [`SimError::StreamCountMismatch`] if `streams.len()` differs from
    ///   `config.cores`.
    pub fn new(config: SimConfig, streams: Vec<BoxedStream>) -> Result<Self, SimError> {
        config.validate()?;
        if streams.len() != config.cores as usize {
            return Err(SimError::StreamCountMismatch {
                cores: config.cores,
                streams: streams.len(),
            });
        }
        let cycle_ns = 1.0 / config.core_clock_ghz;
        let issue_ns = cycle_ns / config.issue_width as f64;
        let sockets = config.numa.sockets as usize;
        let core_count = streams.len();
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(idx, stream)| Core {
                stream,
                // Threads are spread over sockets in contiguous blocks.
                socket: idx * sockets / core_count,
                hierarchy: CacheHierarchy::new(&config),
                prefetcher: StreamPrefetcher::new(config.prefetch, config.line_size),
                tlb: Tlb::new(config.tlb),
                time_ns: 0.0,
                counters: CoreCounters::default(),
                outstanding: VecDeque::new(),
                pending_prefetch: PrefetchTable::new(),
                io_credit: 0.0,
                io_toggle: false,
                phase_instructions: PhaseCounts::new(),
                pf_scratch: Vec::with_capacity(8),
                block: OpBlock::new(),
            })
            .collect();
        let memory = (0..config.numa.sockets)
            .map(|_| MemoryController::new(config.memory, config.line_size))
            .collect();
        Ok(Machine {
            config,
            cores,
            memory,
            // memsense-lint: allow(no-per-op-alloc) — one-time machine build
            background: Vec::new(),
            cycle_ns,
            issue_ns,
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Attaches a background DMA agent injecting `rate_gbps` of device
    /// traffic (a `read_fraction` share of reads) into `socket`'s memory,
    /// starting at the current simulated time. Models storage/NIC pressure
    /// that is independent of instruction progress.
    ///
    /// # Panics
    ///
    /// Panics when the rate is not positive, the fraction is outside
    /// `[0, 1]`, or the socket index is out of range.
    pub fn add_background_traffic(&mut self, rate_gbps: f64, read_fraction: f64, socket: usize) {
        assert!(rate_gbps > 0.0 && rate_gbps.is_finite(), "rate must be > 0");
        assert!((0.0..=1.0).contains(&read_fraction), "fraction in [0, 1]");
        assert!(socket < self.memory.len(), "socket out of range");
        let start = self.now_ns().max(0.0);
        self.background.push(BackgroundAgent {
            rate_gbps,
            read_fraction,
            next_ns: start,
            addr_state: 0xb6_0000_0000 ^ (self.background.len() as u64) << 40,
            socket,
        });
    }

    /// Services background agents up to `deadline_ns`.
    fn run_background_until(&mut self, deadline_ns: f64) {
        let line = self.config.line_size as f64;
        for agent in &mut self.background {
            let interval = line / agent.rate_gbps; // ns between lines
            while agent.next_ns < deadline_ns {
                agent.addr_state = agent
                    .addr_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = (0xb0_0000_0000u64 + (agent.addr_state % (1 << 30))) & !63;
                let write =
                    (agent.addr_state >> 32) as f64 / u32::MAX as f64 >= agent.read_fraction;
                self.memory[agent.socket].request(agent.next_ns, addr, write);
                agent.next_ns += interval;
            }
        }
    }

    /// Summed counters across all threads.
    pub fn total_counters(&self) -> CoreCounters {
        let mut total = CoreCounters::default();
        for c in &self.cores {
            total.merge(&c.counters);
        }
        total
    }

    /// Per-thread counters.
    pub fn core_counters(&self) -> Vec<CoreCounters> {
        self.cores.iter().map(|c| c.counters).collect()
    }

    /// Memory-controller statistics, summed across sockets.
    pub fn memory_stats(&self) -> crate::mem::MemStats {
        let mut total = crate::mem::MemStats::default();
        for m in &self.memory {
            let s = m.stats();
            total.reads += s.reads;
            total.writes += s.writes;
            total.read_bytes += s.read_bytes;
            total.write_bytes += s.write_bytes;
            total.total_read_latency_ns += s.total_read_latency_ns;
            total.bus_busy_ns += s.bus_busy_ns;
            total.row_hits += s.row_hits;
            total.row_conflicts += s.row_conflicts;
        }
        total
    }

    /// Instructions retired per phase label, summed across threads — the
    /// empirical Sec. IV.D phase weights.
    pub fn phase_instruction_counts(&self) -> BTreeMap<String, u64> {
        let mut total: BTreeMap<String, u64> = BTreeMap::new();
        for core in &self.cores {
            core.phase_instructions.merge_into(&mut total);
        }
        total
    }

    /// Current simulated time: the laggard thread's clock (ns).
    pub fn now_ns(&self) -> f64 {
        self.cores
            .iter()
            .map(|c| c.time_ns)
            .fold(f64::INFINITY, f64::min)
    }

    /// Runs until every thread has retired at least `ops_per_core`
    /// additional instructions. Used for warm-up.
    pub fn run_ops(&mut self, ops_per_core: u64) {
        let targets: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.counters.instructions + ops_per_core)
            .collect();
        let mut heap = CoreHeap::with_capacity(self.cores.len());
        for (i, c) in self.cores.iter().enumerate() {
            if c.counters.instructions < targets[i] {
                heap.push(c.time_ns, i as u32);
            }
        }
        // Each eligible core holds exactly one heap entry; stepping a core
        // changes only its own clock and counters, so the rest stay valid.
        while let Some((t, i)) = heap.pop() {
            let idx = i as usize;
            if !self.background.is_empty() {
                self.run_background_until(t);
            }
            let remaining = targets[idx] - self.cores[idx].counters.instructions;
            self.step_core(idx, BATCH_OPS.min(remaining as u32).max(1));
            let c = &self.cores[idx];
            if c.counters.instructions < targets[idx] {
                heap.push(c.time_ns, i);
            }
        }
    }

    /// Runs until every thread's clock reaches `deadline_ns` (absolute).
    pub fn run_until_ns(&mut self, deadline_ns: f64) {
        let mut heap = CoreHeap::with_capacity(self.cores.len());
        for (i, c) in self.cores.iter().enumerate() {
            if c.time_ns < deadline_ns {
                heap.push(c.time_ns, i as u32);
            }
        }
        while let Some((t, i)) = heap.pop() {
            let idx = i as usize;
            if !self.background.is_empty() {
                self.run_background_until(t);
            }
            self.step_core(idx, BATCH_OPS);
            let c = &self.cores[idx];
            if c.time_ns < deadline_ns {
                heap.push(c.time_ns, i);
            }
        }
    }

    /// Runs `window_ns` of simulated time and derives one [`Measurement`]
    /// over that window.
    ///
    /// Returns `None` if no instruction retired in the window (a fully idle
    /// machine).
    pub fn measure_for_ns(&mut self, window_ns: f64) -> Option<Measurement> {
        let start = self.now_ns();
        let before_cores = self.total_counters();
        let before_mem = self.memory_stats();
        self.run_until_ns(start + window_ns);
        let cores = self.total_counters().delta(&before_cores);
        let mem = self.memory_stats().delta(&before_mem);
        Measurement::derive(
            &cores,
            &mem,
            window_ns,
            self.config.core_clock_ghz,
            self.config.cores,
        )
    }

    /// Collects `count` consecutive samples of `interval_ns` each — the
    /// Figs. 2/4/5 characterization time series.
    pub fn sample_series(&mut self, interval_ns: f64, count: usize) -> Vec<Sample> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let t = self.now_ns();
            if let Some(measurement) = self.measure_for_ns(interval_ns) {
                out.push(Sample {
                    time_s: t / 1e9,
                    measurement,
                });
            }
        }
        out
    }

    fn step_core(&mut self, idx: usize, ops: u32) {
        let config = &self.config;
        let core = &mut self.cores[idx];
        let socket = core.socket;
        let rob = config.rob_size as u64;
        let mshrs = config.mshrs as usize;

        // One dynamic dispatch pulls the whole quantum of ops, with phase
        // labels and I/O rates attached as run-length sidecars.
        core.stream.fill_block(&mut core.block, ops as usize);
        let n = core.block.ops.len();

        // The clock lives in a local for the quantum and is written back
        // once at the end; nothing below reads the core's copy.
        let mut clk = Clock {
            now: core.time_ns,
            busy: core.counters.busy_ns,
            stall: core.counters.stall_ns,
            retired: core.counters.instructions,
        };

        // Run cursors: phase bumps are flushed per run (`bump_n`), the I/O
        // credit add is skipped for zero-rate runs — both bit-identical to
        // the per-op forms. The block is walked in segments on which the
        // phase label and the I/O rate are both constant.
        let mut phase_idx = 0usize;
        let mut phase_left = if n > 0 { core.block.phase_run(0).0 } else { 0 };
        let mut phase_retired = 0u64;
        let mut io_idx = 0usize;
        let (mut io_left, mut io_rate) = core.block.io_run(0);

        let mut j = 0;
        while j < n {
            let seg = phase_left.min(io_left);
            let seg_end = j + seg as usize;
            while j < seg_end {
                if io_rate == 0.0 && is_pure_compute(&core.block.ops[j]) {
                    let run = retire_compute_run(
                        &mut clk,
                        &mut core.outstanding,
                        rob,
                        &core.block.ops[j..seg_end],
                        self.issue_ns,
                        self.cycle_ns,
                    );
                    phase_retired += run as u64;
                    j += run;
                    if j == seg_end {
                        break;
                    }
                }
                let op = core.block.ops[j];
                j += 1;

                if op.idle {
                    let dur = op.extra_cycles as f64 * self.cycle_ns;
                    clk.now += dur;
                    core.counters.idle_ns += dur;
                    continue;
                }

                // Issue slot + extra compute latency.
                let op_start_ns = clk.now;
                let mut advance = self.issue_ns + op.extra_cycles as f64 * self.cycle_ns;

                // I/O traffic owed by this thread's device activity. Adding a
                // zero rate cannot change a non-negative credit, so zero-rate
                // runs skip the credit update entirely.
                if io_rate > 0.0 {
                    core.io_credit += io_rate;
                    while core.io_credit >= config.line_size as f64 {
                        core.io_credit -= config.line_size as f64;
                        let io_addr = core.counters.io_bytes.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            & !(config.line_size as u64 - 1);
                        let write = core.io_toggle;
                        core.io_toggle = !core.io_toggle;
                        numa_request(config, &mut self.memory, socket, clk.now, io_addr, write);
                        core.counters.io_bytes += config.line_size as u64;
                    }
                }

                if let Some((addr, kind)) = op.access {
                    let is_store = !matches!(kind, AccessKind::Load { .. });
                    let dependent = matches!(kind, AccessKind::Load { dependent: true });

                    // Address translation: a DTLB miss stalls for the walk.
                    // A disabled TLB always hits.
                    if !core.tlb.access(addr) {
                        let walk = core.tlb.walk_cycles() as f64 * self.cycle_ns;
                        advance += walk;
                        clk.stall += walk;
                        core.counters.tlb_misses += 1;
                    }

                    if matches!(kind, AccessKind::NonTemporalStore) {
                        numa_request(config, &mut self.memory, socket, clk.now, addr, true);
                        core.counters.nt_stores += 1;
                    } else {
                        let res = core.hierarchy.access(addr, is_store);
                        match res.level {
                            HitLevel::L1 => core.counters.l1_hits += 1,
                            level @ (HitLevel::L2 | HitLevel::Llc) => {
                                let cycles = if level == HitLevel::L2 {
                                    core.counters.l2_hits += 1;
                                    core.hierarchy.l2_hit_latency
                                } else {
                                    core.counters.llc_hits += 1;
                                    core.hierarchy.llc_hit_latency
                                };
                                let lat = cycles as f64 * self.cycle_ns;
                                advance += if dependent {
                                    lat
                                } else {
                                    lat * INDEPENDENT_HIT_EXPOSURE
                                };
                                // A hit on a still-in-flight prefetched line
                                // exposes the remaining memory latency.
                                let line = addr >> config.line_size.trailing_zeros();
                                if let Some(ready) = core.pending_prefetch.remove(line) {
                                    if dependent {
                                        let t = clk.now + advance;
                                        if ready > t {
                                            clk.stall += ready - t;
                                            advance += ready - t;
                                        }
                                    } else if ready > clk.now {
                                        core.outstanding.push_back((ready, clk.retired));
                                    }
                                    // Keep the stream running ahead.
                                    Self::issue_prefetches(
                                        config,
                                        &mut self.memory,
                                        socket,
                                        core,
                                        clk.now,
                                        addr,
                                    );
                                }
                            }
                            HitLevel::Memory => {
                                core.counters.llc_demand_misses += 1;
                                if let Some(victim) = res.memory_writeback {
                                    numa_request(
                                        config,
                                        &mut self.memory,
                                        socket,
                                        clk.now,
                                        victim,
                                        true,
                                    );
                                    core.counters.writebacks += 1;
                                }
                                Self::issue_prefetches(
                                    config,
                                    &mut self.memory,
                                    socket,
                                    core,
                                    clk.now,
                                    addr,
                                );

                                // Retire completed misses, then respect MSHRs.
                                while let Some(&(done, _)) = core.outstanding.front() {
                                    if done <= clk.now {
                                        core.outstanding.pop_front();
                                    } else {
                                        break;
                                    }
                                }
                                if core.outstanding.len() >= mshrs {
                                    if let Some((done, _)) = core.outstanding.pop_front() {
                                        if done > clk.now {
                                            clk.stall += done - clk.now;
                                            clk.now = done;
                                        }
                                    }
                                }

                                let resp = numa_request(
                                    config,
                                    &mut self.memory,
                                    socket,
                                    clk.now,
                                    addr,
                                    false,
                                );
                                if !is_store {
                                    core.counters.demand_miss_latency_ns += resp.latency_ns;
                                    core.counters.demand_miss_samples += 1;
                                }

                                if dependent {
                                    // Pointer chase: the core cannot proceed.
                                    let stall = resp.complete_ns - clk.now;
                                    clk.stall += stall.max(0.0);
                                    clk.now = resp.complete_ns.max(clk.now);
                                } else if !is_store {
                                    core.outstanding.push_back((resp.complete_ns, clk.retired));
                                }
                                // Stores retire via the store buffer: traffic
                                // counted, no core stall.
                            }
                        }
                    }
                }

                clk.retire(&mut core.outstanding, rob, op_start_ns, advance);
                phase_retired += 1;
            }

            phase_left -= seg;
            if phase_left == 0 {
                let (_, label) = core.block.phase_run(phase_idx);
                core.phase_instructions.bump_n(label, phase_retired);
                phase_retired = 0;
                phase_idx += 1;
                if phase_idx < core.block.phase_run_count() {
                    phase_left = core.block.phase_run(phase_idx).0;
                }
            }
            io_left -= seg;
            if io_left == 0 {
                io_idx += 1;
                (io_left, io_rate) = core.block.io_run(io_idx);
            }
        }
        debug_assert_eq!(phase_retired, 0, "phase runs must cover the block");

        core.time_ns = clk.now;
        core.counters.busy_ns = clk.busy;
        core.counters.stall_ns = clk.stall;
        core.counters.instructions = clk.retired;
    }

    fn issue_prefetches(
        config: &SimConfig,
        memory: &mut [MemoryController],
        socket: usize,
        core: &mut Core,
        now_ns: f64,
        addr: u64,
    ) {
        if core.pending_prefetch.len() >= MAX_PENDING_PREFETCHES {
            return;
        }
        let line_shift = config.line_size.trailing_zeros();
        let mut targets = std::mem::take(&mut core.pf_scratch);
        core.prefetcher.on_miss_into(addr, &mut targets);
        for &pf_addr in &targets {
            if core.hierarchy.llc_contains(pf_addr) {
                continue;
            }
            let resp = numa_request(config, memory, socket, now_ns, pf_addr, false);
            if let Some(victim) = core.hierarchy.install_prefetch(pf_addr) {
                numa_request(config, memory, socket, now_ns, victim, true);
                core.counters.writebacks += 1;
            }
            core.counters.prefetch_fills += 1;
            core.pending_prefetch
                .insert(pf_addr >> line_shift, resp.complete_ns);
            if core.pending_prefetch.len() >= MAX_PENDING_PREFETCHES {
                break;
            }
        }
        core.pf_scratch = targets;
    }
}

/// A core's simulated clock and retire counters, held in locals while a
/// quantum runs and written back to the core once at its end.
#[derive(Clone, Copy)]
struct Clock {
    /// Thread time, ns.
    now: f64,
    busy: f64,
    stall: f64,
    /// Instructions retired.
    retired: u64,
}

impl Clock {
    /// The one retire step, shared by compute runs and the access path:
    /// drain the reorder window (the core may run at most `rob` retired
    /// instructions past the oldest incomplete miss), then advance the
    /// clock and charge the op's busy time from `op_start_ns`.
    #[inline(always)]
    fn retire(
        &mut self,
        outstanding: &mut VecDeque<(f64, u64)>,
        rob: u64,
        op_start_ns: f64,
        advance: f64,
    ) {
        while let Some(&(done, ridx)) = outstanding.front() {
            if done <= self.now {
                outstanding.pop_front();
            } else if self.retired.saturating_sub(ridx) >= rob {
                self.stall += done - self.now;
                self.now = done;
                outstanding.pop_front();
            } else {
                break;
            }
        }
        self.now += advance;
        self.busy += self.now - op_start_ns;
        self.retired += 1;
    }
}

/// An op that retires without touching memory: not idle, no access.
#[inline(always)]
fn is_pure_compute(op: &Op) -> bool {
    !op.idle && op.access.is_none()
}

/// Retires the leading pure-compute ops of `ops` (not idle, no access) and
/// returns how many. The caller passes only ops of one zero-I/O-rate,
/// single-phase segment. See the module doc for why this loop calls nothing.
#[inline(never)]
fn retire_compute_run(
    clk: &mut Clock,
    outstanding: &mut VecDeque<(f64, u64)>,
    rob: u64,
    ops: &[Op],
    issue_ns: f64,
    cycle_ns: f64,
) -> usize {
    let mut c = *clk;
    let mut run = 0;
    for op in ops {
        if !is_pure_compute(op) {
            break;
        }
        let advance = issue_ns + op.extra_cycles as f64 * cycle_ns;
        c.retire(outstanding, rob, c.now, advance);
        run += 1;
    }
    *clk = c;
    run
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("now_ns", &self.now_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{InstructionStream, Op, PatternStream};

    fn machine_with(pattern: Vec<Op>, cores: u32) -> Machine {
        let cfg = SimConfig::xeon_like(cores);
        // One Arc-backed pattern; per-core clones share the op buffer and
        // keep private cursors.
        let proto = PatternStream::new(pattern);
        let streams: Vec<BoxedStream> = (0..cores)
            .map(|_| Box::new(proto.clone()) as BoxedStream)
            .collect();
        Machine::new(cfg, streams).unwrap()
    }

    #[test]
    fn prefetch_table_matches_map_semantics() {
        let mut t = PrefetchTable::new();
        assert_eq!(t.len(), 0);
        assert_eq!(t.remove(42), None);
        t.insert(42, 1.5);
        t.insert(42, 2.5); // overwrite, not a second entry
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(42), Some(2.5));
        assert_eq!(t.len(), 0);
        assert_eq!(t.remove(42), None);
    }

    #[test]
    fn prefetch_table_survives_collisions_and_deletion() {
        // Fill to the MAX_PENDING_PREFETCHES operating point, then delete
        // in an interleaved order and verify every survivor is reachable
        // (backward-shift must keep all probe chains intact).
        let mut t = PrefetchTable::new();
        let keys: Vec<u64> = (0..MAX_PENDING_PREFETCHES as u64)
            .map(|k| k * 977)
            .collect();
        for &k in &keys {
            t.insert(k, k as f64);
        }
        assert_eq!(t.len(), MAX_PENDING_PREFETCHES);
        for &k in keys.iter().step_by(3) {
            assert_eq!(t.remove(k), Some(k as f64));
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(t.remove(k), None, "key {k} already removed");
            } else {
                assert_eq!(t.remove(k), Some(k as f64), "key {k} lost in shift");
            }
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn core_heap_orders_by_time_then_index() {
        let mut h = CoreHeap::with_capacity(4);
        h.push(5.0, 2);
        h.push(1.0, 3);
        h.push(1.0, 1); // ties resolve to the lowest index
        h.push(9.0, 0);
        assert_eq!(h.pop(), Some((1.0, 1)));
        assert_eq!(h.pop(), Some((1.0, 3)));
        assert_eq!(h.pop(), Some((5.0, 2)));
        assert_eq!(h.pop(), Some((9.0, 0)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn stream_count_must_match() {
        let cfg = SimConfig::xeon_like(2);
        let streams: Vec<BoxedStream> = vec![Box::new(PatternStream::new(vec![Op::compute()]))];
        assert!(matches!(
            Machine::new(cfg, streams),
            Err(SimError::StreamCountMismatch {
                cores: 2,
                streams: 1
            })
        ));
    }

    #[test]
    fn pure_compute_hits_issue_width_cpi() {
        let mut m = machine_with(vec![Op::compute()], 1);
        m.run_ops(10_000);
        let c = m.total_counters();
        let cpi = c.busy_ns * m.config().core_clock_ghz / c.instructions as f64;
        assert!(
            (cpi - 0.25).abs() < 0.01,
            "4-wide issue → CPI 0.25, got {cpi}"
        );
    }

    #[test]
    fn heavy_compute_raises_cpi() {
        let mut m = machine_with(vec![Op::compute(), Op::compute_heavy(3)], 1);
        m.run_ops(10_000);
        let c = m.total_counters();
        let cpi = c.busy_ns * m.config().core_clock_ghz / c.instructions as f64;
        // (0.25 + 3.25) / 2 = 1.75
        assert!((cpi - 1.75).abs() < 0.02, "got {cpi}");
    }

    #[test]
    fn idle_ops_counted_as_idle_not_instructions() {
        let mut m = machine_with(vec![Op::compute(), Op::idle(100)], 1);
        m.run_ops(100);
        let c = m.total_counters();
        assert!(c.idle_ns > 0.0);
        assert_eq!(c.instructions, 100);
    }

    #[test]
    fn l1_resident_loads_do_not_miss() {
        // Two lines, hammered forever: everything after warmup is an L1 hit.
        let mut m = machine_with(vec![Op::load(0), Op::load(64)], 1);
        m.run_ops(10_000);
        let c = m.total_counters();
        assert!(c.llc_demand_misses <= 2);
        assert!(c.l1_hits > 9_900);
    }

    #[test]
    fn random_dependent_loads_expose_memory_latency() {
        // A pointer chase over a footprint far larger than the LLC: CPI must
        // approach the full memory latency per access.
        struct Chase {
            addr: u64,
        }
        impl InstructionStream for Chase {
            fn next_op(&mut self) -> Op {
                self.addr = self.addr.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = self.addr % (64 * 1024 * 1024);
                Op::dependent_load(a & !63)
            }
        }
        let cfg = SimConfig::xeon_like(1);
        let mut m = Machine::new(cfg, vec![Box::new(Chase { addr: 1 })]).unwrap();
        m.run_ops(20_000);
        let c = m.total_counters();
        let cpi = c.busy_ns * m.config().core_clock_ghz / c.instructions as f64;
        // ~75 ns × 2.7 GHz ≈ 200 cycles per chased load.
        assert!(cpi > 100.0, "pointer chase CPI {cpi}");
        assert!(c.llc_demand_misses > 15_000);
    }

    #[test]
    fn independent_loads_overlap() {
        // Random independent loads: MLP ≈ MSHR count, CPI far below the
        // dependent-chase case.
        struct RandLoad {
            addr: u64,
        }
        impl InstructionStream for RandLoad {
            fn next_op(&mut self) -> Op {
                self.addr = self.addr.wrapping_mul(6364136223846793005).wrapping_add(99);
                let a = self.addr % (64 * 1024 * 1024);
                Op::load(a & !63)
            }
        }
        let cfg = SimConfig::xeon_like(1);
        let mut m = Machine::new(cfg, vec![Box::new(RandLoad { addr: 7 })]).unwrap();
        m.run_ops(20_000);
        let c = m.total_counters();
        let cpi = c.busy_ns * m.config().core_clock_ghz / c.instructions as f64;
        assert!(cpi < 60.0, "independent loads must overlap, CPI {cpi}");
    }

    #[test]
    fn sequential_scan_mostly_prefetched() {
        struct Scan {
            addr: u64,
        }
        impl InstructionStream for Scan {
            fn next_op(&mut self) -> Op {
                self.addr += 64;
                Op::load(self.addr % (256 * 1024 * 1024))
            }
        }
        let cfg = SimConfig::xeon_like(1);
        let mut m = Machine::new(cfg, vec![Box::new(Scan { addr: 0 })]).unwrap();
        m.run_ops(50_000);
        let c = m.total_counters();
        assert!(
            c.prefetch_fills > c.llc_demand_misses,
            "prefetches {} should dominate demand misses {}",
            c.prefetch_fills,
            c.llc_demand_misses
        );
        let cpi = c.busy_ns * m.config().core_clock_ghz / c.instructions as f64;
        assert!(cpi < 30.0, "prefetched scan CPI {cpi}");
    }

    #[test]
    fn prefetcher_off_hurts_scan() {
        struct Scan {
            addr: u64,
        }
        impl InstructionStream for Scan {
            fn next_op(&mut self) -> Op {
                self.addr += 64;
                Op::load(self.addr % (256 * 1024 * 1024))
            }
        }
        let on_cfg = SimConfig::xeon_like(1);
        let off_cfg = SimConfig::xeon_like(1).with_prefetcher(false);
        let mut on = Machine::new(on_cfg, vec![Box::new(Scan { addr: 0 })]).unwrap();
        let mut off = Machine::new(off_cfg, vec![Box::new(Scan { addr: 0 })]).unwrap();
        on.run_ops(30_000);
        off.run_ops(30_000);
        let cpi = |m: &Machine| {
            let c = m.total_counters();
            c.busy_ns * m.config().core_clock_ghz / c.instructions as f64
        };
        assert!(
            cpi(&off) > cpi(&on) * 1.3,
            "off {} vs on {}",
            cpi(&off),
            cpi(&on)
        );
    }

    #[test]
    fn writebacks_flow_from_dirty_stores() {
        struct StoreScan {
            addr: u64,
        }
        impl InstructionStream for StoreScan {
            fn next_op(&mut self) -> Op {
                self.addr += 64;
                Op::store(self.addr % (64 * 1024 * 1024))
            }
        }
        let cfg = SimConfig::xeon_like(1);
        let mut m = Machine::new(cfg, vec![Box::new(StoreScan { addr: 0 })]).unwrap();
        m.run_ops(50_000);
        let c = m.total_counters();
        assert!(c.writebacks > 1_000, "dirty evictions: {}", c.writebacks);
        assert!(m.memory_stats().writes >= c.writebacks);
    }

    #[test]
    fn nt_stores_generate_write_traffic_without_caching() {
        struct NtScan {
            addr: u64,
        }
        impl InstructionStream for NtScan {
            fn next_op(&mut self) -> Op {
                self.addr += 64;
                Op::nt_store(self.addr)
            }
        }
        let cfg = SimConfig::xeon_like(1);
        let mut m = Machine::new(cfg, vec![Box::new(NtScan { addr: 0 })]).unwrap();
        m.run_ops(5_000);
        let c = m.total_counters();
        assert_eq!(c.nt_stores, 5_000);
        assert_eq!(m.memory_stats().writes, 5_000);
        assert_eq!(c.llc_demand_misses, 0);
    }

    #[test]
    fn io_traffic_injected() {
        let pattern = PatternStream::new(vec![Op::compute()]).with_io_rate(32.0);
        let cfg = SimConfig::xeon_like(1);
        let mut m = Machine::new(cfg, vec![Box::new(pattern)]).unwrap();
        m.run_ops(1_000);
        let c = m.total_counters();
        // 32 B/instr × 1000 instr = 32 000 B = 500 lines.
        assert_eq!(c.io_bytes, 32_000);
        assert_eq!(m.memory_stats().total_bytes(), 32_000);
    }

    #[test]
    fn measure_window_produces_metrics() {
        let mut m = machine_with(vec![Op::compute(), Op::load(0)], 2);
        m.run_ops(1_000);
        let meas = m.measure_for_ns(10_000.0).expect("instructions retired");
        assert!(meas.cpi_eff > 0.0);
        assert!(meas.cpu_utilization > 0.9);
        assert!(meas.instructions > 0);
    }

    #[test]
    fn sample_series_advances_time() {
        let mut m = machine_with(vec![Op::compute()], 1);
        let samples = m.sample_series(1_000.0, 5);
        assert_eq!(samples.len(), 5);
        for w in samples.windows(2) {
            assert!(w[1].time_s > w[0].time_s);
        }
    }

    #[test]
    fn multicore_contention_raises_latency() {
        // The same random-load stream on 1 vs 16 threads: shared channels
        // must show higher average miss latency under load.
        struct RandLoad {
            addr: u64,
        }
        impl InstructionStream for RandLoad {
            fn next_op(&mut self) -> Op {
                self.addr = self.addr.wrapping_mul(6364136223846793005).wrapping_add(99);
                Op::load((self.addr % (64 * 1024 * 1024)) & !63)
            }
        }
        let one = {
            let cfg = SimConfig::xeon_like(1);
            let mut m = Machine::new(cfg, vec![Box::new(RandLoad { addr: 3 })]).unwrap();
            m.run_ops(10_000);
            let c = m.total_counters();
            c.demand_miss_latency_ns / c.demand_miss_samples as f64
        };
        let many = {
            let cfg = SimConfig::xeon_like(16);
            let streams: Vec<BoxedStream> = (0..16)
                .map(|i| Box::new(RandLoad { addr: 3 + i }) as BoxedStream)
                .collect();
            let mut m = Machine::new(cfg, streams).unwrap();
            m.run_ops(10_000);
            let c = m.total_counters();
            c.demand_miss_latency_ns / c.demand_miss_samples as f64
        };
        assert!(
            many > one * 1.2,
            "16-thread latency {many} must exceed 1-thread {one}"
        );
    }

    #[test]
    fn tlb_misses_slow_scattered_access() {
        struct PageHopper {
            page: u64,
        }
        impl InstructionStream for PageHopper {
            fn next_op(&mut self) -> Op {
                self.page = self.page.wrapping_add(1);
                // One access per page over a huge footprint, but always the
                // same line within the L1 set — cache hits, TLB misses.
                Op::load((self.page % 100_000) << 12)
            }
        }
        let without = {
            let cfg = SimConfig::xeon_like(1);
            let mut m = Machine::new(cfg, vec![Box::new(PageHopper { page: 0 })]).unwrap();
            m.run_ops(5_000);
            m.total_counters()
        };
        let with = {
            let cfg = SimConfig::xeon_like(1).with_tlb(crate::tlb::TlbConfig::dtlb_64());
            let mut m = Machine::new(cfg, vec![Box::new(PageHopper { page: 0 })]).unwrap();
            m.run_ops(5_000);
            m.total_counters()
        };
        assert_eq!(without.tlb_misses, 0);
        assert!(
            with.tlb_misses > 4_000,
            "page hopping misses the TLB: {}",
            with.tlb_misses
        );
        assert!(with.busy_ns > without.busy_ns * 1.1, "walks cost time");
    }

    #[test]
    fn numa_interleaved_slower_than_local() {
        use crate::config::NumaSimConfig;
        struct RandLoad {
            addr: u64,
        }
        impl InstructionStream for RandLoad {
            fn next_op(&mut self) -> Op {
                self.addr = self.addr.wrapping_mul(6364136223846793005).wrapping_add(17);
                Op::dependent_load((self.addr % (32 * 1024 * 1024)) & !63)
            }
        }
        let run = |numa: NumaSimConfig| {
            let cfg = SimConfig::xeon_like(4).with_numa(numa);
            let streams: Vec<BoxedStream> = (0..4)
                .map(|i| Box::new(RandLoad { addr: 11 + i }) as BoxedStream)
                .collect();
            let mut m = Machine::new(cfg, streams).unwrap();
            m.run_ops(5_000);
            let c = m.total_counters();
            c.demand_miss_latency_ns / c.demand_miss_samples as f64
        };
        let local = run(NumaSimConfig::dual_socket(false));
        let interleaved = run(NumaSimConfig::dual_socket(true));
        // Interleaved placement sends ~half the misses across the 2×30 ns
        // hop: average latency rises by roughly 30 ns.
        assert!(
            interleaved > local + 15.0,
            "interleaved {interleaved} vs local {local}"
        );
    }

    #[test]
    fn numa_validation_rejects_odd_split() {
        use crate::config::NumaSimConfig;
        let mut cfg = SimConfig::xeon_like(3);
        cfg.numa = NumaSimConfig::dual_socket(true);
        assert!(cfg.validate().is_err(), "3 cores over 2 sockets rejected");
    }

    #[test]
    fn phase_instruction_counts_attributed() {
        struct Phased {
            n: u64,
        }
        impl InstructionStream for Phased {
            fn next_op(&mut self) -> Op {
                self.n += 1;
                Op::compute()
            }
            fn phase(&self) -> &str {
                // next_op has already advanced n for the op being counted.
                if self.n.is_multiple_of(4) {
                    "minor"
                } else {
                    "major"
                }
            }
        }
        let cfg = SimConfig::xeon_like(1);
        let mut m = Machine::new(cfg, vec![Box::new(Phased { n: 0 })]).unwrap();
        m.run_ops(4_000);
        let counts = m.phase_instruction_counts();
        let major = counts["major"];
        let minor = counts["minor"];
        assert_eq!(major + minor, 4_000);
        assert!(
            (major as f64 / minor as f64 - 3.0).abs() < 0.1,
            "{major}/{minor}"
        );
        // Pins the no-unordered-output audit: phase counters report through
        // a BTreeMap, so labels always come back in sorted order regardless
        // of the order threads first touched them.
        let labels: Vec<&String> = counts.keys().collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted);
    }

    #[test]
    fn background_traffic_slows_foreground() {
        struct Chase {
            addr: u64,
        }
        impl InstructionStream for Chase {
            fn next_op(&mut self) -> Op {
                self.addr = self.addr.wrapping_mul(6364136223846793005).wrapping_add(3);
                Op::dependent_load((self.addr % (32 * 1024 * 1024)) & !63)
            }
        }
        let run = |bg: Option<f64>| {
            let cfg = SimConfig::xeon_like(2);
            let streams: Vec<BoxedStream> = (0..2)
                .map(|i| Box::new(Chase { addr: 5 + i }) as BoxedStream)
                .collect();
            let mut m = Machine::new(cfg, streams).unwrap();
            if let Some(rate) = bg {
                m.add_background_traffic(rate, 0.5, 0);
            }
            m.run_ops(8_000);
            let c = m.total_counters();
            (
                c.busy_ns * m.config().core_clock_ghz / c.instructions as f64,
                m.memory_stats().total_bytes(),
            )
        };
        let (quiet_cpi, quiet_bytes) = run(None);
        let (loud_cpi, loud_bytes) = run(Some(25.0));
        assert!(
            loud_cpi > quiet_cpi * 1.05,
            "25 GB/s of DMA must slow a pointer chase: {quiet_cpi} -> {loud_cpi}"
        );
        assert!(
            loud_bytes > quiet_bytes * 2,
            "DMA bytes visible in the controller"
        );
    }

    #[test]
    #[should_panic(expected = "rate must be > 0")]
    fn background_rejects_zero_rate() {
        let cfg = SimConfig::xeon_like(1);
        let mut m =
            Machine::new(cfg, vec![Box::new(PatternStream::new(vec![Op::compute()]))]).unwrap();
        m.add_background_traffic(0.0, 0.5, 0);
    }

    /// Core 0's end state, exact: `busy_ns`, `stall_ns`, `idle_ns` and the
    /// thread clock as bits, then the retired count.
    fn core0_bits(m: &Machine) -> ([u64; 4], u64) {
        let c = &m.cores[0];
        (
            [
                c.counters.busy_ns.to_bits(),
                c.counters.stall_ns.to_bits(),
                c.counters.idle_ns.to_bits(),
                c.time_ns.to_bits(),
            ],
            c.counters.instructions,
        )
    }

    /// Eight independent misses, then a compute run of 400 ops: the run is
    /// longer than the 96-entry reorder window, so the window fills and
    /// stalls in the middle of it.
    struct MissesThenCompute {
        n: u64,
        addr: u64,
    }

    impl InstructionStream for MissesThenCompute {
        fn next_op(&mut self) -> Op {
            self.n += 1;
            if self.n % 408 < 8 {
                self.addr = self.addr.wrapping_mul(6364136223846793005).wrapping_add(41);
                Op::load((self.addr % (64 * 1024 * 1024)) & !63)
            } else {
                Op::compute_heavy((self.n % 3) as u32)
            }
        }
    }

    #[test]
    fn rob_stall_inside_a_compute_run_is_bit_exact() {
        let cfg = SimConfig::xeon_like(1);
        let stream = MissesThenCompute { n: 0, addr: 9 };
        let mut m = Machine::new(cfg, vec![Box::new(stream)]).unwrap();
        m.run_ops(20_000);
        assert!(m.total_counters().stall_ns > 0.0, "the window must fill");
        assert_eq!(
            core0_bits(&m),
            (
                [
                    4667609115355564577,
                    4657675336858935242,
                    0,
                    4667609115355564577
                ],
                20_000
            )
        );
    }

    /// Compute ops whose I/O rate switches between zero and nonzero every
    /// 13 ops, so rate runs start and end inside scheduling quanta.
    struct IoBursts {
        n: u64,
    }

    impl InstructionStream for IoBursts {
        fn next_op(&mut self) -> Op {
            self.n += 1;
            Op::compute_heavy((self.n % 4) as u32)
        }
        fn io_bytes_per_instruction(&self) -> f64 {
            if (self.n / 13).is_multiple_of(2) {
                0.0
            } else {
                40.0
            }
        }
    }

    #[test]
    fn compute_under_io_bursts_is_bit_exact() {
        let cfg = SimConfig::xeon_like(1);
        let mut m = Machine::new(cfg, vec![Box::new(IoBursts { n: 0 })]).unwrap();
        m.run_ops(5_000);
        let c = m.total_counters();
        assert_eq!(c.io_bytes, 99_840);
        assert_eq!(m.memory_stats().total_bytes(), c.io_bytes);
        assert_eq!(
            core0_bits(&m),
            ([4659344879327826573, 0, 0, 4659344879327826573], 5_000)
        );
    }

    /// A label that changes every 7 ops (never aligned with a quantum),
    /// over compute ops with a load every 11th op.
    struct ShortPhases {
        n: u64,
    }

    impl InstructionStream for ShortPhases {
        fn next_op(&mut self) -> Op {
            self.n += 1;
            if self.n.is_multiple_of(11) {
                Op::load((self.n * 64) % (256 * 1024))
            } else {
                Op::compute_heavy((self.n % 5) as u32)
            }
        }
        fn phase(&self) -> &str {
            ["a", "b", "c"][(self.n / 7 % 3) as usize]
        }
    }

    #[test]
    fn mid_block_phase_changes_are_bit_exact() {
        let cfg = SimConfig::xeon_like(1);
        let mut m = Machine::new(cfg, vec![Box::new(ShortPhases { n: 0 })]).unwrap();
        m.run_ops(3_001);
        let counts: Vec<(String, u64)> = m.phase_instruction_counts().into_iter().collect();
        let expect: Vec<(String, u64)> = [("a", 1_000), ("b", 1_001), ("c", 1_000)]
            .iter()
            .map(|&(l, n)| (l.to_string(), n))
            .collect();
        assert_eq!(counts, expect);
        assert_eq!(
            core0_bits(&m),
            (
                [
                    4657408518625346385,
                    4633758440138628938,
                    0,
                    4657408518625346385
                ],
                3_001
            )
        );
    }

    #[test]
    fn idle_ops_between_compute_runs_are_bit_exact() {
        let mut pattern = vec![Op::compute(); 5];
        pattern.push(Op::idle(7));
        pattern.extend([Op::compute_heavy(2); 3]);
        pattern.push(Op::idle(1));
        pattern.push(Op::compute());
        let mut m = machine_with(pattern, 2);
        m.run_ops(4_000);
        assert_eq!(
            core0_bits(&m),
            (
                [
                    4653683127452531767,
                    0,
                    4653500689967626492,
                    4658095508337449661
                ],
                4_000
            )
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut m = machine_with(vec![Op::compute(), Op::load(0), Op::store(4096)], 4);
            m.run_ops(5_000);
            let c = m.total_counters();
            (c.instructions, c.busy_ns.to_bits(), c.llc_demand_misses)
        };
        assert_eq!(run(), run());
    }
}

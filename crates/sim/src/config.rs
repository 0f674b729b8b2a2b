//! Simulator configuration.
//!
//! Mirrors the knobs the paper turns on its Xeon E5-2600 testbed: core clock
//! (OS governors), memory speed (BIOS/MSRs), core counts, and the cache
//! hierarchy (2.5 MB LLC per core). Defaults are scaled down so that a few
//! million simulated instructions exhibit the same cache behaviour a real
//! machine shows over billions.

use crate::SimError;

/// Cache geometry and latency for one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `line_size × ways`.
    pub capacity: usize,
    /// Associativity (ways per set). Must be ≥ 1.
    pub ways: usize,
    /// Load-to-use latency in core cycles on a hit at this level.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry for a given line size.
    pub fn sets(&self, line_size: usize) -> usize {
        self.capacity / (line_size * self.ways)
    }
}

/// Row-buffer management policy for the DRAM banks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowPolicy {
    /// Closed page: every access pays the amortized
    /// [`MemoryConfig::bank_access_ns`] (activate + CAS + precharge). The
    /// default, and what the calibrated workload parameters assume.
    ClosedPage,
    /// Open page: the bank keeps its last row open. Row hits pay only
    /// `hit_ns` (CAS); row conflicts pay `miss_ns` (precharge + activate +
    /// CAS). `row_bytes` is the row (page) size.
    OpenPage {
        /// Access time on a row-buffer hit (ns).
        hit_ns: f64,
        /// Access time on a row-buffer conflict (ns).
        miss_ns: f64,
        /// DRAM row size in bytes (8 KiB typical).
        row_bytes: u64,
    },
}

impl RowPolicy {
    /// A DDR3-flavoured open-page policy: ~15 ns CAS on a hit, ~52 ns on a
    /// conflict, 8 KiB rows.
    pub fn open_page_ddr3() -> Self {
        RowPolicy::OpenPage {
            hit_ns: 15.0,
            miss_ns: 52.0,
            row_bytes: 8192,
        }
    }
}

/// Periodic DRAM refresh (optional fidelity feature).
///
/// Every `interval_ns` each channel is unavailable for `duration_ns` while
/// rows refresh (tREFI/tRFC). Disabled by default; the steady-state
/// bandwidth loss is `duration/interval` (~4–5% for DDR3/4 parts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshConfig {
    /// Refresh interval per channel (tREFI), ns.
    pub interval_ns: f64,
    /// Refresh duration (tRFC), ns.
    pub duration_ns: f64,
}

impl RefreshConfig {
    /// A 4 Gb DDR3 part: tREFI 7.8 µs, tRFC 300 ns.
    pub fn ddr3_4gb() -> Self {
        RefreshConfig {
            interval_ns: 7_800.0,
            duration_ns: 300.0,
        }
    }
}

/// DDR-style memory channel timing.
///
/// The unloaded latency seen by a core is
/// `controller_overhead + bank_access + transfer`, which with the defaults
/// lands near the paper's 75 ns compulsory latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Independent channels; cache lines are interleaved across them.
    pub channels: u32,
    /// Banks per channel that can overlap row access.
    pub banks_per_channel: u32,
    /// Transfer rate in mega-transfers per second (e.g. 1866.7 for
    /// DDR3-1867). Sets the per-channel data-bus occupancy per line.
    pub mega_transfers: f64,
    /// Average bank access time (activate + CAS + precharge amortized), ns.
    pub bank_access_ns: f64,
    /// Fixed path overhead (on-chip interconnect + controller), ns.
    pub controller_overhead_ns: f64,
    /// Extra bus penalty when a channel switches between reads and writes.
    pub turnaround_ns: f64,
    /// Per-channel request queue capacity (back-pressure limit).
    pub queue_depth: usize,
    /// Row-buffer policy.
    pub row_policy: RowPolicy,
    /// Periodic refresh; `None` disables it (the default).
    pub refresh: Option<RefreshConfig>,
}

impl MemoryConfig {
    /// DDR3-1867, four channels — the paper's baseline memory.
    pub fn ddr3_1867() -> Self {
        MemoryConfig {
            channels: 4,
            banks_per_channel: 16, // 2 ranks x 8 banks
            mega_transfers: 1866.7,
            bank_access_ns: 42.0,
            controller_overhead_ns: 28.0,
            turnaround_ns: 7.5,
            queue_depth: 32,
            row_policy: RowPolicy::ClosedPage,
            refresh: None,
        }
    }

    /// DDR3-1333: the slower memory-speed setting used in the frequency /
    /// memory-speed sweeps (Sec. V.A) and the second Fig. 7 speed.
    pub fn ddr3_1333() -> Self {
        MemoryConfig {
            mega_transfers: 1333.0,
            bank_access_ns: 46.0,
            ..Self::ddr3_1867()
        }
    }

    /// Seconds the data bus is occupied transferring one cache line.
    pub fn transfer_ns(&self, line_size: usize) -> f64 {
        line_size as f64 / (self.mega_transfers * 1e6 * 8.0) * 1e9
    }

    /// Peak bandwidth across all channels in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.mega_transfers * 1e6 * 8.0 * self.channels as f64 / 1e9
    }

    /// Approximate unloaded (compulsory) latency in ns.
    pub fn unloaded_latency_ns(&self, line_size: usize) -> f64 {
        self.controller_overhead_ns + self.bank_access_ns + self.transfer_ns(line_size)
    }
}

/// Stream-prefetcher settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Master enable.
    pub enabled: bool,
    /// Consecutive same-direction misses within a page needed to arm a
    /// stream.
    pub train_threshold: u32,
    /// Lines fetched ahead of an armed stream.
    pub degree: u32,
    /// Maximum simultaneously tracked streams.
    pub streams: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            enabled: true,
            train_threshold: 2,
            degree: 12,
            streams: 16,
        }
    }
}

/// Multi-socket (NUMA) topology for the simulator. One memory controller
/// per socket; remote accesses pay an interconnect hop each way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumaSimConfig {
    /// Sockets; 1 disables NUMA modeling (single controller, no hops).
    pub sockets: u32,
    /// One-way interconnect hop latency (ns); a remote access pays two.
    pub hop_ns: f64,
    /// Memory placement: `true` interleaves lines across sockets (a
    /// (sockets−1)/sockets remote fraction), `false` homes every line on
    /// the accessing core's socket (perfect locality).
    pub interleaved: bool,
}

impl NumaSimConfig {
    /// Single socket (the default): no NUMA effects.
    pub fn single_socket() -> Self {
        NumaSimConfig {
            sockets: 1,
            hop_ns: 0.0,
            interleaved: false,
        }
    }

    /// A QPI-era dual-socket topology with ~30 ns one-way hops.
    pub fn dual_socket(interleaved: bool) -> Self {
        NumaSimConfig {
            sockets: 2,
            hop_ns: 30.0,
            interleaved,
        }
    }
}

impl Default for NumaSimConfig {
    fn default() -> Self {
        Self::single_socket()
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of hardware threads simulated (the paper runs one software
    /// thread per logical processor).
    pub cores: u32,
    /// Core clock in GHz.
    pub core_clock_ghz: f64,
    /// Instructions retired per cycle when nothing stalls.
    pub issue_width: u32,
    /// Reorder-window size: how many instructions the core can run ahead of
    /// the oldest incomplete memory access.
    pub rob_size: u32,
    /// Miss-status-holding registers: maximum overlapping LLC misses per
    /// core (bounds MLP).
    pub mshrs: u32,
    /// Cache line size in bytes.
    pub line_size: usize,
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Private L2 cache.
    pub l2: CacheConfig,
    /// Per-core LLC slice (the paper's machines have 2.5 MB LLC per core).
    pub llc: CacheConfig,
    /// Memory subsystem.
    pub memory: MemoryConfig,
    /// Prefetcher.
    pub prefetch: PrefetchConfig,
    /// Data TLB (disabled by default; see [`crate::tlb::TlbConfig`]).
    pub tlb: crate::tlb::TlbConfig,
    /// NUMA topology (single socket by default). With `sockets > 1`,
    /// [`SimConfig::cores`] are split evenly across sockets and
    /// [`SimConfig::memory`] describes *one socket's* channels.
    pub numa: NumaSimConfig,
    /// RNG seed for anything stochastic inside the engine.
    pub seed: u64,
}

impl SimConfig {
    /// A scaled-down Xeon-E5-2600-like machine: cache capacities are ~1/64
    /// of the real parts so that sub-million-instruction runs reach the
    /// steady-state miss behaviour billions of instructions would on
    /// hardware. Workload footprints in `memsense-workloads` are scaled to
    /// match.
    pub fn xeon_like(cores: u32) -> Self {
        SimConfig {
            cores,
            core_clock_ghz: 2.7,
            issue_width: 4,
            rob_size: 96,
            mshrs: 10,
            line_size: 64,
            l1: CacheConfig {
                capacity: 1024,
                ways: 8,
                hit_latency: 4,
            },
            l2: CacheConfig {
                capacity: 8 * 1024,
                ways: 8,
                hit_latency: 12,
            },
            llc: CacheConfig {
                capacity: 40 * 1024,
                ways: 20,
                hit_latency: 36,
            },
            memory: MemoryConfig::ddr3_1867(),
            prefetch: PrefetchConfig::default(),
            tlb: crate::tlb::TlbConfig::disabled(),
            numa: NumaSimConfig::single_socket(),
            seed: 0x5eed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.cores == 0 {
            return Err(SimError::InvalidConfig("cores must be > 0"));
        }
        if !(self.core_clock_ghz > 0.0 && self.core_clock_ghz.is_finite()) {
            return Err(SimError::InvalidConfig("core clock must be > 0"));
        }
        if self.issue_width == 0 {
            return Err(SimError::InvalidConfig("issue width must be > 0"));
        }
        if self.rob_size == 0 {
            return Err(SimError::InvalidConfig("rob size must be > 0"));
        }
        if self.mshrs == 0 {
            return Err(SimError::InvalidConfig("mshrs must be > 0"));
        }
        if !self.line_size.is_power_of_two() || self.line_size < 8 {
            return Err(SimError::InvalidConfig(
                "line size must be a power of two >= 8",
            ));
        }
        for (name, c) in [("l1", &self.l1), ("l2", &self.l2), ("llc", &self.llc)] {
            if c.ways == 0 {
                return Err(SimError::InvalidConfig("cache ways must be > 0"));
            }
            let line_bytes = self.line_size * c.ways;
            if c.capacity == 0 || c.capacity % line_bytes != 0 {
                return Err(SimError::InvalidConfig(match name {
                    "l1" => "l1 capacity must be a positive multiple of line_size*ways",
                    "l2" => "l2 capacity must be a positive multiple of line_size*ways",
                    _ => "llc capacity must be a positive multiple of line_size*ways",
                }));
            }
            if !c.sets(self.line_size).is_power_of_two() {
                return Err(SimError::InvalidConfig(
                    "cache set count must be a power of two",
                ));
            }
        }
        if self.memory.channels == 0 || self.memory.banks_per_channel == 0 {
            return Err(SimError::InvalidConfig("channels and banks must be > 0"));
        }
        if self.memory.mega_transfers.is_nan() || self.memory.mega_transfers <= 0.0 {
            return Err(SimError::InvalidConfig("memory transfer rate must be > 0"));
        }
        if self.memory.queue_depth == 0 {
            return Err(SimError::InvalidConfig("queue depth must be > 0"));
        }
        if self.numa.sockets == 0 {
            return Err(SimError::InvalidConfig("sockets must be > 0"));
        }
        if !self.cores.is_multiple_of(self.numa.sockets) {
            return Err(SimError::InvalidConfig(
                "cores must divide evenly across sockets",
            ));
        }
        if !(self.numa.hop_ns >= 0.0 && self.numa.hop_ns.is_finite()) {
            return Err(SimError::InvalidConfig("hop latency must be >= 0"));
        }
        Ok(())
    }

    /// Converts nanoseconds to core cycles at the configured clock.
    pub fn ns_to_cycles(&self, ns: f64) -> f64 {
        ns * self.core_clock_ghz
    }

    /// Returns a copy with a different core clock (the frequency-scaling
    /// knob of Sec. V.A).
    pub fn with_core_clock(mut self, ghz: f64) -> Self {
        self.core_clock_ghz = ghz;
        self
    }

    /// Returns a copy with different memory timing (the memory-speed knob).
    pub fn with_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// Returns a copy with the prefetcher force-enabled or disabled.
    pub fn with_prefetcher(mut self, enabled: bool) -> Self {
        self.prefetch.enabled = enabled;
        self
    }

    /// Returns a copy with a data-TLB model enabled.
    pub fn with_tlb(mut self, tlb: crate::tlb::TlbConfig) -> Self {
        self.tlb = tlb;
        self
    }

    /// Returns a copy with a NUMA topology.
    pub fn with_numa(mut self, numa: NumaSimConfig) -> Self {
        self.numa = numa;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::xeon_like(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_valid() {
        SimConfig::default().validate().unwrap();
        SimConfig::xeon_like(16).validate().unwrap();
    }

    #[test]
    fn unloaded_latency_near_75ns() {
        let m = MemoryConfig::ddr3_1867();
        let lat = m.unloaded_latency_ns(64);
        assert!((lat - 75.0).abs() < 2.0, "unloaded = {lat} ns");
    }

    #[test]
    fn peak_bandwidth_matches_paper() {
        let m = MemoryConfig::ddr3_1867();
        assert!((m.peak_bandwidth_gbps() - 59.7).abs() < 0.1);
        let slow = MemoryConfig::ddr3_1333();
        assert!(slow.peak_bandwidth_gbps() < m.peak_bandwidth_gbps());
    }

    #[test]
    fn transfer_time_scales_with_speed() {
        let fast = MemoryConfig::ddr3_1867().transfer_ns(64);
        let slow = MemoryConfig::ddr3_1333().transfer_ns(64);
        assert!(slow > fast);
        assert!((fast - 4.29).abs() < 0.05);
    }

    #[test]
    fn cache_sets_computed() {
        let c = CacheConfig {
            capacity: 32 * 1024,
            ways: 8,
            hit_latency: 4,
        };
        assert_eq!(c.sets(64), 64);
    }

    #[test]
    fn invalid_configs_rejected() {
        let base = SimConfig::default();
        let mut c = base.clone();
        c.cores = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.core_clock_ghz = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.line_size = 48;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.l1.capacity = 1000; // not a multiple
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.mshrs = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.memory.channels = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.memory.queue_depth = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ns_to_cycles_scales_by_clock() {
        let c = SimConfig::default().with_core_clock(2.0);
        assert_eq!(c.ns_to_cycles(10.0), 20.0);
    }

    #[test]
    fn knob_builders() {
        let c = SimConfig::default()
            .with_core_clock(2.1)
            .with_memory(MemoryConfig::ddr3_1333())
            .with_prefetcher(false);
        assert_eq!(c.core_clock_ghz, 2.1);
        assert_eq!(c.memory.mega_transfers, 1333.0);
        assert!(!c.prefetch.enabled);
    }
}

//! DDR-style memory controller.
//!
//! Cache lines interleave across channels; each channel has a shared data
//! bus and several banks. A request occupies a bank for the row access, then
//! the bus for the line transfer; switching the bus between reads and writes
//! costs a turnaround penalty. Queueing delay *emerges* from bank and bus
//! contention — this is the mechanism behind the Fig. 7 curve.

use crate::config::MemoryConfig;

/// A completed memory request's timing breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemResponse {
    /// Absolute completion time (ns).
    pub complete_ns: f64,
    /// Total latency from issue to completion (ns).
    pub latency_ns: f64,
}

#[derive(Debug, Clone)]
struct Channel {
    bank_free_ns: Vec<f64>,
    open_row: Vec<Option<u64>>,
    bus_free_ns: f64,
    last_was_write: bool,
}

/// Aggregate memory-controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Completed read (line fetch) requests.
    pub reads: u64,
    /// Completed write (write-back / non-temporal / DMA) requests.
    pub writes: u64,
    /// Bytes moved by reads.
    pub read_bytes: u64,
    /// Bytes moved by writes.
    pub write_bytes: u64,
    /// Sum of read latencies (ns), for average-latency derivation.
    pub total_read_latency_ns: f64,
    /// Total data-bus busy time across channels (ns), for utilization.
    pub bus_busy_ns: f64,
    /// Row-buffer hits (open-page policy only).
    pub row_hits: u64,
    /// Row-buffer conflicts / first activations (open-page policy only).
    pub row_conflicts: u64,
}

impl MemStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Average read latency in ns (0 when no reads completed).
    pub fn avg_read_latency_ns(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency_ns / self.reads as f64
        }
    }

    /// Field-wise difference (`self − earlier`), for interval sampling.
    pub fn delta(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            total_read_latency_ns: self.total_read_latency_ns - earlier.total_read_latency_ns,
            bus_busy_ns: self.bus_busy_ns - earlier.bus_busy_ns,
            row_hits: self.row_hits - earlier.row_hits,
            row_conflicts: self.row_conflicts - earlier.row_conflicts,
        }
    }
}

/// The memory controller shared by all cores and I/O agents.
#[derive(Debug, Clone)]
pub struct MemoryController {
    config: MemoryConfig,
    line_size: usize,
    transfer_ns: f64,
    channels: Vec<Channel>,
    line_shift: u32,
    stats: MemStats,
}

impl MemoryController {
    /// Builds a controller for the given channel configuration and line size.
    pub fn new(config: MemoryConfig, line_size: usize) -> Self {
        let transfer_ns = config.transfer_ns(line_size);
        let channels = (0..config.channels)
            .map(|_| Channel {
                // memsense-lint: allow(no-per-op-alloc) — one-time controller build
                bank_free_ns: vec![0.0; config.banks_per_channel as usize],
                // memsense-lint: allow(no-per-op-alloc) — one-time controller build
                open_row: vec![None; config.banks_per_channel as usize],
                bus_free_ns: 0.0,
                last_was_write: false,
            })
            .collect();
        MemoryController {
            config,
            line_size,
            transfer_ns,
            channels,
            line_shift: line_size.trailing_zeros(),
            stats: MemStats::default(),
        }
    }

    /// Issues a line-sized request at absolute time `now_ns` and returns its
    /// completion time. Reads contribute to latency statistics; writes are
    /// posted (fire-and-forget) but still occupy banks and the bus.
    pub fn request(&mut self, now_ns: f64, addr: u64, write: bool) -> MemResponse {
        let line = addr >> self.line_shift;
        // Fold higher address bits into the channel/bank selection (real
        // controllers hash) so strided streams don't alias onto a subset of
        // channels.
        let hashed = line ^ (line >> 4) ^ (line >> 9) ^ (line >> 15);
        let nchan = self.channels.len() as u64;
        let nbanks = self.config.banks_per_channel as u64;
        // Power-of-two counts (the common DDR geometry) select with
        // mask/shift instead of two 64-bit divisions; the quotient/remainder
        // split is bit-identical in that case.
        let (chan_idx, bank_idx) = if nchan.is_power_of_two() && nbanks.is_power_of_two() {
            (
                (hashed & (nchan - 1)) as usize,
                ((hashed >> nchan.trailing_zeros()) & (nbanks - 1)) as usize,
            )
        } else {
            (
                (hashed % nchan) as usize,
                ((hashed / nchan) % nbanks) as usize,
            )
        };
        let chan = &mut self.channels[chan_idx];

        // Request path to the controller.
        let arrive = now_ns + self.config.controller_overhead_ns * 0.5;

        // Row access occupies the bank; under an open-page policy a
        // row-buffer hit pays only the column access.
        let access_ns = match self.config.row_policy {
            crate::config::RowPolicy::ClosedPage => self.config.bank_access_ns,
            crate::config::RowPolicy::OpenPage {
                hit_ns,
                miss_ns,
                row_bytes,
            } => {
                let row = addr / row_bytes;
                let slot = &mut chan.open_row[bank_idx];
                if *slot == Some(row) {
                    self.stats.row_hits += 1;
                    hit_ns
                } else {
                    *slot = Some(row);
                    self.stats.row_conflicts += 1;
                    miss_ns
                }
            }
        };
        let mut bank_start = arrive.max(chan.bank_free_ns[bank_idx]);
        // Refresh blackout: a request landing inside the per-channel
        // refresh window waits for it to end.
        if let Some(refresh) = self.config.refresh {
            let phase = bank_start.rem_euclid(refresh.interval_ns);
            if phase < refresh.duration_ns {
                bank_start += refresh.duration_ns - phase;
            }
        }
        let bank_done = bank_start + access_ns;
        chan.bank_free_ns[bank_idx] = bank_done;

        // Line transfer occupies the shared bus; direction switches pay a
        // turnaround penalty. Refresh blocks the bus as well as the banks
        // (the whole rank is unavailable).
        let mut bus_start = bank_done.max(chan.bus_free_ns);
        if chan.last_was_write != write {
            bus_start += self.config.turnaround_ns;
        }
        if let Some(refresh) = self.config.refresh {
            let phase = bus_start.rem_euclid(refresh.interval_ns);
            if phase < refresh.duration_ns {
                bus_start += refresh.duration_ns - phase;
            }
        }
        let bus_done = bus_start + self.transfer_ns;
        chan.bus_free_ns = bus_done;
        chan.last_was_write = write;
        self.stats.bus_busy_ns += self.transfer_ns;

        // Response path back to the core.
        let complete_ns = bus_done + self.config.controller_overhead_ns * 0.5;
        let latency_ns = complete_ns - now_ns;

        if write {
            self.stats.writes += 1;
            self.stats.write_bytes += self.line_size as u64;
        } else {
            self.stats.reads += 1;
            self.stats.read_bytes += self.line_size as u64;
            self.stats.total_read_latency_ns += latency_ns;
        }

        MemResponse {
            complete_ns,
            latency_ns,
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Unloaded latency for this configuration (ns).
    pub fn unloaded_latency_ns(&self) -> f64 {
        self.config.unloaded_latency_ns(self.line_size)
    }

    /// Peak bandwidth across channels (GB/s).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.config.peak_bandwidth_gbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> MemoryController {
        MemoryController::new(MemoryConfig::ddr3_1867(), 64)
    }

    #[test]
    fn idle_request_sees_unloaded_latency() {
        let mut m = ctrl();
        let r = m.request(0.0, 0x1000, false);
        assert!(
            (r.latency_ns - m.unloaded_latency_ns()).abs() < 1e-9,
            "latency {} vs unloaded {}",
            r.latency_ns,
            m.unloaded_latency_ns()
        );
    }

    #[test]
    fn spaced_requests_stay_unloaded() {
        let mut m = ctrl();
        for i in 0..100u64 {
            let r = m.request(i as f64 * 1000.0, i * 64, false);
            assert!((r.latency_ns - m.unloaded_latency_ns()).abs() < 1e-6);
        }
    }

    #[test]
    fn same_bank_requests_queue() {
        let mut m = ctrl();
        // Same channel, same bank: second request waits for the bank.
        let a = m.request(0.0, 0, false);
        let b = m.request(0.0, 0, false);
        assert!(
            b.latency_ns > a.latency_ns + 30.0,
            "bank conflict must queue"
        );
    }

    #[test]
    fn different_channels_do_not_interfere() {
        let mut m = ctrl();
        let a = m.request(0.0, 0, false);
        let b = m.request(0.0, 64, false); // next line → next channel
        assert!((a.latency_ns - b.latency_ns).abs() < 1e-9);
    }

    #[test]
    fn burst_latency_grows_with_load() {
        let mut m = ctrl();
        // Fire a dense burst at one instant: average latency must exceed
        // unloaded (queueing), and the tail must be slower than the head.
        let mut last = 0.0;
        for i in 0..256u64 {
            let r = m.request(0.0, i * 64, false);
            last = r.latency_ns;
        }
        assert!(last > m.unloaded_latency_ns() * 2.0);
    }

    #[test]
    fn read_write_turnaround_penalty() {
        let mut m = ctrl();
        // Alternate read/write on the same channel back-to-back.
        let _ = m.request(0.0, 0, false);
        let w = m.request(0.0, 4 * 64, true); // same channel (4 channels)
        let mut m2 = ctrl();
        let _ = m2.request(0.0, 0, false);
        let r2 = m2.request(0.0, 4 * 64, false);
        assert!(
            w.complete_ns > r2.complete_ns,
            "direction switch must cost turnaround"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut m = ctrl();
        m.request(0.0, 0, false);
        m.request(0.0, 64, true);
        let s = m.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.read_bytes, 64);
        assert_eq!(s.write_bytes, 64);
        assert_eq!(s.total_bytes(), 128);
        assert!(s.avg_read_latency_ns() > 0.0);
    }

    #[test]
    fn stats_delta() {
        let mut m = ctrl();
        m.request(0.0, 0, false);
        let snap = m.stats();
        m.request(100.0, 64, false);
        let d = m.stats().delta(&snap);
        assert_eq!(d.reads, 1);
        assert_eq!(d.read_bytes, 64);
    }

    #[test]
    fn sustained_throughput_below_peak_near_bank_limit() {
        // Saturating all channels with dense lines: aggregate throughput
        // sits below the bus peak, limited by bank service — this is where
        // the ~70–85% efficiency of the paper's Fig. 8 baseline comes from.
        let mut m = ctrl();
        let mut t = 0.0;
        let n = 16_000u64;
        let mut done = 0.0f64;
        for i in 0..n {
            let r = m.request(t, i * 64, false);
            done = done.max(r.complete_ns);
            t += 0.25; // offered far faster than service
        }
        let gbps = (n * 64) as f64 / done;
        let bus_peak = 4.0 * 1866.7e6 * 8.0 / 1e9;
        assert!(gbps < bus_peak, "got {gbps}, bus peak {bus_peak}");
        assert!(
            gbps > bus_peak * 0.6,
            "got {gbps} GB/s, should approach the bus peak {bus_peak}"
        );
    }

    #[test]
    fn open_page_row_hit_is_faster_than_closed_page() {
        use crate::config::RowPolicy;
        let second_latency = |policy: RowPolicy| {
            let mut cfg = MemoryConfig::ddr3_1867();
            cfg.row_policy = policy;
            let mut m = MemoryController::new(cfg, 64);
            // Two back-to-back requests to the same line: same bank, same
            // row. The second queues behind the first in the bank.
            m.request(0.0, 0x42_0000, false);
            let r = m.request(0.0, 0x42_0000, false);
            (r.latency_ns, m.stats())
        };
        let (closed, closed_stats) = second_latency(RowPolicy::ClosedPage);
        let (open, open_stats) = second_latency(RowPolicy::open_page_ddr3());
        assert_eq!(closed_stats.row_hits, 0);
        assert_eq!(open_stats.row_hits, 1, "second access hits the open row");
        assert!(
            open < closed,
            "row hit must be cheaper: open {open} vs closed {closed}"
        );
    }

    #[test]
    fn open_page_random_mostly_conflicts() {
        use crate::config::RowPolicy;
        let mut cfg = MemoryConfig::ddr3_1867();
        cfg.row_policy = RowPolicy::open_page_ddr3();
        let mut m = MemoryController::new(cfg, 64);
        let mut x = 12345u64;
        for i in 0..4000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.request(i as f64 * 2.0, (x % (1 << 30)) & !63, false);
        }
        let s = m.stats();
        let hit_rate = s.row_hits as f64 / (s.row_hits + s.row_conflicts) as f64;
        assert!(hit_rate < 0.2, "random traffic rarely row-hits: {hit_rate}");
    }

    #[test]
    fn refresh_blackout_delays_requests_inside_window() {
        use crate::config::RefreshConfig;
        let mut cfg = MemoryConfig::ddr3_1867();
        cfg.refresh = Some(RefreshConfig {
            interval_ns: 1_000.0,
            duration_ns: 200.0,
        });
        let mut m = MemoryController::new(cfg, 64);
        // Arrives at t=1010 + overhead 14 -> inside the [1000, 1200) window.
        let hit = m.request(1_010.0, 0, false);
        // Same timing, no refresh configured:
        let mut free = MemoryController::new(MemoryConfig::ddr3_1867(), 64);
        let base = free.request(1_010.0, 0, false);
        assert!(
            hit.latency_ns > base.latency_ns + 100.0,
            "refresh wait: {} vs {}",
            hit.latency_ns,
            base.latency_ns
        );
        // A request far from the window is unaffected.
        let clear = m.request(10_500.0, 64 * 9, false);
        assert!((clear.latency_ns - base.latency_ns).abs() < 1.0);
    }

    #[test]
    fn refresh_costs_steady_state_bandwidth() {
        use crate::config::RefreshConfig;
        let run = |refresh: Option<RefreshConfig>| {
            let mut cfg = MemoryConfig::ddr3_1867();
            cfg.refresh = refresh;
            let mut m = MemoryController::new(cfg, 64);
            let mut t = 0.0;
            let n = 30_000u64;
            let mut done = 0.0f64;
            for i in 0..n {
                let r = m.request(t, i * 64, false);
                done = done.max(r.complete_ns);
                t += 0.25;
            }
            (n * 64) as f64 / done
        };
        let without = run(None);
        let with = run(Some(RefreshConfig::ddr3_4gb()));
        let loss = 1.0 - with / without;
        assert!(
            (0.01..0.10).contains(&loss),
            "refresh costs a few percent of bandwidth: {loss}"
        );
    }
}

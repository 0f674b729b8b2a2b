//! Stream prefetcher.
//!
//! The paper attributes the HPC class's low blocking factor to regular data
//! access making "prefetching highly effective" (Sec. VI.A), and proposes
//! measuring a prefetcher's quality by the blocking-factor reduction it buys
//! (Sec. VII). This detector recognizes ascending or descending miss streams
//! within a 4 KiB page and issues prefetches a configurable degree ahead.

use crate::config::PrefetchConfig;

const PAGE_SHIFT: u32 = 12;

#[derive(Debug, Clone, Copy)]
struct Stream {
    page: u64,
    last_line: u64,
    direction: i64,
    confidence: u32,
    last_use: u64,
}

/// A per-thread stream prefetcher.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    config: PrefetchConfig,
    streams: Vec<Stream>,
    line_shift: u32,
    clock: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher for the given line size.
    pub fn new(config: PrefetchConfig, line_size: usize) -> Self {
        StreamPrefetcher {
            config,
            streams: Vec::with_capacity(config.streams),
            line_shift: line_size.trailing_zeros(),
            clock: 0,
        }
    }

    /// Observes a demand LLC miss at `addr` and returns the line-aligned
    /// addresses that should be prefetched (empty when disabled or not yet
    /// trained).
    pub fn on_miss(&mut self, addr: u64) -> Vec<u64> {
        // memsense-lint: allow(no-per-op-alloc) — convenience wrapper; the
        // engine's hot path uses `on_miss_into` with a reused scratch buffer
        let mut out = Vec::new();
        self.on_miss_into(addr, &mut out);
        out
    }

    /// As [`StreamPrefetcher::on_miss`], but writes the prefetch targets
    /// into `out` (cleared first). With a reused scratch buffer the call is
    /// allocation-free — the form the engine's hot path uses.
    pub fn on_miss_into(&mut self, addr: u64, out: &mut Vec<u64>) {
        out.clear();
        if !self.config.enabled {
            return;
        }
        self.clock += 1;
        let line = addr >> self.line_shift;
        let page = line >> (PAGE_SHIFT - self.line_shift);

        if let Some(s) = self.streams.iter_mut().find(|s| s.page == page) {
            s.last_use = self.clock;
            let delta = line as i64 - s.last_line as i64;
            if delta != 0 && delta.signum() == s.direction.signum() && delta.abs() <= 4 {
                s.confidence += 1;
            } else if delta != 0 {
                s.direction = delta.signum();
                s.confidence = 1;
            }
            s.last_line = line;
            if s.confidence >= self.config.train_threshold {
                let dir = s.direction;
                let shift = self.line_shift;
                for k in 1..=self.config.degree as i64 {
                    let target = line as i64 + dir * k;
                    if target < 0 {
                        continue;
                    }
                    let target = target as u64;
                    // Stay within the page, as hardware prefetchers do.
                    if target >> (PAGE_SHIFT - shift) != page {
                        continue;
                    }
                    out.push(target << shift);
                }
            }
            return;
        }

        // New stream: evict LRU slot if full.
        if self.streams.len() == self.config.streams {
            if let Some(lru) = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i)
            {
                self.streams.swap_remove(lru);
            }
        }
        self.streams.push(Stream {
            page,
            last_line: line,
            direction: 1,
            confidence: 0,
            last_use: self.clock,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StreamPrefetcher {
        let cfg = PrefetchConfig {
            degree: 4,
            ..PrefetchConfig::default()
        };
        StreamPrefetcher::new(cfg, 64)
    }

    #[test]
    fn sequential_stream_trains_and_prefetches() {
        let mut p = pf();
        assert!(p.on_miss(0x0000).is_empty());
        assert!(
            p.on_miss(0x0040).is_empty(),
            "first delta only builds confidence"
        );
        let out = p.on_miss(0x0080);
        assert_eq!(out, vec![0x00c0, 0x0100, 0x0140, 0x0180]);
    }

    #[test]
    fn descending_stream_detected() {
        let mut p = pf();
        p.on_miss(0x0f00);
        p.on_miss(0x0ec0);
        let out = p.on_miss(0x0e80);
        assert_eq!(out[0], 0x0e40);
        assert!(out.iter().all(|&a| a < 0x0e80));
    }

    #[test]
    fn random_misses_never_train() {
        let mut p = pf();
        // Far-apart addresses in different pages.
        for addr in [0x10000u64, 0x50000, 0x90000, 0x20000, 0x70000] {
            assert!(p.on_miss(addr).is_empty());
        }
    }

    #[test]
    fn prefetches_stay_in_page() {
        let mut p = pf();
        p.on_miss(0x0f00);
        p.on_miss(0x0f40);
        let out = p.on_miss(0x0f80);
        // Next lines would cross the 4 KiB boundary at 0x1000.
        assert_eq!(out, vec![0x0fc0]);
    }

    #[test]
    fn disabled_prefetcher_silent() {
        let cfg = PrefetchConfig {
            enabled: false,
            ..PrefetchConfig::default()
        };
        let mut p = StreamPrefetcher::new(cfg, 64);
        p.on_miss(0x0000);
        p.on_miss(0x0040);
        assert!(p.on_miss(0x0080).is_empty());
    }

    #[test]
    fn stream_table_evicts_lru() {
        let cfg = PrefetchConfig {
            degree: 4,
            streams: 2,
            ..PrefetchConfig::default()
        };
        let mut p = StreamPrefetcher::new(cfg, 64);
        p.on_miss(0x0_0000); // page 0
        p.on_miss(0x1_0000); // page 16
        p.on_miss(0x2_0000); // page 32 — evicts page 0 (LRU)
                             // Re-missing page 0 must retrain from scratch.
        assert!(p.on_miss(0x0_0000).is_empty());
        assert!(p.on_miss(0x0_0040).is_empty());
        assert!(!p.on_miss(0x0_0080).is_empty());
    }

    #[test]
    fn direction_change_resets_confidence() {
        let mut p = pf();
        p.on_miss(0x0000);
        p.on_miss(0x0040);
        p.on_miss(0x0080); // trained ascending
        assert!(p.on_miss(0x0040).is_empty(), "reversal drops confidence");
    }
}

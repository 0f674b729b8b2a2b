//! Data-TLB model (optional fidelity feature).
//!
//! The paper cites page-table overheads for big data (Basu et al. \[11\]) as
//! related work but does not model them; the simulator offers an optional
//! DTLB so the effect can be studied: a fully-pragmatic set-associative TLB
//! whose misses cost a fixed page-walk penalty plus, optionally, memory
//! traffic. Disabled by default (`TlbConfig::disabled`) so the calibrated
//! workload parameters are unaffected unless explicitly enabled.

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries; 0 disables the TLB entirely.
    pub entries: usize,
    /// Page size shift (12 → 4 KiB pages).
    pub page_shift: u32,
    /// Core cycles a page walk stalls the pipeline.
    pub walk_cycles: u32,
}

impl TlbConfig {
    /// No TLB modeling (the default).
    pub fn disabled() -> Self {
        TlbConfig {
            entries: 0,
            page_shift: 12,
            walk_cycles: 0,
        }
    }

    /// A Sandy-Bridge-era DTLB: 64 entries, 4 KiB pages, ~30-cycle walks
    /// (scaled to the simulator's reduced cache latencies).
    pub fn dtlb_64() -> Self {
        TlbConfig {
            entries: 64,
            page_shift: 12,
            walk_cycles: 30,
        }
    }

    /// Whether the TLB is modeled at all.
    pub fn enabled(&self) -> bool {
        self.entries > 0
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A fully-associative TLB with LRU replacement (small enough that full
/// associativity is both accurate and fast).
///
/// Pages and `u32` LRU generation stamps live in parallel arrays, and the
/// last-hit index is remembered so the common stay-on-one-page case resolves
/// with a single comparison. Stamps are unique within the TLB (each enabled
/// access ticks the clock exactly once), so LRU choice is unambiguous; the
/// clock renormalizes near `u32::MAX` preserving relative recency.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    pages: Vec<u64>,
    stamps: Vec<u32>,
    clock: u32,
    /// Index of the most recent hit — checked first on the next access.
    last_hit: usize,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB from its configuration.
    pub fn new(config: TlbConfig) -> Self {
        Tlb {
            config,
            pages: Vec::with_capacity(config.entries),
            stamps: Vec::with_capacity(config.entries),
            clock: 0,
            last_hit: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Advances the generation clock, renormalizing stamps before a wrap
    /// would corrupt the LRU order (stamps re-ranked to 1..=len, oldest
    /// first).
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            let mut order: Vec<usize> = (0..self.stamps.len()).collect();
            order.sort_by_key(|&i| self.stamps[i]);
            for (rank, &i) in order.iter().enumerate() {
                self.stamps[i] = rank as u32 + 1;
            }
            self.clock = self.stamps.len() as u32;
        }
        self.clock += 1;
        self.clock
    }

    /// Translates `addr`; returns `true` on a hit, `false` on a miss (the
    /// caller charges [`TlbConfig::walk_cycles`]). A disabled TLB always
    /// hits.
    pub fn access(&mut self, addr: u64) -> bool {
        if !self.config.enabled() {
            return true;
        }
        let stamp = self.tick();
        let page = addr >> self.config.page_shift;
        // Fast path: repeat access to the last-hit page.
        if let Some(&p) = self.pages.get(self.last_hit) {
            if p == page {
                self.stamps[self.last_hit] = stamp;
                self.hits += 1;
                return true;
            }
        }
        // Branchless scan of the page array: resident pages are unique, so
        // accumulating the matching index finds the (sole) hit without a
        // data-dependent branch per entry. On x86-64 it compiles to a
        // scalar loop of compares and conditional moves (unrolled by four),
        // not vector code: the running index is a loop-carried dependence.
        let mut found = usize::MAX;
        for (i, &p) in self.pages.iter().enumerate() {
            if p == page {
                found = i;
            }
        }
        if found != usize::MAX {
            self.stamps[found] = stamp;
            self.last_hit = found;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.pages.len() == self.config.entries {
            // Stamps are unique, so the minimum identifies the LRU entry.
            let mut lru = 0;
            for (i, &s) in self.stamps.iter().enumerate() {
                if s < self.stamps[lru] {
                    lru = i;
                }
            }
            self.pages.swap_remove(lru);
            self.stamps.swap_remove(lru);
        }
        self.pages.push(page);
        self.stamps.push(stamp);
        false
    }

    /// Configured walk penalty in cycles.
    pub fn walk_cycles(&self) -> u32 {
        self.config.walk_cycles
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tlb_always_hits() {
        let mut t = Tlb::new(TlbConfig::disabled());
        for i in 0..100u64 {
            assert!(t.access(i * 4096));
        }
        assert_eq!(t.stats(), (0, 0));
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut t = Tlb::new(TlbConfig::dtlb_64());
        assert!(!t.access(0x1000));
        assert!(t.access(0x1000));
        assert!(t.access(0x1fff), "same page");
        assert!(!t.access(0x2000), "next page");
        assert_eq!(t.stats(), (2, 2));
    }

    #[test]
    fn lru_eviction_beyond_capacity() {
        let cfg = TlbConfig {
            entries: 4,
            page_shift: 12,
            walk_cycles: 30,
        };
        let mut t = Tlb::new(cfg);
        for p in 0..4u64 {
            t.access(p << 12);
        }
        t.access(0); // refresh page 0
        t.access(4 << 12); // evicts page 1 (LRU)
        assert!(t.access(0), "page 0 retained");
        assert!(!t.access(1 << 12), "page 1 evicted");
    }

    #[test]
    fn working_set_within_capacity_never_misses_again() {
        let mut t = Tlb::new(TlbConfig::dtlb_64());
        for round in 0..3 {
            for p in 0..64u64 {
                let hit = t.access(p << 12);
                if round > 0 {
                    assert!(hit, "round {round} page {p}");
                }
            }
        }
        assert_eq!(t.stats().1, 64, "only compulsory misses");
    }

    #[test]
    fn miss_ratio_of_streaming() {
        let mut t = Tlb::new(TlbConfig::dtlb_64());
        // Touch 1000 distinct pages once each: everything misses.
        for p in 0..1000u64 {
            t.access(p << 12);
        }
        assert_eq!(t.stats(), (0, 1000));
        assert_eq!(t.walk_cycles(), 30);
    }

    #[test]
    fn renormalization_preserves_lru_order() {
        let cfg = TlbConfig {
            entries: 3,
            page_shift: 12,
            walk_cycles: 30,
        };
        let mut t = Tlb::new(cfg);
        t.access(1 << 12);
        t.access(2 << 12);
        t.access(3 << 12);
        t.access(1 << 12); // recency now 2, 3, 1 (oldest first)
        t.clock = u32::MAX; // force renormalization on the next access
        t.access(4 << 12); // must evict page 2, the true LRU
        assert!(!t.access(2 << 12), "page 2 was evicted across the wrap");
    }
}

//! Differential tests: the optimized cache/TLB/hierarchy structures against
//! naive reference implementations.
//!
//! The production [`SetAssocCache`] packs its ways into a flat set-major
//! array with per-set `u32` generation stamps, [`Tlb`] keeps parallel
//! page/stamp arrays with a last-hit fast path, and [`CacheHierarchy`] adds
//! a one-entry way predictor in front of L1. All of that is supposed to be
//! pure layout/speed: every observable decision — hit vs miss, which victim
//! is evicted, which writebacks surface, every counter — must be what the
//! obvious textbook implementation produces. These tests drive both through
//! randomized address streams and compare step by step, so any divergence
//! reports the exact operation index where the optimized structure went
//! wrong. `Tlb::access` and `CacheHierarchy::access` are the exact calls the
//! engine makes for every demand access.

use memsense_sim::cache::{CacheHierarchy, HitLevel, Lookup, SetAssocCache};
use memsense_sim::config::{CacheConfig, SimConfig};
use memsense_sim::tlb::{Tlb, TlbConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference cache: one Vec<Line> per set, global u64 clock, linear scans.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

struct RefCache {
    sets: Vec<Vec<RefLine>>,
    line_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(config: &CacheConfig, line_size: usize) -> Self {
        RefCache {
            sets: vec![vec![RefLine::default(); config.ways]; config.sets(line_size)],
            line_shift: line_size.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let tag = addr >> self.line_shift;
        ((tag as usize) & (self.sets.len() - 1), tag)
    }

    /// Textbook LRU access: scan for the tag; on miss evict the first way
    /// holding the minimal key, where invalid ways rank below every valid
    /// one (resident stamps are always positive).
    fn access(&mut self, addr: u64, write: bool) -> Lookup {
        let (set, tag) = self.locate(addr);
        self.clock += 1;
        let stamp = self.clock;
        let ways = &mut self.sets[set];
        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.stamp = stamp;
            way.dirty |= write;
            self.hits += 1;
            return Lookup::Hit;
        }
        self.misses += 1;
        let mut victim = 0;
        for (i, w) in ways.iter().enumerate() {
            let key = |l: &RefLine| if l.valid { l.stamp } else { 0 };
            if key(w) < key(&ways[victim]) {
                victim = i;
            }
        }
        let evicted = ways[victim];
        ways[victim] = RefLine {
            tag,
            valid: true,
            dirty: write,
            stamp,
        };
        Lookup::Miss {
            writeback: (evicted.valid && evicted.dirty).then(|| evicted.tag << self.line_shift),
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.sets[set].iter().any(|w| w.valid && w.tag == tag)
    }

    fn mark_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        match self.sets[set].iter_mut().find(|w| w.valid && w.tag == tag) {
            Some(w) => {
                w.dirty = true;
                true
            }
            None => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Reference TLB: Vec of (page, stamp), global u64 clock.
// ---------------------------------------------------------------------------

struct RefTlb {
    config: TlbConfig,
    entries: Vec<(u64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn new(config: TlbConfig) -> Self {
        RefTlb {
            config,
            entries: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        if !self.config.enabled() {
            return true;
        }
        self.clock += 1;
        let page = addr >> self.config.page_shift;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
            e.1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() == self.config.entries {
            // Stamps are unique, so the minimum is the unambiguous LRU
            // entry regardless of how either implementation stores order.
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries.remove(lru);
        }
        self.entries.push((page, self.clock));
        false
    }
}

// ---------------------------------------------------------------------------
// Reference hierarchy: three RefCaches wired exactly like CacheHierarchy
// (sans way predictor — the predictor must be behaviorally invisible).
// ---------------------------------------------------------------------------

struct RefHierarchy {
    l1: RefCache,
    l2: RefCache,
    llc: RefCache,
}

impl RefHierarchy {
    fn new(config: &SimConfig) -> Self {
        RefHierarchy {
            l1: RefCache::new(&config.l1, config.line_size),
            l2: RefCache::new(&config.l2, config.line_size),
            llc: RefCache::new(&config.llc, config.line_size),
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> (HitLevel, Option<u64>) {
        if self.l1.access(addr, write) == Lookup::Hit {
            if write {
                self.llc.mark_dirty(addr);
            }
            return (HitLevel::L1, None);
        }
        match self.l2.access(addr, write) {
            Lookup::Hit => {
                if write {
                    self.llc.mark_dirty(addr);
                }
                (HitLevel::L2, None)
            }
            Lookup::Miss { writeback } => {
                if let Some(wb) = writeback {
                    self.llc.mark_dirty(wb);
                }
                match self.llc.access(addr, write) {
                    Lookup::Hit => (HitLevel::Llc, None),
                    Lookup::Miss { writeback } => (HitLevel::Memory, writeback),
                }
            }
        }
    }

    fn install_prefetch(&mut self, addr: u64) -> Option<u64> {
        if let Lookup::Miss {
            writeback: Some(wb),
        } = self.l2.access(addr, false)
        {
            self.llc.mark_dirty(wb);
        }
        if self.llc.probe(addr) {
            return None;
        }
        match self.llc.access(addr, false) {
            Lookup::Hit => None,
            Lookup::Miss { writeback } => writeback,
        }
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// A small cache so random streams actually conflict: 4 KiB, 4-way,
/// 64 B lines → 16 sets.
fn small_cache_config() -> CacheConfig {
    CacheConfig {
        capacity: 4096,
        ways: 4,
        hit_latency: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cache_matches_reference(
        ops in collection::vec((0u64..(1 << 14), any::<bool>()), 1..600),
    ) {
        let config = small_cache_config();
        let mut fast = SetAssocCache::new(&config, 64);
        let mut reference = RefCache::new(&config, 64);
        for (i, &(addr, write)) in ops.iter().enumerate() {
            let got = fast.access(addr, write);
            let want = reference.access(addr, write);
            prop_assert_eq!(
                got, want,
                "op {} (addr {:#x}, write {}) diverged: {:?} vs {:?}",
                i, addr, write, got, want
            );
        }
        prop_assert_eq!(fast.hits(), reference.hits);
        prop_assert_eq!(fast.misses(), reference.misses);
        // Residency and dirtiness agree line by line afterwards.
        for line in 0..(1u64 << 8) {
            let addr = line << 6;
            prop_assert_eq!(fast.probe(addr), reference.probe(addr));
            prop_assert_eq!(fast.mark_dirty(addr), reference.mark_dirty(addr));
        }
    }

    #[test]
    fn tlb_matches_reference(
        addrs in collection::vec(0u64..(1 << 17), 1..600),
        entries in 1usize..12,
    ) {
        let config = TlbConfig { entries, page_shift: 12, walk_cycles: 30 };
        let mut fast = Tlb::new(config);
        let mut reference = RefTlb::new(config);
        for (i, &addr) in addrs.iter().enumerate() {
            let got = fast.access(addr);
            let want = reference.access(addr);
            prop_assert_eq!(
                got, want,
                "access {} (addr {:#x}) diverged: hit {} vs {}",
                i, addr, got, want
            );
        }
        prop_assert_eq!(fast.stats(), (reference.hits, reference.misses));
    }

    #[test]
    fn hierarchy_matches_reference_composition(
        ops in collection::vec((0u64..(1 << 18), 0u8..8), 1..400),
    ) {
        let config = SimConfig::xeon_like(1);
        let mut fast = CacheHierarchy::new(&config);
        let mut reference = RefHierarchy::new(&config);
        for (i, &(addr, kind)) in ops.iter().enumerate() {
            // kind 0: prefetch install; 1–2: store; 3–7: load. Loads
            // dominate, as in real streams, and repeats are common enough
            // (2^18 span, 64 B lines) to exercise the way predictor.
            if kind == 0 {
                let got = fast.install_prefetch(addr);
                let want = reference.install_prefetch(addr);
                prop_assert_eq!(
                    got, want,
                    "prefetch {} (addr {:#x}) diverged",
                    i, addr
                );
            } else {
                let write = kind <= 2;
                let got = fast.access(addr, write);
                let want = reference.access(addr, write);
                prop_assert_eq!(
                    (got.level, got.memory_writeback), want,
                    "op {} (addr {:#x}, write {}) diverged",
                    i, addr, write
                );
            }
        }
        let (llc_hits, llc_misses) = fast.llc_stats();
        prop_assert_eq!(llc_hits, reference.llc.hits);
        prop_assert_eq!(llc_misses, reference.llc.misses);
    }
}

/// The predictor's sweet spot — long runs of repeat accesses to one line
/// interleaved with conflicting lines — deserves a deterministic dense
/// version on top of the random streams above.
#[test]
fn repeat_heavy_stream_matches_reference() {
    let config = SimConfig::xeon_like(1);
    let mut fast = CacheHierarchy::new(&config);
    let mut reference = RefHierarchy::new(&config);
    let mut addr: u64 = 0x40;
    for step in 0..20_000u64 {
        // Linear-congruential hop every 7th op, otherwise hammer the same
        // line alternating loads and stores.
        if step % 7 == 0 {
            addr = (addr
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1442695))
                & 0x3_FFFF;
        }
        let write = step % 3 == 0;
        let got = fast.access(addr, write);
        let want = reference.access(addr, write);
        assert_eq!(
            (got.level, got.memory_writeback),
            want,
            "step {step} (addr {addr:#x}, write {write})"
        );
    }
    let (llc_hits, llc_misses) = fast.llc_stats();
    assert_eq!(
        (llc_hits, llc_misses),
        (reference.llc.hits, reference.llc.misses)
    );
}

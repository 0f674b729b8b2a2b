//! Set-associative caches and the private three-level hierarchy.
//!
//! Each simulated hardware thread owns an L1, an L2, and a slice of LLC
//! (the paper's machines provision 2.5 MB of LLC per core). Write-back,
//! write-allocate, LRU replacement. Dirty LLC victims become memory write
//! traffic — the writeback rate `WBR` of Eq. 4 is measured here.
//!
//! Layout: way state lives in structure-of-arrays form — one flat set-major
//! `tags` array plus parallel `stamps`/`flags` arrays — so the hit scan of a
//! set is a branchless compare sweep over a contiguous `u64` slice the
//! compiler vectorizes. Recency is tracked with per-set `u32` generation
//! stamps (LRU comparisons only ever happen within a set, so per-set clocks
//! reproduce the exact decisions of a global counter while halving the
//! per-way footprint). The hierarchy keeps a one-entry way predictor so the
//! common consecutive-hits-to-one-line case skips the set walk entirely.

use crate::config::{CacheConfig, SimConfig};

const VALID: u32 = 1;
const DIRTY: u32 = 2;

/// Result of a cache access at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated; if the victim was dirty,
    /// its base address is returned for write-back to the next level.
    Miss {
        /// Dirty victim address, if any.
        writeback: Option<u64>,
    },
}

/// A single set-associative, write-back, write-allocate cache with LRU
/// replacement.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Line-address tags, set-major: set `s` occupies `s*ways..(s+1)*ways`.
    tags: Box<[u64]>,
    /// LRU generation stamps, parallel to `tags`.
    stamps: Box<[u32]>,
    /// VALID/DIRTY state bits, parallel to `tags`.
    flags: Box<[u32]>,
    /// Per-set generation clocks backing the LRU stamps.
    clocks: Box<[u32]>,
    sets: usize,
    ways: usize,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache from a validated [`CacheConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two sets); the
    /// owning [`SimConfig`] validates this first.
    pub fn new(config: &CacheConfig, line_size: usize) -> Self {
        let sets = config.sets(line_size);
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        SetAssocCache {
            // memsense-lint: allow(no-per-op-alloc) — one-time table build
            tags: vec![0u64; sets * config.ways].into_boxed_slice(),
            // memsense-lint: allow(no-per-op-alloc) — one-time table build
            stamps: vec![0u32; sets * config.ways].into_boxed_slice(),
            // memsense-lint: allow(no-per-op-alloc) — one-time table build
            flags: vec![0u32; sets * config.ways].into_boxed_slice(),
            // memsense-lint: allow(no-per-op-alloc) — one-time table build
            clocks: vec![0u32; sets].into_boxed_slice(),
            sets,
            ways: config.ways,
            line_shift: line_size.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// The line-size shift (`log2(line_size)`), for callers that need the
    /// line address of `addr`.
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr as usize) & (self.sets - 1);
        (set, line_addr)
    }

    /// Advances `set`'s generation clock and returns the new stamp.
    /// Stamps for resident lines are therefore always ≥ 1.
    fn tick(&mut self, set: usize) -> u32 {
        let clock = &mut self.clocks[set];
        if *clock == u32::MAX {
            // Wrapping would corrupt the LRU order; re-rank the set's
            // stamps to 1..=ways (preserving relative recency) and restart
            // the clock from there. Needs 4 billion accesses to one set to
            // trigger, so the cost is irrelevant.
            let base = set * self.ways;
            // memsense-lint: allow(no-per-op-alloc) — renorm fires once per 4G accesses to a set
            let mut order: Vec<usize> = (0..self.ways).collect();
            order.sort_by_key(|&i| self.stamps[base + i]);
            for (rank, &i) in order.iter().enumerate() {
                if self.flags[base + i] & VALID != 0 {
                    self.stamps[base + i] = rank as u32 + 1;
                }
            }
            self.clocks[set] = self.ways as u32;
        }
        let clock = &mut self.clocks[set];
        *clock += 1;
        *clock
    }

    /// Branchless hit scan: the flat index of the valid way holding `tag`
    /// in the set at `base`, or `usize::MAX`. Resident tags are unique per
    /// set, so accumulating the matching index over the whole contiguous
    /// tag slice (no early exit, no data-dependent branch) finds the sole
    /// hit; the compiler turns the sweep into vector compares.
    #[inline]
    fn find_way(&self, base: usize, tag: u64) -> usize {
        let mut found = usize::MAX;
        for i in base..base + self.ways {
            let hit = (self.flags[i] & VALID != 0) & (self.tags[i] == tag);
            if hit {
                found = i;
            }
        }
        found
    }

    /// Accesses `addr`; allocates on miss. `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> Lookup {
        self.access_indexed(addr, write).0
    }

    /// [`SetAssocCache::access`], additionally returning the flat slot
    /// index now holding the line (hit slot, or the victim slot the line
    /// was installed into) — the hierarchy's way predictor remembers it.
    pub(crate) fn access_indexed(&mut self, addr: u64, write: bool) -> (Lookup, u32) {
        let (set, tag) = self.index(addr);
        let stamp = self.tick(set);
        let base = set * self.ways;

        let hit = self.find_way(base, tag);
        if hit != usize::MAX {
            self.stamps[hit] = stamp;
            self.flags[hit] |= (write as u32) * DIRTY;
            self.hits += 1;
            return (Lookup::Hit, hit as u32);
        }
        self.misses += 1;
        // Choose victim branchlessly: the first invalid way (key 0), else
        // LRU (lowest stamp); strict `<` keeps the lowest index on ties.
        let mut victim_idx = base;
        let mut victim_key = u64::MAX;
        for i in base..base + self.ways {
            let valid = (self.flags[i] & VALID != 0) as u64;
            let key = valid * self.stamps[i] as u64;
            if key < victim_key {
                victim_key = key;
                victim_idx = i;
            }
        }
        let writeback = if self.flags[victim_idx] & (VALID | DIRTY) == VALID | DIRTY {
            // The stored tag is the full line address, so the victim's base
            // address is just the tag shifted back up.
            Some(self.tags[victim_idx] << self.line_shift)
        } else {
            None
        };
        self.tags[victim_idx] = tag;
        self.stamps[victim_idx] = stamp;
        self.flags[victim_idx] = VALID | ((write as u32) * DIRTY);
        (Lookup::Miss { writeback }, victim_idx as u32)
    }

    /// Way-predictor fast path: if flat slot `index` still holds the line
    /// `tag`, performs the hit (stamp/dirty/counter updates identical to
    /// [`SetAssocCache::access`]) and returns `true`. A stale prediction
    /// leaves all state untouched and returns `false`.
    pub(crate) fn hit_at(&mut self, index: u32, tag: u64, write: bool) -> bool {
        let i = index as usize;
        if self.flags[i] & VALID == 0 || self.tags[i] != tag {
            return false;
        }
        let stamp = self.tick(i / self.ways);
        self.stamps[i] = stamp;
        self.flags[i] |= (write as u32) * DIRTY;
        self.hits += 1;
        true
    }

    /// Checks for presence without updating replacement state.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.find_way(set * self.ways, tag) != usize::MAX
    }

    /// Marks `addr` dirty if present, returning whether it was found.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let i = self.find_way(set * self.ways, tag);
        if i != usize::MAX {
            self.flags[i] |= DIRTY;
            return true;
        }
        false
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Where in the hierarchy an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// L1 data cache.
    L1,
    /// Private L2.
    L2,
    /// LLC slice.
    Llc,
    /// Missed everywhere; goes to memory.
    Memory,
}

/// Outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// Level that satisfied the access ([`HitLevel::Memory`] = LLC miss).
    pub level: HitLevel,
    /// Dirty LLC victim that must be written back to memory, if any.
    pub memory_writeback: Option<u64>,
}

/// A private L1/L2/LLC-slice stack for one hardware thread.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    llc: SetAssocCache,
    /// Load-to-use latencies (cycles) for L2/LLC hits.
    pub l2_hit_latency: u32,
    /// LLC hit latency in cycles.
    pub llc_hit_latency: u32,
    /// One-entry way predictor: the line address the last access touched
    /// and the L1 slot it lives in. Consecutive accesses to one line (the
    /// overwhelmingly common case) verify the slot and skip the set walk.
    predicted_line: u64,
    predicted_slot: u32,
}

impl CacheHierarchy {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: &SimConfig) -> Self {
        CacheHierarchy {
            l1: SetAssocCache::new(&config.l1, config.line_size),
            l2: SetAssocCache::new(&config.l2, config.line_size),
            llc: SetAssocCache::new(&config.llc, config.line_size),
            l2_hit_latency: config.l2.hit_latency,
            llc_hit_latency: config.llc.hit_latency,
            predicted_line: u64::MAX,
            predicted_slot: 0,
        }
    }

    /// Performs an access. On an LLC miss the line is allocated at every
    /// level; a dirty LLC victim is surfaced for memory write-back. Dirty
    /// L1/L2 victims are absorbed by marking the corresponding LLC line
    /// dirty (a first-order inclusive-hierarchy approximation).
    pub fn access(&mut self, addr: u64, write: bool) -> HierarchyAccess {
        if self.l1_access(addr, write) {
            // Keep the LLC's dirtiness conservative: stores that hit L1
            // will eventually be written back through L2 to the LLC.
            if write {
                self.llc.mark_dirty(addr);
            }
            return HierarchyAccess {
                level: HitLevel::L1,
                memory_writeback: None,
            };
        }
        self.access_below_l1(addr, write)
    }

    /// The L1 stage of [`CacheHierarchy::access`]: way-predictor fast path,
    /// full L1 lookup, allocate-on-miss, predictor update. Touches only the
    /// L1 and the predictor. Returns whether the access hit L1.
    #[inline]
    fn l1_access(&mut self, addr: u64, write: bool) -> bool {
        let line = addr >> self.l1.line_shift();
        // Way-predictor fast path: a repeat access to the last-touched
        // line hits L1 without walking the set (stale predictions fall
        // through to the full lookup).
        if line == self.predicted_line && self.l1.hit_at(self.predicted_slot, line, write) {
            return true;
        }
        let (l1_lookup, l1_slot) = self.l1.access_indexed(addr, write);
        // Whether it hit or was just allocated, the line now lives in
        // `l1_slot` — remember it for the next access.
        self.predicted_line = line;
        self.predicted_slot = l1_slot;
        l1_lookup == Lookup::Hit
    }

    /// The L2/LLC stage of [`CacheHierarchy::access`], taken on an L1 miss.
    fn access_below_l1(&mut self, addr: u64, write: bool) -> HierarchyAccess {
        match self.l2.access(addr, write) {
            Lookup::Hit => {
                if write {
                    self.llc.mark_dirty(addr);
                }
                HierarchyAccess {
                    level: HitLevel::L2,
                    memory_writeback: None,
                }
            }
            Lookup::Miss { writeback: l2_wb } => {
                if let Some(wb) = l2_wb {
                    self.llc.mark_dirty(wb);
                }
                match self.llc.access(addr, write) {
                    Lookup::Hit => HierarchyAccess {
                        level: HitLevel::Llc,
                        memory_writeback: None,
                    },
                    Lookup::Miss { writeback } => HierarchyAccess {
                        level: HitLevel::Memory,
                        memory_writeback: writeback,
                    },
                }
            }
        }
    }

    /// Installs a prefetched line into the LLC and L2 (modeling the L2
    /// streamer bringing data close to the core). Returns a dirty LLC
    /// victim, if any.
    pub fn install_prefetch(&mut self, addr: u64) -> Option<u64> {
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

    /// Whether `addr` is present in the LLC.
    pub fn llc_contains(&self, addr: u64) -> bool {
        self.llc.probe(addr)
    }

    /// LLC statistics `(hits, misses)`.
    pub fn llc_stats(&self) -> (u64, u64) {
        (self.llc.hits(), self.llc.misses())
    }

    /// Total lookups across every level (hits + misses, L1 + L2 + LLC).
    pub fn total_accesses(&self) -> u64 {
        [&self.l1, &self.l2, &self.llc]
            .iter()
            .map(|c| c.hits() + c.misses())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        SetAssocCache::new(
            &CacheConfig {
                capacity: 512,
                ways: 2,
                hit_latency: 4,
            },
            64,
        )
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small_cache();
        assert!(matches!(
            c.access(0x1000, false),
            Lookup::Miss { writeback: None }
        ));
        assert_eq!(c.access(0x1000, false), Lookup::Hit);
        assert_eq!(c.access(0x1010, false), Lookup::Hit, "same line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache();
        // Set 0 holds line addresses with (line_addr & 3) == 0: 0x000, 0x400…
        c.access(0x000, false);
        c.access(0x400, false);
        c.access(0x000, false); // touch 0x000 → 0x400 becomes LRU
        c.access(0x800, false); // evicts 0x400
        assert!(c.probe(0x000));
        assert!(!c.probe(0x400));
        assert!(c.probe(0x800));
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut c = small_cache();
        c.access(0x000, true);
        c.access(0x400, false);
        let r = c.access(0x800, false); // evicts dirty 0x000
        assert_eq!(
            r,
            Lookup::Miss {
                writeback: Some(0x000)
            }
        );
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small_cache();
        c.access(0x000, false);
        c.access(0x400, false);
        assert_eq!(c.access(0x800, false), Lookup::Miss { writeback: None });
    }

    #[test]
    fn mark_dirty_and_probe() {
        let mut c = small_cache();
        assert!(!c.mark_dirty(0x123));
        c.access(0x100, false);
        assert!(c.mark_dirty(0x100));
        c.access(0x500, false);
        let r = c.access(0x900, false);
        assert_eq!(
            r,
            Lookup::Miss {
                writeback: Some(0x100)
            }
        );
    }

    #[test]
    fn hit_at_verifies_slot_and_updates_like_access() {
        let mut c = small_cache();
        let (_, slot) = c.access_indexed(0x000, false);
        c.access(0x400, false);
        // Correct prediction: a hit, counted as such, refreshing recency.
        assert!(c.hit_at(slot, 0x000 >> 6, false));
        assert_eq!(c.hits(), 1);
        let r = c.access(0x800, false); // evicts LRU 0x400, keeps touched 0x000
        assert_eq!(r, Lookup::Miss { writeback: None });
        assert!(c.probe(0x000), "hit_at refreshed 0x000's recency");
        // Stale prediction (slot now holds another tag): no state change.
        let hits_before = c.hits();
        assert!(!c.hit_at(slot, 0xdead, false));
        assert_eq!(c.hits(), hits_before);
    }

    #[test]
    fn hierarchy_levels() {
        let cfg = SimConfig::default();
        let mut h = CacheHierarchy::new(&cfg);
        let a = h.access(0x10000, false);
        assert_eq!(a.level, HitLevel::Memory);
        let a = h.access(0x10000, false);
        assert_eq!(a.level, HitLevel::L1);
    }

    #[test]
    fn hierarchy_l2_hit_after_l1_eviction() {
        let cfg = SimConfig::default();
        let mut h = CacheHierarchy::new(&cfg);
        // Fill far beyond L1 (1 KiB) but within L2 (8 KiB).
        for i in 0..64u64 {
            h.access(i * 64, false);
        }
        // 0 was evicted from L1 (16 lines) but still in L2.
        let a = h.access(0, false);
        assert_eq!(a.level, HitLevel::L2);
    }

    #[test]
    fn hierarchy_dirty_llc_eviction_reaches_memory() {
        let cfg = SimConfig::default();
        let mut h = CacheHierarchy::new(&cfg);
        let lines = cfg.llc.capacity / cfg.line_size;
        // Write a line, then stream enough lines mapping everywhere to
        // force it out of the LLC.
        h.access(0, true);
        let mut wrote_back = false;
        for i in 1..(lines as u64 * 4) {
            let a = h.access(i * 64, false);
            if a.memory_writeback == Some(0) {
                wrote_back = true;
            }
        }
        assert!(wrote_back, "dirty line must eventually be written back");
    }

    #[test]
    fn prefetch_installs_into_llc() {
        let cfg = SimConfig::default();
        let mut h = CacheHierarchy::new(&cfg);
        assert!(!h.llc_contains(0x4000));
        h.install_prefetch(0x4000);
        assert!(h.llc_contains(0x4000));
        // Prefetching an already-present line reports no LLC victim.
        assert_eq!(h.install_prefetch(0x4000), None);
        // A prefetch-hit access hits in L2 (the streamer fills L2 too).
        let a = h.access(0x4000, false);
        assert_eq!(a.level, HitLevel::L2);
    }

    #[test]
    fn store_through_hierarchy_marks_llc_dirty() {
        let cfg = SimConfig::default();
        let mut h = CacheHierarchy::new(&cfg);
        h.access(0x2000, true); // miss, allocate dirty everywhere
        h.access(0x2000, true); // L1 hit (predictor path), still dirty in LLC
        let lines = cfg.llc.capacity / cfg.line_size;
        let mut wb = 0;
        for i in 1..(lines as u64 * 4) {
            if h.access(0x2000 + i * 64, false).memory_writeback == Some(0x2000) {
                wb += 1;
            }
        }
        assert_eq!(wb, 1, "exactly one writeback of the dirty line");
    }

    #[test]
    fn predictor_survives_unrelated_set_traffic() {
        let cfg = SimConfig::default();
        let mut h = CacheHierarchy::new(&cfg);
        h.access(0x2000, false);
        // Touch lines in other sets, then come back: still an L1 hit.
        h.access(0x2040, false);
        h.access(0x2080, false);
        let a = h.access(0x2000, false);
        assert_eq!(a.level, HitLevel::L1);
    }
}

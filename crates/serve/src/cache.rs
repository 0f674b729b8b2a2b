//! Content-addressed result cache: canonicalized request → response body.
//!
//! The key is the request's canonical form (method, path, and the body's
//! key-sorted, float-canonicalized JSON — see
//! `memsense_experiments::json::Json::canonical`), so two requests that
//! differ only in whitespace, key order, or `-0.0` vs `0.0` hit the same
//! entry. Values are complete response bodies behind `Arc<str>`; a hit bumps
//! a refcount instead of copying, and the returned body is byte-identical to
//! the originally computed response.
//!
//! Repeated requests need not re-derive the key: [`ResultCache::alias`] ties
//! the raw request bytes to a stored entry, and [`ResultCache::get_alias`]
//! then answers a byte-identical repeat without parsing or canonicalizing
//! it. An alias is charged to the byte budget and leaves with its entry, so
//! it can never outlive or disagree with the body it points at.
//!
//! The server's reactor thread is the only caller, so one mutex guards one
//! LRU: it is never contended, and it keeps the cache `Send + Sync` for
//! callers that share it across threads.
//!
//! Eviction is LRU under the byte budget: each entry is charged its key,
//! body, **and a fixed [`ENTRY_OVERHEAD`]** approximating the map/index
//! bookkeeping, so thousands of tiny entries cannot blow past the budget on
//! unaccounted metadata. An insert whose charge exceeds the whole budget is
//! rejected *up front* — it must never first evict every resident entry
//! only to discover it still does not fit. Recency is a monotonically
//! increasing sequence number with a `BTreeMap<seq, key>` index, so
//! get/insert/evict are all `O(log n)`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default byte budget (64 MiB) — thousands of sweep responses.
pub const DEFAULT_BUDGET_BYTES: usize = 64 * 1024 * 1024;

/// Bytes charged per entry (and per alias) on top of its key + body (or raw
/// bytes) length: approximates the `Entry` struct, the hash-map node, the
/// recency-index node, and the `Arc` headers. Without this, byte accounting
/// undercounts real memory by ~100 bytes per entry, which a flood of tiny
/// entries turns into unbounded growth.
pub const ENTRY_OVERHEAD: usize = 128;

/// Point-in-time cache counters, for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a stored body.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Inserts rejected up front because the charge exceeded the budget.
    pub rejected: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Bytes currently charged (keys + bodies + aliases + per-entry
    /// overhead).
    pub bytes: usize,
}

#[derive(Debug)]
struct Entry {
    body: Arc<str>,
    seq: u64,
    /// Raw request bytes aliased to this entry; they leave with it.
    aliases: Vec<Arc<[u8]>>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Arc<str>, Entry>,
    /// Recency index: sequence number → key. Oldest first.
    order: BTreeMap<u64, Arc<str>>,
    /// Raw request bytes → the key of the entry they canonicalize to.
    by_raw: HashMap<Arc<[u8]>, Arc<str>>,
    next_seq: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
}

/// A thread-safe LRU response cache with a byte budget.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    budget: usize,
}

/// What one entry (`value` = its body) or alias (`value` = its raw request
/// bytes) costs against the byte budget.
fn charge(key: &str, value: &[u8]) -> usize {
    key.len() + value.len() + ENTRY_OVERHEAD
}

impl Inner {
    /// Returns the body under `key` and makes it the most recently used,
    /// counting a hit. The index's key `Arc` moves to the new sequence number.
    fn touch(&mut self, key: &str) -> Option<Arc<str>> {
        let entry = self.map.get_mut(key)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(indexed) = self.order.remove(&entry.seq) {
            self.order.insert(seq, indexed);
        }
        entry.seq = seq;
        self.hits += 1;
        Some(Arc::clone(&entry.body))
    }

    /// Drops the entry under `key` and its aliases, releasing their charge.
    /// Returns the entry's sequence number.
    fn remove(&mut self, key: &str) -> Option<u64> {
        let entry = self.map.remove(key)?;
        self.bytes -= charge(key, entry.body.as_bytes());
        for raw in &entry.aliases {
            self.by_raw.remove(raw);
            self.bytes -= charge(key, raw);
        }
        Some(entry.seq)
    }

    /// Evicts least recently used entries until the charge fits `budget`.
    fn evict_to(&mut self, budget: usize) {
        while self.bytes > budget {
            // `pop_first` keeps eviction panic-free: the loop simply stops
            // if the recency index ever runs dry.
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            self.remove(&victim);
            self.evictions += 1;
        }
    }
}

impl ResultCache {
    /// Creates a cache bounded to `budget` bytes.
    pub fn new(budget: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            budget,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        let mut inner = self.lock();
        let hit = inner.touch(key);
        if hit.is_none() {
            inner.misses += 1;
        }
        hit
    }

    /// Looks up the entry that `raw` request bytes were aliased to, refreshing
    /// its recency on a hit. A hit counts like one from [`get`](Self::get); a
    /// miss counts nothing, because the caller then derives the key and
    /// calls `get`, which counts it.
    pub fn get_alias(&self, raw: &[u8]) -> Option<Arc<str>> {
        let mut inner = self.lock();
        let key = Arc::clone(inner.by_raw.get(raw)?);
        inner.touch(&key)
    }

    /// Ties `raw` request bytes to the stored entry under `key`, so a
    /// byte-identical repeat is answered by [`get_alias`](Self::get_alias).
    /// The alias is charged like an entry whose body is `raw`, may evict
    /// least recently used entries, and is dropped with its entry. Nothing
    /// happens if `key` is not stored or `raw` is already aliased.
    pub fn alias(&self, raw: &[u8], key: &str) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.by_raw.contains_key(raw) {
            return;
        }
        let Some(entry) = inner.map.get_mut(key) else {
            return;
        };
        let raw: Arc<[u8]> = Arc::from(raw);
        entry.aliases.push(Arc::clone(&raw));
        inner.bytes += charge(key, &raw);
        inner.by_raw.insert(raw, Arc::from(key));
        inner.evict_to(self.budget);
    }

    /// Stores `body` under `key`, evicting least recently used entries past
    /// the budget. Returns whether the entry was stored: an entry whose
    /// charge (key + body + [`ENTRY_OVERHEAD`]) exceeds the budget is
    /// rejected up front, before any eviction — never after wiping the cache.
    pub fn put(&self, key: &str, body: &Arc<str>) -> bool {
        let cost = charge(key, body.as_bytes());
        let mut inner = self.lock();
        if cost > self.budget {
            inner.rejected += 1;
            return false;
        }
        if let Some(seq) = inner.remove(key) {
            inner.order.remove(&seq);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let key: Arc<str> = Arc::from(key);
        inner.map.insert(
            Arc::clone(&key),
            Entry {
                body: Arc::clone(body),
                seq,
                aliases: Vec::new(),
            },
        );
        inner.order.insert(seq, key);
        inner.bytes += cost;
        inner.evict_to(self.budget);
        true
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            rejected: inner.rejected,
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }

    /// The cache state. Poisoning is propagated deliberately: cache methods
    /// never panic themselves, so a poisoned lock means a caller died
    /// mid-mutation and the byte accounting can no longer be trusted.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        // memsense-lint: allow(no-panic-in-lib, reactor-no-blocking-call) — poisoning implies corrupted LRU accounting (fail loud); the reactor is the only caller, so the lock is never contended, and holders only do bounded map ops
        self.inner.lock().expect("cache lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    /// Budget that fits exactly `n` entries of `key_len + body_len` payload.
    fn fits(n: usize, key_len: usize, body_len: usize) -> usize {
        n * (key_len + body_len + ENTRY_OVERHEAD)
    }

    #[test]
    fn miss_then_hit_returns_identical_body() {
        let cache = ResultCache::new(1024 * 1024);
        assert_eq!(cache.get("k"), None);
        assert!(cache.put("k", &body("{\"v\":1}")));
        assert_eq!(cache.get("k").as_deref(), Some("{\"v\":1}"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, 1 + 7 + ENTRY_OVERHEAD);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        // Budget holds 3 entries.
        let cache = ResultCache::new(fits(3, 1, 9));
        for key in ["a", "b", "c"] {
            cache.put(key, &body("123456789"));
        }
        assert_eq!(cache.stats().entries, 3);
        // Touch "a" so "b" is now the LRU entry.
        assert!(cache.get("a").is_some());
        cache.put("d", &body("123456789"));
        assert_eq!(cache.get("b"), None, "LRU entry evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert!(cache.get("d").is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= fits(3, 1, 9));
    }

    #[test]
    fn reinsert_replaces_without_double_charging() {
        let cache = ResultCache::new(1024);
        cache.put("k", &body("short"));
        cache.put("k", &body("a longer body than before"));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().bytes, 1 + 25 + ENTRY_OVERHEAD);
        assert_eq!(cache.get("k").as_deref(), Some("a longer body than before"));
    }

    #[test]
    fn accounting_charges_key_body_and_entry_overhead() {
        let cache = ResultCache::new(1024 * 1024);
        cache.put("key-one", &body("0123456789"));
        cache.put("key-two!", &body("0123"));
        let expected = (7 + 10 + ENTRY_OVERHEAD) + (8 + 4 + ENTRY_OVERHEAD);
        assert_eq!(cache.stats().bytes, expected);
        // An empty body still costs its key + overhead, never zero.
        cache.put("k", &body(""));
        assert_eq!(
            cache.stats().bytes,
            expected + 1 + ENTRY_OVERHEAD,
            "metadata overhead must be charged even for empty bodies"
        );
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = ResultCache::new(10);
        assert!(!cache.put("key", &body(&"x".repeat(100))));
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.get("key"), None);
        assert_eq!(cache.stats().rejected, 1);
    }

    #[test]
    fn oversized_insert_is_rejected_before_evicting_anything() {
        // Regression pin: an insert that can never fit must be refused up
        // front. The buggy order of operations (evict first, check later —
        // or no check at all) empties the whole cache before failing.
        let cache = ResultCache::new(fits(3, 1, 9));
        for key in ["a", "b", "c"] {
            cache.put(key, &body("123456789"));
        }
        let before = cache.stats();
        assert_eq!(before.entries, 3);

        let huge = "x".repeat(fits(3, 1, 9) + 1);
        assert!(!cache.put("z", &body(&huge)), "oversized insert must fail");

        let after = cache.stats();
        assert_eq!(after.entries, 3, "resident entries must survive");
        assert_eq!(
            after.evictions, 0,
            "nothing may be evicted for a doomed insert"
        );
        assert_eq!(after.rejected, 1);
        assert_eq!(after.bytes, before.bytes);
        for key in ["a", "b", "c"] {
            assert!(cache.get(key).is_some(), "entry {key:?} must survive");
        }
    }

    #[test]
    fn eviction_is_deterministic_across_runs() {
        // Pins the no-unordered-output audit: eviction order comes from the
        // BTreeMap recency index, never from HashMap iteration, so the same
        // operation sequence always evicts the same keys.
        let run = || {
            let cache = ResultCache::new(fits(6, 1, 9));
            for key in ["a", "b", "c", "d", "e", "f"] {
                cache.put(key, &body("123456789"));
            }
            let _ = cache.get("b");
            cache.put("g", &body("123456789"));
            cache.put("h", &body("123456789"));
            let survivors: Vec<&str> = ["a", "b", "c", "d", "e", "f", "g", "h"]
                .into_iter()
                .filter(|k| cache.get(k).is_some())
                .collect();
            (survivors, cache.stats().evictions, cache.stats().bytes)
        };
        let first = run();
        for _ in 0..5 {
            assert_eq!(run(), first);
        }
        // LRU semantics specifically: the refreshed "b" survives both
        // evictions while the stale head entries go first.
        assert!(first.0.contains(&"b"));
    }

    #[test]
    fn entry_within_the_whole_budget_is_stored() {
        // One LRU spends the whole budget: an entry costing half of it is
        // cached, not rejected.
        let budget = fits(4, 1, 9);
        let cache = ResultCache::new(budget);
        let big = "x".repeat(budget / 2);
        assert!(cache.put("k", &body(&big)));
        assert_eq!(cache.get("k").as_deref(), Some(big.as_str()));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.rejected), (1, 0));
        assert!(stats.bytes <= budget);
    }

    #[test]
    fn unique_key_flood_evicts_within_budget() {
        // A flood of distinct keys must keep the charged bytes within the
        // budget and evict rather than grow without bound.
        let total = fits(32, 8, 9);
        let cache = ResultCache::new(total);
        for i in 0..500 {
            assert!(cache.put(&format!("key-{i:04}"), &body("123456789")));
        }
        let stats = cache.stats();
        assert!(stats.bytes <= total, "{} > {total}", stats.bytes);
        assert_eq!(stats.entries, 32, "one LRU fills the whole budget");
        assert_eq!(stats.evictions, 500 - 32);
        // The newest keys survive; the oldest were evicted first.
        assert!(cache.get("key-0499").is_some());
        assert_eq!(cache.get("key-0000"), None);
    }

    #[test]
    fn alias_is_charged_answers_repeats_and_leaves_with_its_entry() {
        let cache = ResultCache::new(fits(3, 1, 9));
        cache.put("k", &body("123456789"));
        cache.alias(b"raw", "k");
        cache.alias(b"raw", "k"); // already aliased: not charged twice
        cache.alias(b"other", "absent"); // no entry: ignored
        assert_eq!(cache.get_alias(b"other"), None, "a miss counts nothing");
        assert_eq!(cache.get_alias(b"raw").as_deref(), Some("123456789"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 0, 1));
        assert_eq!(stats.bytes, fits(1, 1, 9) + (1 + 3 + ENTRY_OVERHEAD));

        // Re-storing the key drops its aliases along with the old body.
        cache.put("k", &body("987654321"));
        assert_eq!(cache.get_alias(b"raw"), None);
        assert_eq!(cache.stats().bytes, fits(1, 1, 9));

        // Evicting the entry releases its alias and the alias's charge.
        cache.alias(b"raw", "k");
        for key in ["a", "b", "c"] {
            cache.put(key, &body("123456789"));
        }
        assert_eq!(cache.get("k"), None, "LRU entry evicted");
        assert_eq!(cache.get_alias(b"raw"), None);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (3, fits(3, 1, 9)));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ResultCache::new(1024 * 1024));
        let mut handles = Vec::new();
        for t in 0..4 {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let key = format!("k{}", (t * 31 + i) % 16);
                    if cache.get(&key).is_none() {
                        cache.put(&key, &Arc::from(format!("body-{key}").as_str()));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        assert!(stats.entries <= 16);
        assert_eq!(stats.hits + stats.misses, 400);
    }
}

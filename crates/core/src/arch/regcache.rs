//! The register-based cache (§5.2.2).
//!
//! One small fully-associative register file per embedding table caches the
//! most recently fetched entries. Every generated address is compared
//! against all cached tags in parallel (all-to-all comparators in Fig. 10);
//! hits bypass the Mem Xbars entirely. Replacement is LRU.

/// A fully-associative LRU register cache for one embedding table.
#[derive(Debug, Clone, PartialEq)]
pub struct RegCache {
    capacity: usize,
    /// `(tag, last_use)` pairs; linear scan models the parallel comparators.
    entries: Vec<(u64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RegCache {
    /// Creates a cache with `capacity` entries. Capacity 0 disables caching
    /// (every access misses) — the Fig. 22 "No Cache" point.
    pub fn new(capacity: usize) -> Self {
        RegCache { capacity, entries: Vec::with_capacity(capacity), clock: 0, hits: 0, misses: 0 }
    }

    /// Cache capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accesses `tag`; returns `true` on hit. Misses insert the tag,
    /// evicting the least recently used entry when full.
    pub fn access(&mut self, tag: u64) -> bool {
        self.clock += 1;
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == tag) {
            e.1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() < self.capacity {
            self.entries.push((tag, self.clock));
        } else {
            // evict LRU
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .expect("cache is non-empty");
            self.entries[lru] = (tag, self.clock);
        }
        false
    }

    /// Non-mutating membership probe (models the parallel comparator array
    /// inspecting the cache state of the current cycle group). Does not
    /// update recency or statistics.
    pub fn contains(&self, tag: u64) -> bool {
        self.capacity > 0 && self.entries.iter().any(|e| e.0 == tag)
    }

    /// Refreshes the recency stamp of `tag` if present, without counting a
    /// hit or miss (batch-end LRU update of the cycle-group model).
    pub fn touch(&mut self, tag: u64) {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == tag) {
            e.1 = self.clock;
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = RegCache::new(4);
        assert!(!c.access(7));
        assert!(c.access(7));
        assert!(c.access(7));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn capacity_is_respected_with_lru_eviction() {
        let mut c = RegCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // 1 is now MRU
        c.access(3); // evicts 2 (LRU)
        assert!(c.access(3), "3 was just inserted");
        assert!(c.access(1), "1 must survive");
        assert!(!c.access(2), "2 was evicted");
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = RegCache::new(0);
        for _ in 0..5 {
            assert!(!c.access(42));
        }
        assert_eq!(c.hit_rate(), 0.0);
    }

    #[test]
    fn entries_never_exceed_capacity() {
        let mut c = RegCache::new(3);
        for i in 0..100 {
            c.access(i % 7);
        }
        assert!(c.entries.len() <= 3);
    }

    #[test]
    fn hit_rate_improves_with_capacity_on_structured_stream() {
        // van der Corput stream: key k recurs with reuse distance ~2^k, so
        // each doubling of capacity captures one more key
        let stream: Vec<u64> = (1u64..1025).map(|i| i.trailing_zeros() as u64).collect();
        let run = |cap: usize| {
            let mut c = RegCache::new(cap);
            for &t in &stream {
                c.access(t);
            }
            c.hit_rate()
        };
        assert!(run(8) > run(2), "{} vs {}", run(8), run(2));
        assert!(run(4) >= run(2));
        assert!(run(8) >= run(4));
        assert!(run(16) > 0.9, "full working set fits: {}", run(16));
    }
}

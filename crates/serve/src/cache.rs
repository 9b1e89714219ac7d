//! Content-addressed result cache.
//!
//! Maps a job fingerprint ([`crate::job::JobSpec::fingerprint`]) to the
//! compact `SimReport` JSON its simulation produced, with least-recently-
//! used eviction at a fixed capacity. The cached bytes are returned
//! verbatim — a hit is byte-identical to the first run by construction,
//! with nothing to re-serialize and therefore nothing that can drift.
//!
//! Hit/miss/evict accounting lives in the server's `MetricsRegistry`, not
//! here; the cache only reports what happened through its return values.

use std::collections::BTreeMap;
use std::sync::Arc;

struct Entry {
    report: Arc<str>,
    last_used: u64,
}

/// An LRU map from job fingerprint to compact report JSON.
///
/// Backed by a `BTreeMap` so iteration (and therefore eviction under
/// recency ties, which cannot happen, and debug dumps) is deterministic.
pub struct ResultCache {
    cap: usize,
    tick: u64,
    map: BTreeMap<u64, Entry>,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` reports (min 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            cap: capacity.max(1),
            tick: 0,
            map: BTreeMap::new(),
        }
    }

    /// Looks up a fingerprint, refreshing its recency on a hit. The
    /// report is shared with the entry, not copied.
    pub fn get(&mut self, fingerprint: u64) -> Option<Arc<str>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&fingerprint).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.report)
        })
    }

    /// Stores a report (a fresh `String` or an already shared one),
    /// evicting the least-recently-used entry when the cache is full.
    /// Returns `true` if an entry was evicted.
    pub fn insert(&mut self, fingerprint: u64, report: impl Into<Arc<str>>) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if !self.map.contains_key(&fingerprint) && self.map.len() >= self.cap {
            if let Some(&oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(
            fingerprint,
            Entry {
                report: report.into(),
                last_used: self.tick,
            },
        );
        evicted
    }

    /// Number of cached reports.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of cached reports.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_returns_the_same_bytes() {
        let mut c = ResultCache::new(4);
        assert!(c.get(1).is_none());
        assert!(!c.insert(1, "{\"a\":1}"));
        assert_eq!(c.get(1).as_deref(), Some("{\"a\":1}"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert(1, "one");
        c.insert(2, "two");
        assert!(c.get(1).is_some(), "touch 1 so 2 is the LRU");
        assert!(c.insert(3, "three"), "full cache must evict");
        assert!(c.get(2).is_none(), "2 was least recently used");
        assert!(c.get(1).is_some() && c.get(3).is_some());
    }

    #[test]
    fn overwriting_an_entry_does_not_evict() {
        let mut c = ResultCache::new(2);
        c.insert(1, "one");
        c.insert(2, "two");
        assert!(!c.insert(1, "uno"), "replacement needs no space");
        assert_eq!(c.get(1).as_deref(), Some("uno"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut c = ResultCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert(1, "one");
        assert!(c.insert(2, "two"));
        assert!(c.is_empty() || c.len() == 1);
        assert!(c.get(1).is_none() && c.get(2).is_some());
    }
}

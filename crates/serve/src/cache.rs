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
/// Backed by a `BTreeMap` so iteration (and therefore debug dumps) is
/// deterministic. Every `get` and `insert` takes a new tick, so each
/// entry's `last_used` is unique and `recency`'s first entry is exactly
/// the least recently used one: eviction is O(log n).
pub struct ResultCache {
    cap: usize,
    tick: u64,
    map: BTreeMap<u64, Entry>,
    /// `last_used` → fingerprint, one entry per cached report.
    recency: BTreeMap<u64, u64>,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` reports (min 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            cap: capacity.max(1),
            tick: 0,
            map: BTreeMap::new(),
            recency: BTreeMap::new(),
        }
    }

    /// Looks up a fingerprint, refreshing its recency on a hit. The
    /// report is shared with the entry, not copied.
    pub fn get(&mut self, fingerprint: u64) -> Option<Arc<str>> {
        self.tick += 1;
        let e = self.map.get_mut(&fingerprint)?;
        self.recency.remove(&e.last_used);
        self.recency.insert(self.tick, fingerprint);
        e.last_used = self.tick;
        Some(Arc::clone(&e.report))
    }

    /// Stores a report (a fresh `String` or an already shared one),
    /// evicting the least-recently-used entry when the cache is full.
    /// Returns `true` if an entry was evicted.
    pub fn insert(&mut self, fingerprint: u64, report: impl Into<Arc<str>>) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if !self.map.contains_key(&fingerprint) && self.map.len() >= self.cap {
            if let Some((_, oldest)) = self.recency.pop_first() {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        let entry = Entry {
            report: report.into(),
            last_used: self.tick,
        };
        if let Some(old) = self.map.insert(fingerprint, entry) {
            self.recency.remove(&old.last_used);
        }
        self.recency.insert(self.tick, fingerprint);
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

    /// The LRU cache in its plainest form: eviction scans every entry for
    /// the least `last_used`.
    struct ScanCache {
        cap: usize,
        tick: u64,
        map: BTreeMap<u64, (String, u64)>,
    }

    impl ScanCache {
        fn get(&mut self, fingerprint: u64) -> Option<String> {
            self.tick += 1;
            let tick = self.tick;
            self.map.get_mut(&fingerprint).map(|e| {
                e.1 = tick;
                e.0.clone()
            })
        }

        fn insert(&mut self, fingerprint: u64, report: String) -> bool {
            self.tick += 1;
            let mut evicted = false;
            if !self.map.contains_key(&fingerprint) && self.map.len() >= self.cap {
                let oldest = self.map.iter().min_by_key(|(_, e)| e.1).map(|(k, _)| *k);
                if let Some(oldest) = oldest {
                    self.map.remove(&oldest);
                    evicted = true;
                }
            }
            self.map.insert(fingerprint, (report, self.tick));
            evicted
        }
    }

    /// Seeded gets, inserts and overwrites over twice the capacity in
    /// fingerprints: every eviction, lookup and final entry agrees with
    /// the scanning cache.
    #[test]
    fn evictions_agree_with_a_scan_for_the_least_recently_used() {
        for (seed, cap) in [(1, 1), (2, 2), (3, 8), (4, 64)] {
            let mut rng = memnet_common::SplitMix64::new(seed);
            let mut c = ResultCache::new(cap);
            let mut r = ScanCache {
                cap,
                tick: 0,
                map: BTreeMap::new(),
            };
            let (keys, mut evictions) = (2 * cap as u64 + 1, 0);
            for i in 0..200 * cap + 500 {
                let key = rng.next_below(keys);
                let at = format!("cap {cap}, op {i}, key {key}");
                if rng.next_below(2) == 0 {
                    assert_eq!(c.get(key).as_deref(), r.get(key).as_deref(), "{at}");
                } else {
                    let report = format!("{key}/{i}");
                    let evicted = c.insert(key, report.as_str());
                    assert_eq!(evicted, r.insert(key, report), "{at}");
                    evictions += usize::from(evicted);
                }
                assert_eq!(c.len(), r.map.len(), "{at}");
            }
            for (key, (report, last_used)) in &r.map {
                let e = &c.map[key];
                assert_eq!((&*e.report, e.last_used), (report.as_str(), *last_used));
            }
            assert_eq!(c.recency.len(), c.map.len());
            assert!(evictions > cap, "cap {cap}: {evictions} evictions");
        }
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

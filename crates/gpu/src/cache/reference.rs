//! Reference models of the cache tables, and the differential tests that
//! hold [`Cache`] and [`MshrTable`] to them under seeded op sequences.
//!
//! [`RefCache`] is the tag cache in its plainest form: one `(tag, valid,
//! lru)` way per entry, set-major in one vector. [`RefMshr`] maps each
//! outstanding line to its waiters in arrival order. Every probe result,
//! [`MshrResult`], waiter list and snapshot row must agree.

use super::tests::pages;
use super::*;
use memnet_common::SplitMix64;
use memnet_obs::json::Field;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// The tag cache as one flat vector of 24-byte ways.
struct RefCache {
    ways: Vec<Way>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    tick: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        RefCache {
            ways: vec![Way::default(); (sets * u64::from(cfg.assoc)) as usize],
            assoc: cfg.assoc as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The ways of `addr`'s set, and its tag.
    fn set(&mut self, addr: u64) -> (&mut [Way], u64) {
        let line = addr >> self.line_shift;
        let first = (line & self.set_mask) as usize * self.assoc;
        let tag = line >> self.set_mask.count_ones();
        (&mut self.ways[first..first + self.assoc], tag)
    }

    fn touch(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set(addr);
        let hit = set.iter_mut().find(|w| w.valid && w.tag == tag);
        hit.map(|w| w.lru = tick).is_some()
    }

    fn read(&mut self, addr: u64) -> bool {
        let hit = self.touch(addr);
        *if hit {
            &mut self.stats.read_hits
        } else {
            &mut self.stats.read_misses
        } += 1;
        hit
    }

    fn write(&mut self, addr: u64) -> bool {
        let hit = self.touch(addr);
        *if hit {
            &mut self.stats.write_hits
        } else {
            &mut self.stats.write_misses
        } += 1;
        hit
    }

    /// Evicts the *first* way with the least `valid ? lru : 0`.
    fn fill(&mut self, addr: u64) {
        if self.touch(addr) {
            return;
        }
        let tick = self.tick;
        let (set, tag) = self.set(addr);
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .expect("nonzero associativity");
        *victim = Way {
            tag,
            valid: true,
            lru: tick,
        };
    }

    /// Clears the valid flag and keeps the stale tag.
    fn invalidate(&mut self, addr: u64) {
        let (set, tag) = self.set(addr);
        for w in set.iter_mut().filter(|w| w.valid && w.tag == tag) {
            w.valid = false;
        }
    }

    /// A row for each way that is not in its initial state.
    fn snapshot(&self) -> JsonValue {
        let touched = (0u64..)
            .zip(&self.ways)
            .filter(|(_, w)| w.tag != 0 || w.valid || w.lru != 0);
        let cells = touched.flat_map(|(i, w)| [i, w.tag, w.valid.into(), w.lru]);
        let mut members = vec![("rows", snaps(cells)), ("tick", self.tick.snap())];
        members.extend(self.stats.members());
        JsonValue::object(members)
    }

    /// The version 1 record: every way as a `(tag, valid, lru)` row.
    fn snapshot_v1(&self) -> JsonValue {
        let cells = self
            .ways
            .iter()
            .flat_map(|w| [w.tag, w.valid.into(), w.lru]);
        let mut members = vec![("ways", snaps(cells)), ("tick", self.tick.snap())];
        members.extend(self.stats.members());
        JsonValue::object(members)
    }
}

/// The MSHRs as a map from line to waiters.
struct RefMshr {
    map: BTreeMap<u64, Vec<Waiter>>,
    cap: usize,
}

impl RefMshr {
    fn allocate(&mut self, line: u64, waiter: Waiter) -> MshrResult {
        if let Some(ws) = self.map.get_mut(&line) {
            ws.push(waiter);
            return MshrResult::Merged;
        }
        if self.map.len() >= self.cap {
            return MshrResult::Full;
        }
        self.map.insert(line, vec![waiter]);
        MshrResult::Allocated
    }

    fn complete(&mut self, line: u64) -> Vec<Waiter> {
        self.map.remove(&line).unwrap_or_default()
    }
}

fn geometry(size_bytes: u64, assoc: u32, line_bytes: u32) -> CacheConfig {
    CacheConfig {
        size_bytes,
        assoc,
        line_bytes,
        latency_cycles: 1,
        mshrs: 4,
    }
}

/// Runs [`Cache`] and [`RefCache`] through one seeded op sequence over
/// twice the cache's lines (at two address bases a terabyte apart),
/// comparing every probe and, four times and at the end, the snapshot.
/// Halfway, the cache under test is swapped for one restored from its
/// own snapshot, and at three quarters for one restored from the
/// reference's version 1 record; each holds the pages it replaced.
fn cache_agrees(cfg: &CacheConfig, seed: u64) {
    let (mut c, mut r) = (Cache::new(cfg), RefCache::new(cfg));
    let mut rng = SplitMix64::new(seed);
    let line = u64::from(cfg.line_bytes);
    let lines = 2 * cfg.size_bytes / line;
    let ops = (6 * r.ways.len()).max(4000);
    for i in 0..ops {
        let base = rng.next_below(2) << 40;
        let addr = base + rng.next_below(lines) * line + rng.next_below(line);
        let at = format!("{}-way, seed {seed}, op {i} at {addr:#x}", cfg.assoc);
        match rng.next_below(8) {
            0..=2 => assert_eq!(c.read(addr), r.read(addr), "read, {at}"),
            3 => assert_eq!(c.write(addr), r.write(addr), "write, {at}"),
            4..=6 => {
                c.fill(addr);
                r.fill(addr);
            }
            _ => {
                c.invalidate(addr);
                r.invalidate(addr);
            }
        }
        if i % (ops / 4) == 0 {
            assert!(c.snapshot() == r.snapshot(), "snapshot, {at}");
        }
        if i == ops / 2 || i == 3 * ops / 4 {
            let record = if i == ops / 2 {
                c.snapshot()
            } else {
                r.snapshot_v1()
            };
            let back = Field::root(&record, "")
                .record(|f| Cache::new(cfg).restored(f))
                .expect("a cache restores its own snapshot and a version 1 record");
            assert_eq!(pages(&back), pages(&c), "restored pages, {at}");
            c = back;
        }
    }
    assert!(c.snapshot() == r.snapshot(), "final snapshot, seed {seed}");
}

#[test]
fn caches_agree_with_the_flat_way_reference() {
    for (seed, cfg) in [
        geometry(1024, 2, 128),      // 4 sets, one page
        geometry(32 << 10, 4, 128),  // the GPU L1
        geometry(768 << 10, 12, 64), // 1 024 sets of 12: a page is no power of two of them
        geometry(2 << 20, 16, 128),  // the GPU L2, four pages
        geometry(3 << 10, 3, 128),   // 8 sets of 3
    ]
    .iter()
    .enumerate()
    {
        cache_agrees(cfg, seed as u64);
    }
}

/// A version 1 record lists every way; only those that differ from a
/// fresh way allocate their page.
#[test]
fn a_version_1_record_restores_only_the_touched_pages() {
    let cfg = geometry(16 << 20, 16, 64); // the host's L2: 64 pages
    let (mut c, mut r) = (Cache::new(&cfg), RefCache::new(&cfg));
    // Sets 0 and 300: pages 0 and 1.
    for addr in [0, 300 * 64] {
        c.fill(addr);
        r.fill(addr);
    }
    c.invalidate(0);
    r.invalidate(0);
    let back = Field::root(&r.snapshot_v1(), "")
        .record(|f| Cache::new(&cfg).restored(f))
        .expect("a version 1 record restores");
    assert_eq!(pages(&back), [0, 1]);
    assert!(back.snapshot() == c.snapshot());
}

#[test]
fn an_invalidated_way_keeps_its_stale_tag_in_the_snapshot() {
    let cfg = geometry(1024, 2, 128);
    let (mut c, mut r) = (Cache::new(&cfg), RefCache::new(&cfg));
    for addr in [0x1000, 0x1200] {
        c.fill(addr);
        r.fill(addr);
    }
    c.invalidate(0x1000);
    r.invalidate(0x1000);
    assert!(!c.read(0x1000) && !r.read(0x1000));
    let snap = c.snapshot();
    assert!(snap == r.snapshot());
    // Set 0's first way: line 0x1000 >> 7 = 32 over 4 sets is tag 8,
    // filled on tick 1, now invalid.
    let Some(JsonValue::Array(rows)) = snap.get("rows") else {
        panic!("rows is an array: {snap:?}");
    };
    let row: Vec<_> = rows[..4].iter().filter_map(JsonValue::as_str).collect();
    assert_eq!(row, ["0", "8", "0", "1"]);
}

#[test]
fn mshrs_agree_with_the_map_reference() {
    for (seed, cap) in [(1, 1), (2, 4), (3, 32), (4, 128)] {
        let (mut m, mut r) = (
            MshrTable::new(cap),
            RefMshr {
                map: BTreeMap::new(),
                cap,
            },
        );
        let mut rng = SplitMix64::new(seed);
        // Twice the capacity in lines, plus one never allocated: `Full`,
        // merges and completions of absent lines all occur.
        let lines = 2 * cap as u64 + 1;
        for i in 0..20 * cap + 200 {
            let line = rng.next_below(lines) << 7;
            let at = format!("cap {cap}, op {i}, line {line:#x}");
            match rng.next_below(16) {
                0..=9 => {
                    let w = rng.next_below(1 << 16) as Waiter;
                    assert_eq!(m.allocate(line, w), r.allocate(line, w), "{at}");
                }
                10..=14 => {
                    let ws = m.complete(line);
                    assert_eq!(ws, r.complete(line), "waiters, {at}");
                    m.recycle(ws);
                }
                _ => {
                    let absent = lines << 7;
                    assert_eq!(m.complete(absent), r.complete(absent), "{at}");
                }
            }
            assert_eq!(m.len(), r.map.len(), "{at}");
            assert_eq!(m.is_empty(), r.map.is_empty(), "{at}");
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.allocate(0, 1), MshrResult::Allocated);
    }
}

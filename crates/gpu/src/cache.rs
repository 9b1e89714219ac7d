//! Set-associative tag cache with LRU replacement and MSHRs.
//!
//! The multi-GPU memory model (Section III-D) requires **write-through,
//! write-no-allocate** caches at both L1 and L2 so that memory always holds
//! the latest committed value under the relaxed consistency model. This
//! cache is timing-only (tags, no data).

use memnet_common::config::CacheConfig;
use memnet_obs::json::{snaps, Fields, JsonValue, Snap};
use std::collections::BTreeMap;

memnet_obs::snap_struct! {
    /// Hit/miss counters.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct CacheStats {
        /// Read hits.
        pub read_hits: u64,
        /// Read misses.
        pub read_misses: u64,
        /// Write hits (line present; data still written through).
        pub write_hits: u64,
        /// Write misses (no allocation performed).
        pub write_misses: u64,
    }
}

impl CacheStats {
    /// Read hit rate in `[0, 1]`; 0 when no reads were made.
    pub fn read_hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, o: &CacheStats) {
        self.read_hits += o.read_hits;
        self.read_misses += o.read_misses;
        self.write_hits += o.write_hits;
        self.write_misses += o.write_misses;
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// The most ways one storage page holds: 4 096 ways of 24 bytes are
/// 96 KiB, under glibc's 128 KiB mmap threshold. A multi-MB cache in one
/// block (the CPU L2 is 6 MiB of ways) is mmapped, and freeing it raises
/// that threshold to its size; from then on each thread's arena keeps a
/// freed block of that size resident. In the serve daemon, whose batch
/// threads come and go, one block per cache lifted the benchmark's
/// serve-mix peak RSS from 20.0 to 24.5 MB in four of six runs (2-core
/// Linux host); pages keep it at 18.2–18.6 MB.
const PAGE_WAYS: usize = 4096;

/// A write-through, write-no-allocate tag cache.
#[derive(Debug)]
pub struct Cache {
    /// Every way, set-major, in pages of whole sets: set `s` is the
    /// `assoc` ways from `(s % sets_per_page) * assoc` in page
    /// `s / sets_per_page`.
    pages: Vec<Vec<Way>>,
    sets_per_page: usize,
    assoc: usize,
    set_shift: u32,
    set_mask: u64,
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if line size or set count is not a power of two.
    #[allow(clippy::cast_possible_truncation, reason = "a set count in memory fits usize")]
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let empty = Way {
            tag: 0,
            valid: false,
            lru: 0,
        };
        let assoc = cfg.assoc as usize;
        let sets_per_page = (PAGE_WAYS / assoc).max(1);
        let (ways, page) = (sets as usize * assoc, sets_per_page * assoc);
        Cache {
            pages: (0..ways)
                .step_by(page)
                .map(|first| vec![empty; page.min(ways - first)])
                .collect(),
            sets_per_page,
            assoc,
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The line-aligned address for `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    #[allow(clippy::cast_possible_truncation, reason = "masked below the set count")]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.set_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// The ways of set `set`.
    #[inline]
    fn set_mut(&mut self, set: usize) -> &mut [Way] {
        let first = (set % self.sets_per_page) * self.assoc;
        &mut self.pages[set / self.sets_per_page][first..first + self.assoc]
    }

    /// Advances the LRU clock and marks `addr`'s line most recently used
    /// if it is present. Returns whether it was.
    fn touch(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let tick = self.tick;
        let hit = self
            .set_mut(set)
            .iter_mut()
            .find(|w| w.valid && w.tag == tag);
        hit.map(|w| w.lru = tick).is_some()
    }

    /// Probes for a read. Returns `true` on hit (LRU updated). Misses do
    /// NOT allocate — call [`Cache::fill`] when the refill returns.
    pub fn read(&mut self, addr: u64) -> bool {
        let hit = self.touch(addr);
        if hit {
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        hit
    }

    /// Probes for a write-through write: updates LRU on hit, never
    /// allocates on miss. Returns `true` on hit.
    pub fn write(&mut self, addr: u64) -> bool {
        let hit = self.touch(addr);
        if hit {
            self.stats.write_hits += 1;
        } else {
            self.stats.write_misses += 1;
        }
        hit
    }

    /// Installs the line for `addr`, evicting the LRU way.
    pub fn fill(&mut self, addr: u64) {
        // Already present (e.g. a second fill for merged misses): refresh.
        if self.touch(addr) {
            return;
        }
        let (set, tag) = self.set_and_tag(addr);
        let tick = self.tick;
        #[allow(clippy::expect_used, reason = "every set has assoc ≥ 1 ways")]
        let victim = self
            .set_mut(set)
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .expect("nonzero associativity");
        *victim = Way {
            tag,
            valid: true,
            lru: tick,
        };
    }

    /// Drops the line for `addr` if present (atomics evict before going to
    /// the HMC atomic unit).
    pub fn invalidate(&mut self, addr: u64) {
        let (set, tag) = self.set_and_tag(addr);
        for w in self.set_mut(set) {
            if w.valid && w.tag == tag {
                w.valid = false;
            }
        }
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The snapshot record: every way as a flat `(tag, valid, lru)` row,
    /// set-major, then the LRU clock and the counters. Geometry is not
    /// recorded — a restored cache must be built from the same
    /// [`CacheConfig`].
    pub fn snapshot(&self) -> JsonValue {
        let cells = (self.pages.iter().flatten()).flat_map(|w| [w.tag, w.valid.into(), w.lru]);
        let mut members = vec![("ways", snaps(cells)), ("tick", self.tick.snap())];
        members.extend(self.stats.members());
        JsonValue::object(members)
    }

    /// Reads back a [`Cache::snapshot`] record taken on an identically
    /// configured cache.
    ///
    /// # Errors
    ///
    /// Refuses, untouched, a mistyped field and a way count this cache's
    /// geometry does not have.
    pub fn restore(&mut self, f: &Fields) -> Result<(), String> {
        let len = self.pages.iter().map(Vec::len).sum();
        let ways = f.req("ways")?.rows(3, Some(len), |c| {
            Ok(Way {
                tag: c[0].u64_str()?,
                valid: c[1].uint_str()? != 0,
                lru: c[2].uint_str()?,
            })
        })?;
        let tick = f.get("tick")?;
        let stats = CacheStats::read(f)?;
        let page = self.sets_per_page * self.assoc;
        self.pages = ways.chunks(page).map(<[Way]>::to_vec).collect();
        self.tick = tick;
        self.stats = stats;
        Ok(())
    }
}

/// A waiter for an outstanding miss: opaque token returned to the owner
/// when the refill arrives.
pub type Waiter = u32;

/// Miss-status holding registers: merges requests to the same line and
/// bounds outstanding misses.
#[derive(Debug)]
pub struct MshrTable {
    map: BTreeMap<u64, Vec<Waiter>>,
    cap: usize,
    /// Drained waiter lists kept for reuse; at most `cap` ever exist.
    spare: Vec<Vec<Waiter>>,
}

/// Result of an MSHR allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrResult {
    /// New entry allocated; the caller must send the refill request.
    Allocated,
    /// Merged into an existing entry; no new request needed.
    Merged,
    /// Table full; the caller must stall and retry.
    Full,
}

impl MshrTable {
    /// Creates a table with capacity for `cap` distinct lines.
    pub fn new(cap: usize) -> Self {
        MshrTable {
            map: BTreeMap::new(),
            cap,
            spare: Vec::new(),
        }
    }

    /// Registers `waiter` for `line`.
    pub fn allocate(&mut self, line: u64, waiter: Waiter) -> MshrResult {
        if let Some(ws) = self.map.get_mut(&line) {
            ws.push(waiter);
            return MshrResult::Merged;
        }
        if self.map.len() >= self.cap {
            return MshrResult::Full;
        }
        let mut ws = self.spare.pop().unwrap_or_default();
        ws.push(waiter);
        self.map.insert(line, ws);
        MshrResult::Allocated
    }

    /// Completes `line`, returning all merged waiters in arrival order.
    /// Hand the list back through [`MshrTable::recycle`] once consumed.
    pub fn complete(&mut self, line: u64) -> Vec<Waiter> {
        self.map.remove(&line).unwrap_or_default()
    }

    /// Takes back a list [`MshrTable::complete`] returned, so the next
    /// miss reuses its storage instead of allocating.
    pub(crate) fn recycle(&mut self, mut ws: Vec<Waiter>) {
        if ws.capacity() > 0 {
            ws.clear();
            self.spare.push(ws);
        }
    }

    /// Outstanding distinct lines.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every outstanding entry (fault injection: the owning device
    /// died and its waiters will never be completed).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 128 B lines = 1 KB.
        Cache::new(&CacheConfig {
            size_bytes: 1024,
            assoc: 2,
            line_bytes: 128,
            latency_cycles: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn read_miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.read(0x1000));
        c.fill(0x1000);
        assert!(c.read(0x1000));
        assert!(c.read(0x1010), "same line, different offset");
        assert_eq!(c.stats().read_hits, 2);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn write_never_allocates() {
        let mut c = small();
        assert!(!c.write(0x2000));
        assert!(!c.read(0x2000), "write miss must not allocate");
        c.fill(0x2000);
        assert!(c.write(0x2000), "write hit after fill");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set index = bits 7..9; these three all map to set 0.
        let (a, b, d) = (0x0000, 0x0200, 0x0400);
        c.fill(a);
        c.fill(b);
        assert!(c.read(a)); // a most recent
        c.fill(d); // evicts b
        assert!(c.read(a));
        assert!(!c.read(b), "b was LRU and must be evicted");
        assert!(c.read(d));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(0x1000);
        c.invalidate(0x1000);
        assert!(!c.read(0x1000));
    }

    #[test]
    fn double_fill_is_idempotent() {
        let mut c = small();
        c.fill(0x1000);
        c.fill(0x1000);
        c.fill(0x1200); // same set
        assert!(
            c.read(0x1000),
            "line must survive duplicate fill + one insert"
        );
    }

    #[test]
    fn line_addr_alignment() {
        let c = small();
        assert_eq!(c.line_addr(0x1234), 0x1200);
        assert_eq!(c.line_addr(0x1280), 0x1280);
    }

    #[test]
    fn mshr_merge_and_capacity() {
        let mut m = MshrTable::new(2);
        assert_eq!(m.allocate(0x100, 1), MshrResult::Allocated);
        assert_eq!(m.allocate(0x100, 2), MshrResult::Merged);
        assert_eq!(m.allocate(0x200, 3), MshrResult::Allocated);
        assert_eq!(m.allocate(0x300, 4), MshrResult::Full);
        assert_eq!(m.complete(0x100), vec![1, 2]);
        assert_eq!(m.allocate(0x300, 4), MshrResult::Allocated);
        assert_eq!(m.complete(0x999), Vec::<Waiter>::new());
    }
}

//! Set-associative tag cache with LRU replacement and MSHRs.
//!
//! The multi-GPU memory model (Section III-D) requires **write-through,
//! write-no-allocate** caches at both L1 and L2 so that memory always holds
//! the latest committed value under the relaxed consistency model. This
//! cache is timing-only (tags, no data).

use memnet_common::config::CacheConfig;
use memnet_obs::json::{snaps, Field, Fields, JsonValue, Snap};

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

/// The valid bit of a tag word. A tag is an address shifted right by at
/// least the line and set bits, so bit 63 is free for it.
const VALID: u64 = 1 << 63;

/// The most entries one storage page holds: 4 096 tag words (or LRU
/// stamps) of 8 bytes are 32 KiB, under glibc's 128 KiB mmap threshold.
/// A multi-MB array in one block (the CPU L2 has 2 MiB of tags) is
/// mmapped, and freeing it raises that threshold to its size; from then
/// on each thread's arena keeps a freed block of that size resident. In
/// the serve daemon, whose batch threads come and go, one block per cache
/// lifted the benchmark's serve-mix peak RSS from 20.0 to 24.5 MB in four
/// of six runs (2-core Linux host); pages keep it at 18.2–18.6 MB.
const PAGE_WAYS: usize = 4096;

/// A write-through, write-no-allocate tag cache.
#[derive(Debug)]
pub struct Cache {
    /// Every way's `tag | VALID` word, set-major, in pages of a power of
    /// two of whole sets: set `s` is the `assoc` words from
    /// `(s % 2^page_shift) * assoc` in page `s >> page_shift`. A page is
    /// allocated at the first fill into one of its sets; until then it is
    /// empty and reads as fresh ways (tag word 0, LRU 0). A probe reads
    /// only these.
    tags: Vec<Vec<u64>>,
    /// Each way's LRU stamp, laid out like `tags` and allocated with it:
    /// written on a hit, read on a fill.
    lru: Vec<Vec<u64>>,
    page_shift: u32,
    assoc: usize,
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
        let assoc = cfg.assoc as usize;
        let page_shift = (PAGE_WAYS / assoc).max(1).ilog2();
        let pages = (sets as usize * assoc).div_ceil(assoc << page_shift);
        Cache {
            tags: vec![Vec::new(); pages],
            lru: vec![Vec::new(); pages],
            page_shift,
            assoc,
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

    /// `addr`'s page, the index of its set's first way in the page, and
    /// the tag word that holds it valid.
    #[inline]
    #[allow(clippy::cast_possible_truncation, reason = "masked below the set count")]
    fn locate(&self, addr: u64) -> (usize, usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let first = (set & ((1 << self.page_shift) - 1)) * self.assoc;
        let word = (line >> self.set_mask.count_ones()) | VALID;
        (set >> self.page_shift, first, word)
    }

    /// The number of ways.
    #[allow(clippy::cast_possible_truncation, reason = "a set count in memory fits usize")]
    fn ways(&self) -> usize {
        (self.set_mask as usize + 1) * self.assoc
    }

    /// Page `page`'s two arrays, allocated zeroed if it has none yet.
    fn page_mut(&mut self, page: usize) -> (&mut [u64], &mut [u64]) {
        if self.tags[page].is_empty() {
            let full = self.assoc << self.page_shift;
            let len = full.min(self.ways() - page * full);
            (self.tags[page], self.lru[page]) = (vec![0; len], vec![0; len]);
        }
        (&mut self.tags[page], &mut self.lru[page])
    }

    /// Advances the LRU clock and marks `addr`'s line most recently used
    /// if it is present. Returns whether it was; a set whose page was
    /// never filled holds no line.
    fn touch(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let (page, first, word) = self.locate(addr);
        let Some(set) = self.tags[page].get(first..first + self.assoc) else {
            return false;
        };
        let hit = set.iter().position(|&w| w == word);
        hit.map(|way| self.lru[page][first + way] = self.tick)
            .is_some()
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

    /// Installs the line for `addr`, evicting the LRU way: the first one
    /// with the least `valid ? lru : 0`. The first fill into a page
    /// allocates it.
    pub fn fill(&mut self, addr: u64) {
        // Already present (e.g. a second fill for merged misses): refresh.
        if self.touch(addr) {
            return;
        }
        let (page, first, word) = self.locate(addr);
        let (assoc, tick) = (self.assoc, self.tick);
        let (tags, lru) = self.page_mut(page);
        let (tags, lru) = (&mut tags[first..], &mut lru[first..]);
        let age = |way: &usize| {
            if tags[*way] & VALID != 0 {
                lru[*way]
            } else {
                0
            }
        };
        #[allow(clippy::expect_used, reason = "every set has assoc ≥ 1 ways")]
        let victim = (0..assoc).min_by_key(age).expect("nonzero associativity");
        (tags[victim], lru[victim]) = (word, tick);
    }

    /// Drops the line for `addr` if present (atomics evict before going to
    /// the HMC atomic unit). The way keeps its stale tag.
    pub fn invalidate(&mut self, addr: u64) {
        let (page, first, word) = self.locate(addr);
        let set = self.tags[page].get_mut(first..first + self.assoc);
        for w in set.into_iter().flatten() {
            if *w == word {
                *w &= !VALID;
            }
        }
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The snapshot record: a `[index, tag, valid, lru]` row for each
    /// way that differs from a fresh one (tag word or LRU not 0), in
    /// ascending way index (set-major), then the LRU clock and the
    /// counters. A filled way keeps a non-zero LRU, even once invalidated,
    /// so the rows are lossless. Geometry is not recorded — a restored
    /// cache must be built from the same [`CacheConfig`].
    pub fn snapshot(&self) -> JsonValue {
        let full = self.assoc << self.page_shift;
        let pages = self.tags.iter().zip(&self.lru).enumerate();
        let ways = pages.flat_map(|(page, (tags, lru))| {
            let ways = tags.iter().zip(lru).enumerate();
            ways.map(move |(i, (&w, &lru))| (page * full + i, w, lru))
        });
        let rows = ways
            .filter(|&(_, w, lru)| w != 0 || lru != 0)
            .flat_map(|(i, w, lru)| [i as u64, w & !VALID, w >> 63, lru]);
        let mut members = vec![("rows", snaps(rows)), ("tick", self.tick.snap())];
        members.extend(self.stats.members());
        JsonValue::object(members)
    }

    /// This cache, fresh from [`Cache::new`], holding a
    /// [`Cache::snapshot`] record taken on an identically configured
    /// cache: version 2's `rows`, or version 1's `ways`, a dense `[tag,
    /// valid, lru]` row per way. Either way a row that differs from a
    /// fresh way allocates its page, so the restored cache holds the pages
    /// a straight run would.
    ///
    /// # Errors
    ///
    /// Refuses a record with both `rows` and `ways` or with neither, a
    /// mistyped field, a tag past 2^53 (no address the model issues has
    /// one), a way index past this cache's geometry or not above the
    /// previous row's, and a dense way count the geometry does not have.
    pub fn restored(mut self, f: &Fields) -> Result<Self, String> {
        let way = |tag: Field, valid: Field, lru: Field| {
            let valid = if valid.uint_str()? != 0 { VALID } else { 0 };
            Ok((tag.uint_str()? | valid, lru.uint_str()?))
        };
        let ways = self.ways();
        let rows: Vec<(u64, (u64, u64))> = match (f.opt("rows")?, f.opt("ways")?) {
            (Some(sparse), None) => {
                let last = ways as u64 - 1;
                let rows = sparse.rows(4, None, |c| {
                    Ok((c[0].uint_str_to(last)?, way(c[1], c[2], c[3])?))
                })?;
                if let Some(k) = (1..rows.len()).find(|&k| rows[k].0 <= rows[k - 1].0) {
                    let (path, prev) = (sparse.path(), rows[k - 1].0);
                    return Err(format!(
                        "'{path}[{}]' must be above the previous row's index {prev}",
                        4 * k
                    ));
                }
                rows
            }
            (None, Some(dense)) => {
                let rows = dense.rows(3, Some(ways), |c| way(c[0], c[1], c[2]))?;
                (0..).zip(rows).collect()
            }
            _ => {
                let path = f.path();
                return Err(format!(
                    "field '{path}' must hold exactly one of 'rows' and 'ways'"
                ));
            }
        };
        let full = self.assoc << self.page_shift;
        for (i, (w, lru)) in rows.into_iter().filter(|&(_, way)| way != (0, 0)) {
            #[allow(clippy::cast_possible_truncation, reason = "below the way count")]
            let (page, at) = (i as usize / full, i as usize % full);
            let (tags, lrus) = self.page_mut(page);
            (tags[at], lrus[at]) = (w, lru);
        }
        self.tick = f.get("tick")?;
        self.stats = CacheStats::read(f)?;
        Ok(self)
    }
}

/// A waiter for an outstanding miss: opaque token returned to the owner
/// when the refill arrives.
pub type Waiter = u32;

/// Miss-status holding registers: merges requests to the same line and
/// bounds outstanding misses. The table holds at most `cap` lines, few
/// enough that a scan of them beats a search tree.
#[derive(Debug)]
pub struct MshrTable {
    /// The outstanding lines, in no order; reserved once, at `cap`.
    lines: Vec<u64>,
    /// `waiters[i]` waits on `lines[i]`, in arrival order.
    waiters: Vec<Vec<Waiter>>,
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
            lines: Vec::with_capacity(cap),
            waiters: Vec::with_capacity(cap),
            cap,
            spare: Vec::new(),
        }
    }

    /// Registers `waiter` for `line`.
    pub fn allocate(&mut self, line: u64, waiter: Waiter) -> MshrResult {
        if let Some(i) = self.lines.iter().position(|&l| l == line) {
            self.waiters[i].push(waiter);
            return MshrResult::Merged;
        }
        if self.lines.len() >= self.cap {
            return MshrResult::Full;
        }
        let mut ws = self.spare.pop().unwrap_or_default();
        ws.push(waiter);
        self.lines.push(line);
        self.waiters.push(ws);
        MshrResult::Allocated
    }

    /// Completes `line`, returning all merged waiters in arrival order.
    /// Hand the list back through `MshrTable::recycle` once consumed.
    pub fn complete(&mut self, line: u64) -> Vec<Waiter> {
        let Some(i) = self.lines.iter().position(|&l| l == line) else {
            return Vec::new();
        };
        self.lines.swap_remove(i);
        self.waiters.swap_remove(i)
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
        self.lines.len()
    }

    /// True when no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Drops every outstanding entry (fault injection: the owning device
    /// died and its waiters will never be completed).
    pub fn clear(&mut self) {
        self.lines.clear();
        self.waiters.clear();
    }
}

#[cfg(test)]
mod reference;

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

    /// The indices of the pages `c` has allocated, each checked to hold
    /// both arrays.
    pub(super) fn pages(c: &Cache) -> Vec<usize> {
        let held = |p: &Vec<u64>| !p.is_empty();
        let tags: Vec<bool> = c.tags.iter().map(held).collect();
        assert_eq!(tags, c.lru.iter().map(held).collect::<Vec<_>>());
        (0..tags.len()).filter(|&p| tags[p]).collect()
    }

    /// The CPU L2 of the paper's host: 16 MiB of 64 B lines, 16 ways,
    /// 64 pages of 256 sets.
    fn host_l2() -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 16 << 20,
            assoc: 16,
            line_bytes: 64,
            latency_cycles: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn an_untouched_cache_holds_no_page_and_records_no_row() {
        let mut c = host_l2();
        assert_eq!(c.tags.len(), 64);
        assert!(pages(&c).is_empty());
        // Probes of a set nothing was filled into allocate nothing.
        assert!(!c.read(0x1000) && !c.write(0x1000));
        c.invalidate(0x1000);
        assert!(pages(&c).is_empty());
        let snap = c.snapshot();
        assert_eq!(
            snap.get("rows")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(0)
        );
        assert_eq!(snap.get("tick").and_then(JsonValue::as_str), Some("2"));
    }

    #[test]
    fn one_fill_allocates_one_page_per_array() {
        let mut c = host_l2();
        // Line 0x9000_0000 >> 6 is set 0 of its tag: page 0. 256 sets on,
        // page 1 begins.
        c.fill(0x9000_0000);
        assert_eq!(pages(&c), [0]);
        assert_eq!((c.tags[0].len(), c.lru[0].len()), (PAGE_WAYS, PAGE_WAYS));
        c.fill(0x9000_0000 + 255 * 64);
        assert_eq!(pages(&c), [0], "set 255 shares page 0");
        c.fill(0x9000_0000 + 256 * 64);
        assert_eq!(pages(&c), [0, 1]);
        assert!(c.read(0x9000_0000));
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

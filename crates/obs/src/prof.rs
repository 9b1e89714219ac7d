//! Self-profiler: wall-clock attribution for the engine driver loop, plus
//! a counting global allocator.
//!
//! This module is the **only** place outside the engine run pool and the
//! serve daemon where the workspace may read the host clock
//! (`impl Profiler` carries the one `disallowed_methods` allow), and the
//! only `unsafe` code: the crate root denies `unsafe_code`, and only the
//! `GlobalAlloc` impl and its test allow it. The contract that keeps
//! reports byte-identical with profiling enabled: a [`Profiler`] is
//! *written to* only from the engine driver loop (`System::advance` and
//! friends) and *read* only after the run; no simulated component ever
//! observes a wall-clock value, so the simulation cannot branch on one.
//!
//! Two instruments live here:
//!
//! - [`Profiler`] — scoped timers keyed by [`ProfCat`] (one per clock
//!   domain tick plus calendar bookkeeping and idle fast-forward),
//!   accumulating wall nanoseconds and tick counts, with per-phase
//!   wall/allocation marks ([`Profiler::phase_mark`]).
//! - [`CountingAlloc`] — a pass-through wrapper over the system allocator
//!   that counts allocations and tracks peak live bytes in relaxed
//!   atomics. Installed behind the root crate's `count-alloc` feature
//!   (`#[global_allocator]` in the `memnet` binary); when it is not
//!   installed, [`alloc_stats`] reports `installed: false` and zeros.

use crate::trace::ClockDomain;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What the driver loop is spending wall-clock time on. One category per
/// clock-domain tick, plus the engine's own bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfCat {
    /// One clock domain's ticks: GPU cores (CTA dispatch, lane execution,
    /// L1), GPU L2s, CPU core + DMA engine, routers (injection, routing,
    /// allocation, ejection pumps) or HMC vaults.
    Tick(ClockDomain),
    /// Calendar bookkeeping: earliest-edge search, re-arming, parking.
    CalendarAdvance,
    /// Idle fast-forward: catching parked domains up over skipped edges.
    FastForward,
}

/// Number of [`ProfCat`] values (array sizing).
pub const PROF_CATS: usize = ClockDomain::ALL.len() + 2;

impl ProfCat {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            ProfCat::Tick(ClockDomain::Core) => "core-tick",
            ProfCat::Tick(ClockDomain::L2) => "l2-tick",
            ProfCat::Tick(ClockDomain::Cpu) => "cpu-tick",
            ProfCat::Tick(ClockDomain::Net) => "net-tick",
            ProfCat::Tick(ClockDomain::Dram) => "dram-tick",
            ProfCat::CalendarAdvance => "calendar-advance",
            ProfCat::FastForward => "fast-forward",
        }
    }

    /// All categories in report order: the domain ticks in tick order,
    /// then the bookkeeping.
    pub fn all() -> [ProfCat; PROF_CATS] {
        use ProfCat::{CalendarAdvance, FastForward};
        let [core, l2, cpu, net, dram] = ClockDomain::ALL.map(ProfCat::Tick);
        [core, l2, cpu, net, dram, CalendarAdvance, FastForward]
    }

    fn index(self) -> usize {
        match self {
            ProfCat::Tick(d) => d as usize,
            ProfCat::CalendarAdvance => PROF_CATS - 2,
            ProfCat::FastForward => PROF_CATS - 1,
        }
    }
}

crate::to_json_struct! {
    /// Wall-clock and allocation deltas over one simulation phase.
    #[derive(Debug, Clone)]
    pub struct PhaseMark {
        /// Phase name (`"host-pre"`, `"memcpy-h2d"`, `"kernel"`, ...).
        pub name: &'static str,
        /// Wall nanoseconds since the previous mark (or profiler creation).
        pub wall_ns: u64,
        /// Allocation calls since the previous mark (0 when the counting
        /// allocator is not installed).
        pub allocs: u64,
        /// Bytes requested since the previous mark.
        pub alloc_bytes: u64,
    }
}

/// Scoped wall-clock timers, accumulated per [`ProfCat`].
///
/// Non-reentrant per category: `begin(c)` then `begin(c)` discards the
/// first start. `end(c)` without an open `begin(c)` is a no-op, so hook
/// placement mistakes degrade to missing attribution, never panics.
#[derive(Debug)]
pub struct Profiler {
    started: Instant,
    last_mark: Instant,
    mark_allocs: u64,
    mark_bytes: u64,
    open: [Option<Instant>; PROF_CATS],
    accum_ns: [u64; PROF_CATS],
    ticks: [u64; PROF_CATS],
    phases: Vec<PhaseMark>,
}

#[allow(
    clippy::disallowed_methods,
    clippy::cast_possible_truncation,
    reason = "host-side timing, never simulated state; ns clamped"
)]
impl Profiler {
    /// Starts the run clock.
    pub fn new() -> Self {
        let now = Instant::now();
        let a = alloc_stats();
        Profiler {
            started: now,
            last_mark: now,
            mark_allocs: a.allocs,
            mark_bytes: a.bytes,
            open: [None; PROF_CATS],
            accum_ns: [0; PROF_CATS],
            ticks: [0; PROF_CATS],
            phases: Vec::new(),
        }
    }

    /// Opens a scoped timer for `cat`.
    #[inline]
    pub fn begin(&mut self, cat: ProfCat) {
        self.open[cat.index()] = Some(Instant::now());
    }

    /// Closes the scoped timer for `cat`, accumulating elapsed time and
    /// one tick.
    #[inline]
    pub fn end(&mut self, cat: ProfCat) {
        let i = cat.index();
        if let Some(t0) = self.open[i].take() {
            let ns = t0.elapsed().as_nanos();
            self.accum_ns[i] = self.accum_ns[i].saturating_add(ns.min(u64::MAX as u128) as u64);
            self.ticks[i] += 1;
        }
    }

    /// Records a phase boundary: wall and allocation deltas since the
    /// previous mark.
    pub fn phase_mark(&mut self, name: &'static str) {
        let now = Instant::now();
        let a = alloc_stats();
        let ns = now.duration_since(self.last_mark).as_nanos();
        self.phases.push(PhaseMark {
            name,
            wall_ns: ns.min(u64::MAX as u128) as u64,
            allocs: a.allocs.wrapping_sub(self.mark_allocs),
            alloc_bytes: a.bytes.wrapping_sub(self.mark_bytes),
        });
        self.last_mark = now;
        self.mark_allocs = a.allocs;
        self.mark_bytes = a.bytes;
    }

    /// Accumulated wall nanoseconds for `cat`.
    pub fn total_ns(&self, cat: ProfCat) -> u64 {
        self.accum_ns[cat.index()]
    }

    /// Closed `begin`/`end` pairs for `cat`.
    pub fn ticks(&self, cat: ProfCat) -> u64 {
        self.ticks[cat.index()]
    }

    /// Wall nanoseconds since the profiler was created.
    pub fn wall_ns(&self) -> u64 {
        let ns = self.started.elapsed().as_nanos();
        ns.min(u64::MAX as u128) as u64
    }

    /// Phase marks, oldest first.
    pub fn phases(&self) -> &[PhaseMark] {
        &self.phases
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Counting global allocator.
// ---------------------------------------------------------------------------

// The four tallies must be process-global: `#[global_allocator]` is a
// process-wide hook with no instance state. They count host allocations,
// never simulated state, so replay identity is unaffected.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` wrapper over [`std::alloc::System`] that counts
/// every allocation in relaxed atomics. Pure pass-through — it changes no
/// allocation decision, so installing it cannot perturb simulation
/// results; the counters live outside sim state and are read only by the
/// profiling layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for `#[global_allocator]` statics.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

/// Adds `delta` to a tally, returning the previous value. Relaxed is the
/// right ordering here: the tallies are pure process-wide counts outside
/// simulation state, never used to synchronize anything, and read only by
/// the reporting layer, which tolerates staleness.
#[inline]
fn bump(tally: &AtomicU64, delta: u64) -> u64 {
    tally.fetch_add(delta, Ordering::Relaxed)
}

#[inline]
fn count_alloc(size: usize) {
    bump(&ALLOC_CALLS, 1);
    bump(&ALLOC_BYTES, size as u64);
    let live = bump(&LIVE_BYTES, size as u64) + size as u64;
    // A racy max loses at most a transient peak: the high-water mark is a
    // reporting approximation.
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn count_free(size: usize) {
    // Relaxed: a pure tally, as in `bump`.
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

#[allow(
    unsafe_code,
    reason = "GlobalAlloc's methods are unsafe by contract; this impl is the crate's one opt-out"
)]
// SAFETY: pure delegation to `System`; the atomic bookkeeping neither
// reads nor writes the allocations themselves.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count_free(layout.size());
            count_alloc(new_size);
        }
        p
    }
}

crate::to_json_struct! {
    /// A point-in-time read of the counting allocator.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AllocStats {
        /// True when a [`CountingAlloc`] is installed in this process (any
        /// allocation has been counted).
        pub installed: bool,
        /// Allocation calls since process start.
        pub allocs: u64,
        /// Bytes requested across all allocations.
        pub bytes: u64,
        /// Bytes currently live.
        pub live_bytes: u64,
        /// High-water mark of live bytes.
        pub peak_bytes: u64,
    }
}

/// Reads the counting allocator's totals. All zeros (and
/// `installed: false`) when no [`CountingAlloc`] is installed.
pub fn alloc_stats() -> AllocStats {
    // Point-in-time reporting reads; a stale or torn-across-fields view
    // is acceptable by design.
    #[inline]
    fn read(tally: &AtomicU64) -> u64 {
        tally.load(Ordering::Relaxed)
    }
    let allocs = read(&ALLOC_CALLS);
    AllocStats {
        installed: allocs > 0,
        allocs,
        bytes: read(&ALLOC_BYTES),
        live_bytes: read(&LIVE_BYTES),
        peak_bytes: read(&PEAK_BYTES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_have_stable_names_and_indices() {
        let all = ProfCat::all();
        assert_eq!(all.len(), PROF_CATS);
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn scoped_timers_accumulate() {
        let mut p = Profiler::new();
        for _ in 0..3 {
            p.begin(ProfCat::Tick(ClockDomain::Net));
            std::hint::black_box(0u64);
            p.end(ProfCat::Tick(ClockDomain::Net));
        }
        assert_eq!(p.ticks(ProfCat::Tick(ClockDomain::Net)), 3);
        assert_eq!(p.ticks(ProfCat::Tick(ClockDomain::Dram)), 0);
        assert!(p.wall_ns() >= p.total_ns(ProfCat::Tick(ClockDomain::Net)));
    }

    #[test]
    fn end_without_begin_is_a_noop() {
        let mut p = Profiler::new();
        p.end(ProfCat::Tick(ClockDomain::Core));
        assert_eq!(p.ticks(ProfCat::Tick(ClockDomain::Core)), 0);
        assert_eq!(p.total_ns(ProfCat::Tick(ClockDomain::Core)), 0);
    }

    #[test]
    fn phase_marks_record_deltas_in_order() {
        let mut p = Profiler::new();
        p.phase_mark("memcpy-h2d");
        p.phase_mark("kernel");
        let names: Vec<&str> = p.phases().iter().map(|m| m.name).collect();
        assert_eq!(names, ["memcpy-h2d", "kernel"]);
    }

    #[test]
    fn counting_allocator_is_a_pure_passthrough() {
        // The test binary does not install CountingAlloc, so exercise the
        // GlobalAlloc impl directly.
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).expect("layout");
        #[allow(unsafe_code, reason = "calls the GlobalAlloc impl under test directly")]
        // SAFETY: a nonzero-size layout; `p` is checked non-null before the
        // write and freed once, with the layout it was allocated with.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            p.write_bytes(0xAB, 64);
            a.dealloc(p, layout);
        }
        let s = alloc_stats();
        assert!(s.installed, "direct use counts as installed");
        assert!(s.allocs >= 1);
        assert!(s.bytes >= 64);
        assert!(s.peak_bytes >= 64);
    }
}

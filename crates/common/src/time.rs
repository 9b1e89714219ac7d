//! Simulation time and multi-rate clock domains.
//!
//! The simulator is cycle-stepped with heterogeneous clocks (Table I: GPU
//! core 1400 MHz, crossbar 1250 MHz, L2 700 MHz, CPU 4 GHz, network
//! 1.25 GHz, DRAM tCK = 1.25 ns). Time is kept in femtoseconds so every
//! period in the paper is an exact integer.

/// Simulation time in femtoseconds.
pub type Fs = u64;

/// Femtoseconds per nanosecond.
pub const FS_PER_NS: Fs = 1_000_000;

/// Converts nanoseconds (possibly fractional) to femtoseconds.
#[inline]
#[allow(clippy::cast_possible_truncation, reason = "f64 `as` saturates at u64::MAX fs")]
pub fn ns_to_fs(ns: f64) -> Fs {
    (ns * FS_PER_NS as f64).round() as Fs
}

/// Converts femtoseconds to (fractional) nanoseconds.
#[inline]
pub fn fs_to_ns(fs: Fs) -> f64 {
    fs as f64 / FS_PER_NS as f64
}

/// A periodic clock domain.
///
/// Components owned by a domain are ticked whenever `due(now)` holds; the
/// engine then calls [`Clock::advance`]. The first tick is at time 0.
///
/// # Example
///
/// ```
/// use memnet_common::time::Clock;
/// let mut c = Clock::from_freq_mhz(4000.0); // 4 GHz CPU
/// assert_eq!(c.period_fs(), 250_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clock {
    period_fs: Fs,
    next_fs: Fs,
    cycles: u64,
}

impl Clock {
    /// Creates a clock with the given period in femtoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `period_fs` is zero.
    pub fn new(period_fs: Fs) -> Self {
        assert!(period_fs > 0, "clock period must be nonzero");
        Clock {
            period_fs,
            next_fs: 0,
            cycles: 0,
        }
    }

    /// Creates a clock from a frequency in MHz.
    #[allow(clippy::cast_possible_truncation, reason = "f64 `as` saturates; periods ≪ 2^64 fs")]
    pub fn from_freq_mhz(mhz: f64) -> Self {
        assert!(mhz > 0.0, "clock frequency must be positive");
        Clock::new((1e9 / mhz).round() as Fs)
    }

    /// The clock period in femtoseconds.
    #[inline]
    pub fn period_fs(&self) -> Fs {
        self.period_fs
    }

    /// The time of the next (not yet executed) tick.
    #[inline]
    pub fn next_fs(&self) -> Fs {
        self.next_fs
    }

    /// Number of ticks executed so far.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// True if the domain should tick at or before `now`.
    #[inline]
    pub fn due(&self, now: Fs) -> bool {
        self.next_fs <= now
    }

    /// Consumes one tick, moving `next_fs` one period forward.
    #[inline]
    pub fn advance(&mut self) {
        self.next_fs += self.period_fs;
        self.cycles += 1;
    }

    /// True while the clock sits on the invariant `next_fs == cycles *
    /// period_fs` that [`Clock::new`] establishes and every mutator must
    /// preserve. The runtime sanitizer audits this after each engine
    /// timestep; a violation means a fast-forward or wake desynchronized
    /// the edge grid.
    #[inline]
    pub fn edge_aligned(&self) -> bool {
        self.next_fs == self.cycles * self.period_fs
    }

    /// Fast-forwards the clock so its next tick is the first edge at or
    /// after `t` (or leaves it alone if already there). Returns the number
    /// of edges skipped — edges the domain would have ticked through as
    /// no-ops had it been stepped cycle by cycle.
    ///
    /// Relies on the invariant `next_fs == cycles * period_fs`, which
    /// [`Clock::new`] establishes and [`Clock::advance`] preserves.
    pub fn fast_forward_at_or_after(&mut self, t: Fs) -> u64 {
        let target = self
            .next_fs
            .max(t.div_ceil(self.period_fs) * self.period_fs);
        let skipped = (target - self.next_fs) / self.period_fs;
        self.cycles += skipped;
        self.next_fs = target;
        skipped
    }

    /// Fast-forwards the clock so its next tick is the first edge strictly
    /// after `t`. Returns the number of edges skipped (the edge at exactly
    /// `t`, if any, counts as skipped).
    pub fn fast_forward_after(&mut self, t: Fs) -> u64 {
        let target = self.next_fs.max((t / self.period_fs + 1) * self.period_fs);
        let skipped = (target - self.next_fs) / self.period_fs;
        self.cycles += skipped;
        self.next_fs = target;
        skipped
    }
}

impl Default for Clock {
    /// A 1 GHz clock.
    fn default() -> Self {
        Clock::new(FS_PER_NS)
    }
}

/// Narrows a 64-bit count to `u32`, panicking with a labelled message on
/// overflow instead of silently truncating. Use this at domain edges where
/// a wire format or stats field is narrower than the internal counter;
/// `clippy::cast_possible_truncation` rejects the bare `as` cast this
/// replaces.
#[inline]
pub fn narrow_u32(v: u64, what: &str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("{what} overflows u32: {v}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_clocks_are_exact() {
        assert_eq!(Clock::from_freq_mhz(1400.0).period_fs(), 714_286);
        assert_eq!(Clock::from_freq_mhz(1250.0).period_fs(), 800_000);
        assert_eq!(Clock::from_freq_mhz(700.0).period_fs(), 1_428_571);
        assert_eq!(Clock::from_freq_mhz(4000.0).period_fs(), 250_000);
        // DRAM tCK = 1.25 ns.
        assert_eq!(ns_to_fs(1.25), 1_250_000);
    }

    #[test]
    fn clock_tick_sequence() {
        let mut c = Clock::new(10);
        assert!(c.due(0));
        c.advance();
        assert_eq!(c.cycles(), 1);
        assert!(!c.due(9));
        assert!(c.due(10));
        c.advance();
        assert_eq!(c.next_fs(), 20);
    }

    #[test]
    fn fast_forward_at_or_after_lands_on_edges() {
        // Period 10, next edge at 0.
        let mut c = Clock::new(10);
        // t on an edge: the edge itself is kept (not skipped).
        assert_eq!(c.fast_forward_at_or_after(30), 3);
        assert_eq!(c.next_fs(), 30);
        assert_eq!(c.cycles(), 3);
        // t between edges: round up.
        assert_eq!(c.fast_forward_at_or_after(41), 2);
        assert_eq!(c.next_fs(), 50);
        assert_eq!(c.cycles(), 5);
        // t in the past: no-op.
        assert_eq!(c.fast_forward_at_or_after(12), 0);
        assert_eq!(c.next_fs(), 50);
    }

    #[test]
    fn fast_forward_after_skips_the_exact_edge() {
        let mut c = Clock::new(10);
        // t exactly on an edge: that edge counts as skipped.
        assert_eq!(c.fast_forward_after(30), 4);
        assert_eq!(c.next_fs(), 40);
        assert_eq!(c.cycles(), 4);
        // t between edges: same result as at-or-after.
        assert_eq!(c.fast_forward_after(55), 2);
        assert_eq!(c.next_fs(), 60);
        // t in the past: no-op.
        assert_eq!(c.fast_forward_after(5), 0);
        assert_eq!(c.next_fs(), 60);
    }

    #[test]
    fn fast_forward_preserves_edge_invariant() {
        let mut ff = Clock::new(7);
        let mut stepped = Clock::new(7);
        ff.fast_forward_at_or_after(100);
        while stepped.next_fs() < 100 {
            stepped.advance();
        }
        assert_eq!(ff, stepped);
    }

    #[test]
    fn edge_alignment_survives_all_mutators() {
        let mut c = Clock::new(7);
        assert!(c.edge_aligned());
        c.advance();
        assert!(c.edge_aligned());
        c.fast_forward_at_or_after(100);
        assert!(c.edge_aligned());
        c.fast_forward_after(200);
        assert!(c.edge_aligned());
    }

    #[test]
    fn narrow_u32_passes_in_range() {
        assert_eq!(narrow_u32(u32::MAX as u64, "x"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "hop count overflows u32")]
    fn narrow_u32_panics_on_overflow() {
        let _ = narrow_u32(u32::MAX as u64 + 1, "hop count");
    }

    #[test]
    fn ns_round_trip() {
        assert_eq!(fs_to_ns(ns_to_fs(3.2)), 3.2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_period_panics() {
        let _ = Clock::new(0);
    }
}

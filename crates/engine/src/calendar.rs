//! Event calendar over a fixed set of clock domains.
//!
//! Each domain is a periodic [`Clock`]. The calendar tracks which domains
//! are *parked* (descheduled because their components reported idle) and
//! fast-forwards a parked domain's clock when it is woken, preserving the
//! clock's `next_fs == cycles * period_fs` invariant so a wake is
//! indistinguishable from having ticked through the skipped edges as
//! no-ops. A domain parked with an *alarm* ([`Calendar::park_until`])
//! names the edge of its own next event: [`Calendar::earliest`] counts
//! it, so time never passes it, and the owner wakes the domain there.
//!
//! With no domain parked the calendar degenerates to the classic
//! cycle-stepped loop: [`Calendar::earliest`] is the min over all
//! `next_fs` and every due domain ticks at every one of its edges. That
//! degenerate mode is exactly what `EngineMode::CycleStepped` in
//! `memnet-core` runs, which makes equivalence tests between the two
//! modes a real check of the park/fast-forward math.

use memnet_common::time::{Clock, Fs};

/// A set of clock domains with park/wake scheduling.
#[derive(Debug, Clone)]
pub struct Calendar {
    clocks: Vec<Clock>,
    parked: Vec<bool>,
    /// Per parked domain, the edge of its next event, if it named one.
    alarms: Vec<Option<Fs>>,
}

impl Calendar {
    /// Creates a calendar over `clocks`; all domains start armed.
    pub fn new(clocks: Vec<Clock>) -> Self {
        let n = clocks.len();
        Calendar {
            clocks,
            parked: vec![false; n],
            alarms: vec![None; n],
        }
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// True when the calendar has no domains.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// The clock of domain `d` (parked or not).
    #[inline]
    pub fn clock(&self, d: usize) -> &Clock {
        &self.clocks[d]
    }

    /// Earliest pending edge across all *armed* domains and the alarms of
    /// parked ones, or `None` when every domain is parked without an
    /// alarm (the simulation has quiesced).
    pub fn earliest(&self) -> Option<Fs> {
        self.clocks
            .iter()
            .zip(&self.parked)
            .zip(&self.alarms)
            .filter_map(|((c, &parked), &alarm)| if parked { alarm } else { Some(c.next_fs()) })
            .min()
    }

    /// The alarm of parked domain `d`, if it has one.
    #[inline]
    pub fn alarm(&self, d: usize) -> Option<Fs> {
        self.alarms[d]
    }

    /// True if armed domain `d` has an edge at or before `now`.
    #[inline]
    pub fn due(&self, d: usize, now: Fs) -> bool {
        !self.parked[d] && self.clocks[d].due(now)
    }

    /// Consumes one tick of domain `d`.
    #[inline]
    pub fn advance(&mut self, d: usize) {
        self.clocks[d].advance();
    }

    /// True if domain `d` is currently descheduled.
    #[inline]
    pub fn is_parked(&self, d: usize) -> bool {
        self.parked[d]
    }

    /// Deschedules domain `d`; its clock stops contributing to
    /// [`Calendar::earliest`] until a wake re-arms it.
    pub fn park(&mut self, d: usize) {
        debug_assert!(!self.parked[d], "parking an already-parked domain");
        self.parked[d] = true;
        self.alarms[d] = None;
    }

    /// Deschedules domain `d` until its edge `edge_fs`, a later edge than
    /// its next one: [`Calendar::earliest`] counts the alarm, so the
    /// caller reaches it and wakes `d` there with
    /// [`Calendar::wake_at_or_after`], unless work wakes it sooner.
    pub fn park_until(&mut self, d: usize, edge_fs: Fs) {
        debug_assert!(
            edge_fs > self.clocks[d].next_fs()
                && edge_fs.is_multiple_of(self.clocks[d].period_fs()),
            "an alarm is a later edge of the domain's own clock"
        );
        self.park(d);
        self.alarms[d] = Some(edge_fs);
    }

    /// Re-arms parked domain `d` at its first edge **at or after** `t`,
    /// returning the number of edges skipped. Use when the work arriving
    /// at `t` was produced by a domain that ticks *before* `d` within a
    /// timestep: the cycle-stepped loop would have `d` act on it at `t`
    /// itself if `d` has an edge there.
    ///
    /// No-op (returns 0) when `d` is not parked.
    pub fn wake_at_or_after(&mut self, d: usize, t: Fs) -> u64 {
        if !self.parked[d] {
            return 0;
        }
        self.parked[d] = false;
        self.alarms[d] = None;
        self.clocks[d].fast_forward_at_or_after(t)
    }

    /// Re-arms parked domain `d` at its first edge **strictly after** `t`,
    /// returning the number of edges skipped. Use when the work was
    /// produced by a domain that ticks *after* `d` (or at an unknown point
    /// of timestep `t`): the cycle-stepped loop would have `d` first see
    /// it on `d`'s next edge past `t`.
    ///
    /// No-op (returns 0) when `d` is not parked.
    pub fn wake_after(&mut self, d: usize, t: Fs) -> u64 {
        if !self.parked[d] {
            return 0;
        }
        self.parked[d] = false;
        self.alarms[d] = None;
        self.clocks[d].fast_forward_after(t)
    }

    /// Fast-forwards a parked domain's clock past `t` **without**
    /// re-arming it, returning the edges skipped. End-of-run accounting:
    /// per-cycle counters (idle channel energy, utilization denominators)
    /// must reflect idle stretches that were still in progress when the
    /// simulation finished. Never passes the domain's alarm: the edges
    /// from there on are the event's, not idle.
    pub fn catch_up_parked(&mut self, d: usize, t: Fs) -> u64 {
        if !self.parked[d] {
            return 0;
        }
        match self.alarms[d] {
            Some(a) if a <= t => self.clocks[d].fast_forward_at_or_after(a),
            _ => self.clocks[d].fast_forward_after(t),
        }
    }

    /// Overwrites domain `d`'s clock with one that has ticked exactly
    /// `cycles` edges (so `next_fs == cycles * period_fs`), re-arming the
    /// domain. Checkpoint-restore hook: the edge-grid invariant means a
    /// clock's whole state is `(period, cycles)`, so replaying `cycles`
    /// edges onto a fresh clock reconstructs it bit-identically.
    pub fn restore_clock(&mut self, d: usize, cycles: u64) {
        let period = self.clocks[d].period_fs();
        let mut fresh = Clock::new(period);
        fresh.fast_forward_at_or_after(cycles * period);
        debug_assert_eq!(fresh.cycles(), cycles);
        debug_assert!(fresh.edge_aligned());
        self.clocks[d] = fresh;
        self.parked[d] = false;
        self.alarms[d] = None;
    }

    /// Domains whose clocks have fallen off the `next_fs == cycles *
    /// period_fs` edge grid. Always empty unless a fast-forward or wake
    /// has a bug; the runtime sanitizer polls this after every timestep.
    pub fn misaligned(&self) -> Vec<usize> {
        self.clocks
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.edge_aligned())
            .map(|(d, _)| d)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calendar {
        // Periods 10 and 7 — coprime-ish so edges interleave.
        Calendar::new(vec![Clock::new(10), Clock::new(7)])
    }

    #[test]
    fn earliest_ignores_parked_domains() {
        let mut c = cal();
        assert_eq!(c.earliest(), Some(0));
        c.advance(0); // next edges: 10 and 0
        c.advance(1); // next edges: 10 and 7
        assert_eq!(c.earliest(), Some(7));
        c.park(1);
        assert_eq!(c.earliest(), Some(10));
        c.park(0);
        assert_eq!(c.earliest(), None, "all parked ⇒ quiesced");
    }

    #[test]
    fn wake_fast_forwards_and_counts_skips() {
        let mut c = cal();
        c.park(0);
        // Domain 0 parked at edge 0; work appears at t = 35 from a
        // later-priority producer ⇒ first edge strictly after 35 is 40,
        // skipping edges 0, 10, 20, 30.
        assert_eq!(c.wake_after(0, 35), 4);
        assert!(!c.is_parked(0));
        assert_eq!(c.clock(0).next_fs(), 40);
        assert_eq!(c.clock(0).cycles(), 4);
    }

    #[test]
    fn wake_at_or_after_keeps_a_coincident_edge() {
        let mut c = cal();
        c.park(0);
        // Work produced at t = 30 by an earlier-priority domain: domain 0
        // still gets to act at its own edge 30 within the same timestep.
        assert_eq!(c.wake_at_or_after(0, 30), 3);
        assert_eq!(c.clock(0).next_fs(), 30);
    }

    #[test]
    fn waking_an_armed_domain_is_a_no_op() {
        let mut c = cal();
        assert_eq!(c.wake_after(0, 100), 0);
        assert_eq!(c.wake_at_or_after(0, 100), 0);
        assert_eq!(c.clock(0).next_fs(), 0, "armed clock untouched");
    }

    #[test]
    fn fault_edge_inside_an_idle_window_wakes_on_the_exact_edge() {
        // The fault-injection protocol in miniature: domain 0 (period 10)
        // parks at edge 0 while domain 1 keeps the sim alive far in the
        // future. A fault timestamped t = 42 inside that idle window snaps
        // to domain 0's first edge at or after t (42.div_ceil(10) * 10 =
        // 50); the engine must wake domain 0 exactly there — not at
        // domain 1's next armed edge — with the clock invariant intact.
        let mut c = Calendar::new(vec![Clock::new(10), Clock::new(7_000)]);
        c.advance(1); // domain 1's next edge: 7 000 — the far end of the window
        c.park(0);
        assert_eq!(c.earliest(), Some(7_000), "armed domain 1 keeps time alive");

        let fault_at: Fs = 42;
        let period = c.clock(0).period_fs();
        let edge = fault_at.div_ceil(period) * period;
        assert_eq!(edge, 50);

        let skipped = c.wake_at_or_after(0, edge);
        assert!(!c.is_parked(0), "the fault woke the domain");
        assert_eq!(c.clock(0).next_fs(), edge, "woken on the fault edge");
        assert_eq!(skipped, 5, "edges 0..50 were idle no-ops");
        // The invariant a fast-forward must never break: the clock still
        // looks as if it ticked through every skipped edge.
        assert_eq!(
            c.clock(0).next_fs(),
            c.clock(0).cycles() * c.clock(0).period_fs()
        );
        // And the woken edge now drives the calendar, beating domain 1.
        assert_eq!(c.earliest(), Some(edge));
    }

    #[test]
    fn fault_edge_coinciding_with_park_point_is_not_skipped() {
        // Degenerate window: the fault lands on the very edge the domain
        // parked at. wake_at_or_after must keep that edge (skip nothing),
        // because the cycle-stepped reference applies the fault there.
        let mut c = cal();
        c.advance(0); // next edge 10
        c.park(0);
        assert_eq!(c.wake_at_or_after(0, 10), 0);
        assert_eq!(c.clock(0).next_fs(), 10);
        assert_eq!(
            c.clock(0).next_fs(),
            c.clock(0).cycles() * c.clock(0).period_fs()
        );
    }

    #[test]
    fn earliest_counts_a_parked_domains_alarm() {
        let mut c = cal();
        c.advance(1); // domain 1's next edge: 7
        c.park_until(0, 50);
        assert_eq!(c.alarm(0), Some(50));
        assert_eq!(c.earliest(), Some(7), "an armed edge before the alarm");
        c.park(1);
        assert_eq!(c.earliest(), Some(50), "the alarm keeps time alive");
        assert_eq!(c.wake_at_or_after(0, 50), 5, "woken on the alarm edge");
        assert_eq!((c.clock(0).next_fs(), c.alarm(0)), (50, None));
    }

    #[test]
    fn a_work_wake_before_the_alarm_lands_between_now_and_the_alarm() {
        for now in 0..50 {
            let mut c = cal();
            c.park_until(0, 50);
            c.wake_after(0, now);
            let next = c.clock(0).next_fs();
            assert!(
                now < next && next <= 50,
                "woken at {next} for work at {now}"
            );
            assert_eq!(c.alarm(0), None, "a wake clears the alarm");
        }
    }

    #[test]
    fn catch_up_never_passes_the_alarm() {
        let mut c = cal();
        c.park_until(0, 50);
        assert_eq!(c.catch_up_parked(0, 23), 3);
        assert_eq!(c.clock(0).next_fs(), 30);
        assert_eq!(c.catch_up_parked(0, 77), 2, "stops at the alarm");
        assert_eq!(c.clock(0).next_fs(), 50);
        assert!(c.is_parked(0) && c.alarm(0) == Some(50));
        assert!(c.misaligned().is_empty());
    }

    #[test]
    fn park_and_restore_clear_a_stale_alarm() {
        let mut c = cal();
        c.park_until(0, 50);
        c.restore_clock(0, 2);
        assert_eq!((c.is_parked(0), c.alarm(0)), (false, None));
        c.park(0);
        assert_eq!((c.alarm(0), c.earliest()), (None, Some(0)));
        c.wake_after(0, 0);
        c.park_until(0, 40);
        c.wake_at_or_after(0, 20);
        c.park(0);
        assert_eq!(c.alarm(0), None, "a plain park names no alarm");
    }

    #[test]
    fn misaligned_is_empty_through_park_wake_cycles() {
        let mut c = cal();
        assert!(c.misaligned().is_empty());
        c.advance(0);
        c.park(0);
        c.wake_after(0, 123);
        c.park(1);
        c.catch_up_parked(1, 456);
        assert!(c.misaligned().is_empty());
    }

    #[test]
    fn parked_then_woken_matches_stepping_through_idle_edges() {
        // The bit-identity property in miniature: a domain that parks and
        // wakes must end in the same clock state as one that no-op ticked
        // through the idle stretch.
        let mut fast = cal();
        let mut slow = cal();
        fast.park(0);
        fast.wake_at_or_after(0, 63);
        while slow.clock(0).next_fs() < 63 {
            slow.advance(0);
        }
        assert_eq!(fast.clock(0), slow.clock(0));
    }
}

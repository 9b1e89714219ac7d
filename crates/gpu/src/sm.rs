//! A streaming multiprocessor: CTA slots, LSU, and the private L1.
//!
//! Each SM hosts up to `ctas_per_sm` resident CTAs (Table I: 8). A resident
//! CTA alternates between compute intervals and memory instructions; a
//! memory instruction issues its (already coalesced) transactions through
//! the LSU into the write-through L1, and the CTA blocks until reads and
//! atomics return (writes are posted).

use crate::cache::{Cache, CacheStats, MshrResult, MshrTable};
use crate::kernel::{CtaCursor, CtaOp, KernelModel, MemAccess};
use memnet_common::config::CacheConfig;
use memnet_common::{AccessKind, SplitMix64};
use memnet_obs::{ClockDomain, TraceEventKind, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A memory request leaving the SM toward the GPU's shared L2.
#[derive(Debug, Clone, Copy)]
pub struct L2Req {
    /// Issuing SM (set by the GPU when draining).
    pub sm: u32,
    /// CTA slot, used to complete atomics.
    pub slot: u32,
    /// The transaction (reads are line-aligned).
    pub access: MemAccess,
}

#[derive(Debug)]
enum SlotState {
    /// No CTA resident.
    Empty,
    /// Ready to fetch the next op.
    Ready,
    /// Computing until the given core cycle.
    Computing(u64),
    /// Waiting for `n` outstanding transactions.
    WaitMem(u32),
}

#[derive(Debug)]
struct Slot {
    /// The resident CTA's place in its op stream (stale while `Empty`).
    cursor: CtaCursor,
    state: SlotState,
    /// Core cycle the CTA was installed (start of its lifecycle span).
    launched_at: u64,
}

/// Execution statistics for one SM.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmStats {
    /// CTAs retired.
    pub ctas_done: u64,
    /// Memory instructions executed.
    pub mem_instrs: u64,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    slots: Vec<Slot>,
    l1: Cache,
    l1_latency: u64,
    mshr: MshrTable,
    lsu_q: VecDeque<(u32, MemAccess)>,
    /// The transactions of the memory op being fetched, moved to `lsu_q`
    /// at once; reused, so it grows only to the widest op.
    op_accesses: Vec<MemAccess>,
    lsu_width: u32,
    /// Outbound queue drained by the GPU (bounded for backpressure).
    to_l2: VecDeque<L2Req>,
    to_l2_cap: usize,
    /// (cycle, slot) completion events for L1 hits and returned misses.
    completions: BinaryHeap<Reverse<(u64, u32)>>,
    /// Slots holding a CTA (every state but `Empty`).
    resident: u32,
    /// Earliest core cycle at which a tick can change state; until then
    /// a tick is a no-op. See [`Sm::tick_traced`].
    wake_at: u64,
    stats: SmStats,
}

impl Sm {
    /// Creates an SM with `ctas_per_sm` slots and the given L1.
    pub fn new(ctas_per_sm: u32, l1_cfg: &CacheConfig) -> Self {
        Sm {
            slots: (0..ctas_per_sm)
                .map(|_| Slot {
                    cursor: CtaCursor::new(0, SplitMix64::new(0)),
                    state: SlotState::Empty,
                    launched_at: 0,
                })
                .collect(),
            l1: Cache::new(l1_cfg),
            l1_latency: l1_cfg.latency_cycles as u64,
            mshr: MshrTable::new(l1_cfg.mshrs as usize),
            lsu_q: VecDeque::new(),
            op_accesses: Vec::new(),
            lsu_width: 2,
            to_l2: VecDeque::new(),
            to_l2_cap: 16,
            completions: BinaryHeap::new(),
            resident: 0,
            wake_at: u64::MAX,
            stats: SmStats::default(),
        }
    }

    /// True if a CTA slot is free.
    pub fn has_free_slot(&self) -> bool {
        self.resident < self.slot_count()
    }

    /// Installs a CTA, at its `cursor`, into a free slot at core cycle
    /// `now`. Retirement emits the CTA's lifecycle span from `now`, and
    /// [`Sm::fail_all`] hands the CTA back by index for re-execution on a
    /// survivor after the owning GPU is fault-injected dead.
    ///
    /// # Panics
    ///
    /// Panics if no slot is free.
    pub fn assign(&mut self, cursor: CtaCursor, now: u64) {
        #[allow(clippy::expect_used, reason = "documented panic: callers check has_free_slot()")]
        let slot = self
            .slots
            .iter_mut()
            .find(|s| matches!(s.state, SlotState::Empty))
            .expect("assign requires a free slot");
        slot.cursor = cursor;
        slot.state = SlotState::Ready;
        slot.launched_at = now;
        self.resident += 1;
        self.wake_at = 0;
    }

    /// Fault injection: aborts every resident CTA and drops all in-flight
    /// SM state (LSU queue, outbound requests, completions, MSHRs).
    /// Returns the indices of the aborted CTAs for from-scratch
    /// re-execution on surviving devices. Aborted CTAs never count as
    /// retired.
    pub fn fail_all(&mut self) -> Vec<u32> {
        let mut orphans = Vec::new();
        for slot in &mut self.slots {
            if !matches!(slot.state, SlotState::Empty) {
                orphans.push(slot.cursor.cta);
                slot.state = SlotState::Empty;
            }
        }
        self.lsu_q.clear();
        self.to_l2.clear();
        self.completions.clear();
        self.mshr.clear();
        self.resident = 0;
        self.wake_at = u64::MAX;
        orphans
    }

    /// Number of slots currently holding a CTA (occupancy numerator).
    pub fn resident_ctas(&self) -> u32 {
        self.resident
    }

    /// Total CTA slots (occupancy denominator).
    #[allow(clippy::cast_possible_truncation, reason = "the slot count is a u32 config field")]
    pub fn slot_count(&self) -> u32 {
        self.slots.len() as u32
    }

    /// True while any CTA is resident or transactions are outstanding.
    pub fn busy(&self) -> bool {
        !self.lsu_q.is_empty()
            || !self.to_l2.is_empty()
            || !self.completions.is_empty()
            || !self.mshr.is_empty()
            || self.resident > 0
    }

    /// The earliest core cycle at which a tick can change state.
    #[inline]
    pub(crate) fn wake_at(&self) -> u64 {
        self.wake_at
    }

    /// True while a request waits for the GPU to drain it to the L2.
    #[inline]
    pub(crate) fn has_output(&self) -> bool {
        !self.to_l2.is_empty()
    }

    /// Pops one outbound request for the L2, if present.
    pub fn pop_to_l2(&mut self) -> Option<L2Req> {
        self.to_l2.pop_front()
    }

    /// Completes one outstanding transaction of `slot` at `cycle`.
    pub fn schedule_completion(&mut self, slot: u32, cycle: u64) {
        self.completions.push(Reverse((cycle, slot)));
        self.wake_at = self.wake_at.min(cycle);
    }

    /// A refill for `line` arrived from the L2: fill the L1 and release all
    /// merged waiters at `cycle`.
    pub fn refill(&mut self, line: u64, cycle: u64) {
        self.l1.fill(line);
        let mut waiters = self.mshr.complete(line);
        for slot in waiters.drain(..) {
            self.schedule_completion(slot, cycle);
        }
        self.mshr.recycle(waiters);
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// Execution statistics.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// Advances the SM by one core cycle; its resident CTAs run `kernel`.
    pub fn tick(&mut self, now: u64, kernel: &dyn KernelModel) {
        self.tick_traced(now, kernel, 0, 0, None);
    }

    /// [`Sm::tick`] with optional tracing. The SM holds no identity of its
    /// own, so the caller passes its `(gpu, sm)` coordinates for the
    /// CTA-retire spans.
    ///
    /// Most ticks of a memory-bound kernel find every resident CTA
    /// waiting, so the SM sleeps: each full tick ends by recording in
    /// `wake_at` the earliest cycle at which the next one could change
    /// state, and ticks before it are no-ops, so the owning GPU skips
    /// them. What can change state is a queued LSU access (issues, or
    /// re-probes the L1 on a structural stall: every cycle), a due
    /// completion, or a compute interval running out; everything that
    /// adds one of those from outside a tick ([`Sm::assign`],
    /// [`Sm::schedule_completion`], [`Sm::refill`]) lowers `wake_at` to
    /// match.
    pub fn tick_traced(
        &mut self,
        now: u64,
        kernel: &dyn KernelModel,
        gpu: u16,
        sm: u32,
        mut tracer: Option<&mut Tracer>,
    ) {
        if now < self.wake_at {
            debug_assert!(self.nothing_due(now), "SM slept through work at {now}");
            return;
        }

        // 1. Deliver due completions.
        while let Some(&Reverse((c, slot))) = self.completions.peek() {
            if c > now {
                break;
            }
            self.completions.pop();
            if let SlotState::WaitMem(n) = self.slots[slot as usize].state {
                self.slots[slot as usize].state = if n <= 1 {
                    SlotState::Ready
                } else {
                    SlotState::WaitMem(n - 1)
                };
            } else {
                debug_assert!(false, "completion for a slot not waiting on memory");
            }
        }

        // 2. LSU issue.
        for _ in 0..self.lsu_width {
            let Some(&(slot, access)) = self.lsu_q.front() else {
                break;
            };
            if !self.issue_access(slot, access, now) {
                break; // structural stall: retry next cycle
            }
            self.lsu_q.pop_front();
        }

        // 3. Advance ready slots.
        let mut wake = u64::MAX;
        #[allow(clippy::cast_possible_truncation, reason = "slot and access counts fit u32")]
        for i in 0..self.slots.len() {
            loop {
                match self.slots[i].state {
                    SlotState::Computing(until) if until <= now => {
                        // Fetches its next op on the following tick.
                        self.slots[i].state = SlotState::Ready;
                        wake = now + 1;
                    }
                    SlotState::Computing(until) => wake = wake.min(until),
                    SlotState::Ready => {
                        match kernel.next_op(&mut self.slots[i].cursor, &mut self.op_accesses) {
                            None => {
                                self.slots[i].state = SlotState::Empty;
                                self.resident -= 1;
                                self.stats.ctas_done += 1;
                                if let Some(tr) = tracer.as_deref_mut() {
                                    let start = self.slots[i].launched_at;
                                    tr.emit(
                                        ClockDomain::Core,
                                        start,
                                        now - start,
                                        TraceEventKind::CtaRetire {
                                            gpu,
                                            sm,
                                            cta: u64::from(self.slots[i].cursor.cta),
                                        },
                                    );
                                }
                            }
                            Some(CtaOp::Compute(c)) => {
                                self.slots[i].state = SlotState::Computing(now + c.max(1) as u64);
                            }
                            Some(CtaOp::Mem) => {
                                let n = self.op_accesses.len();
                                assert!(n > 0, "memory op needs ≥1 transaction");
                                self.stats.mem_instrs += 1;
                                self.slots[i].state = SlotState::WaitMem(n as u32);
                                let slot = i as u32;
                                self.lsu_q
                                    .extend(self.op_accesses.drain(..).map(|a| (slot, a)));
                            }
                        }
                        continue; // a retired CTA frees the slot this cycle
                    }
                    _ => {}
                }
                break;
            }
        }

        self.wake_at = if !self.lsu_q.is_empty() {
            now + 1
        } else if let Some(&Reverse((c, _))) = self.completions.peek() {
            wake.min(c)
        } else {
            wake
        };
    }

    /// The sleeping branch's full no-op predicate: a tick at `now` would
    /// deliver nothing, issue nothing and advance no slot.
    pub(crate) fn nothing_due(&self, now: u64) -> bool {
        self.lsu_q.is_empty()
            && self
                .completions
                .peek()
                .is_none_or(|&Reverse((c, _))| c > now)
            && self.slots.iter().all(|s| match s.state {
                SlotState::Ready => false,
                SlotState::Computing(until) => until > now,
                SlotState::Empty | SlotState::WaitMem(_) => true,
            })
    }

    /// Tries to issue one transaction into the L1/L2 path; `false` on a
    /// structural stall (MSHR or outbound queue full).
    fn issue_access(&mut self, slot: u32, access: MemAccess, now: u64) -> bool {
        match access.kind {
            AccessKind::Read => {
                if self.l1.read(access.addr) {
                    self.completions
                        .push(Reverse((now + self.l1_latency, slot)));
                    return true;
                }
                let line = self.l1.line_addr(access.addr);
                if self.to_l2.len() >= self.to_l2_cap {
                    return false;
                }
                match self.mshr.allocate(line, slot) {
                    MshrResult::Merged => true,
                    MshrResult::Full => false,
                    MshrResult::Allocated => {
                        self.to_l2.push_back(L2Req {
                            sm: 0,
                            slot,
                            access: MemAccess {
                                addr: line,
                                bytes: 128,
                                kind: AccessKind::Read,
                            },
                        });
                        true
                    }
                }
            }
            AccessKind::Write => {
                if self.to_l2.len() >= self.to_l2_cap {
                    return false;
                }
                self.l1.write(access.addr);
                self.to_l2.push_back(L2Req {
                    sm: 0,
                    slot,
                    access,
                });
                // Posted write: completes once accepted.
                self.completions.push(Reverse((now + 1, slot)));
                true
            }
            AccessKind::Atomic => {
                if self.to_l2.len() >= self.to_l2_cap {
                    return false;
                }
                // Atomics evict the line and execute at the HMC (§III-D).
                self.l1.invalidate(access.addr);
                self.to_l2.push_back(L2Req {
                    sm: 0,
                    slot,
                    access,
                });
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::StreamKernel;
    use memnet_common::SystemConfig;

    fn sm() -> Sm {
        let cfg = SystemConfig::paper().gpu;
        Sm::new(cfg.ctas_per_sm, &cfg.l1)
    }

    /// A kernel whose every CTA runs the same ops, one transaction per
    /// memory op.
    struct Script(Vec<Step>);

    enum Step {
        Compute(u32),
        Mem(MemAccess),
    }

    impl KernelModel for Script {
        fn cursor(&self, cta: u32) -> CtaCursor {
            CtaCursor::new(cta, SplitMix64::new(0))
        }

        fn next_op(&self, cur: &mut CtaCursor, accesses: &mut Vec<MemAccess>) -> Option<CtaOp> {
            let step = self.0.get(cur.step as usize)?;
            cur.step += 1;
            Some(match *step {
                Step::Compute(c) => CtaOp::Compute(c),
                Step::Mem(a) => {
                    accesses.push(a);
                    CtaOp::Mem
                }
            })
        }
    }

    /// Runs the SM standalone, answering every L2 request after `mem_lat`
    /// cycles. Returns cycles until idle.
    fn run_standalone(sm: &mut Sm, k: &dyn KernelModel, mem_lat: u64, max: u64) -> u64 {
        let mut pending: Vec<(u64, L2Req)> = Vec::new();
        let mut now = 0;
        while sm.busy() && now < max {
            sm.tick(now, k);
            while let Some(r) = sm.pop_to_l2() {
                pending.push((now + mem_lat, r));
            }
            let due: Vec<L2Req> = pending
                .iter()
                .filter(|(t, _)| *t <= now)
                .map(|&(_, r)| r)
                .collect();
            pending.retain(|(t, _)| *t > now);
            for r in due {
                match r.access.kind {
                    AccessKind::Read => sm.refill(r.access.addr, now),
                    AccessKind::Atomic => sm.schedule_completion(r.slot, now),
                    AccessKind::Write => {}
                }
            }
            now += 1;
        }
        assert!(!sm.busy(), "SM must drain");
        now
    }

    #[test]
    fn single_cta_completes() {
        let mut s = sm();
        let k = StreamKernel {
            ctas: 1,
            rounds: 5,
            gap: 4,
        };
        s.assign(k.cursor(0), 0);
        run_standalone(&mut s, &k, 50, 100_000);
        assert_eq!(s.stats().ctas_done, 1);
        assert_eq!(s.stats().mem_instrs, 5);
    }

    #[test]
    fn eight_ctas_fill_slots_and_all_retire() {
        let mut s = sm();
        let k = StreamKernel {
            ctas: 8,
            rounds: 3,
            gap: 2,
        };
        for c in 0..8 {
            s.assign(k.cursor(c), 0);
        }
        assert!(!s.has_free_slot());
        run_standalone(&mut s, &k, 30, 100_000);
        assert_eq!(s.stats().ctas_done, 8);
        assert!(s.has_free_slot());
    }

    #[test]
    fn l1_reuse_hits() {
        let mut s = sm();
        // Two CTAs read the same line repeatedly.
        let k = Script(
            (0..10)
                .map(|_| Step::Mem(MemAccess::read(0x1000)))
                .collect(),
        );
        s.assign(k.cursor(0), 0);
        s.assign(k.cursor(1), 0);
        run_standalone(&mut s, &k, 40, 100_000);
        let st = s.l1_stats();
        assert!(st.read_hits > 10, "repeated reads should hit: {st:?}");
    }

    #[test]
    fn memory_latency_slows_execution() {
        let k = StreamKernel {
            ctas: 1,
            rounds: 10,
            gap: 1,
        };
        let mut fast = sm();
        fast.assign(k.cursor(0), 0);
        let t_fast = run_standalone(&mut fast, &k, 10, 1_000_000);
        let mut slow = sm();
        slow.assign(k.cursor(0), 0);
        let t_slow = run_standalone(&mut slow, &k, 500, 1_000_000);
        assert!(t_slow > t_fast + 1000, "fast {t_fast} slow {t_slow}");
    }

    #[test]
    fn multiple_ctas_overlap_memory_latency() {
        // With long memory latency, 4 CTAs should take much less than 4×
        // one CTA's time (latency hiding).
        let k = StreamKernel {
            ctas: 4,
            rounds: 8,
            gap: 1,
        };
        let mut one = sm();
        one.assign(k.cursor(0), 0);
        let t1 = run_standalone(&mut one, &k, 200, 1_000_000);
        let mut four = sm();
        for c in 0..4 {
            four.assign(k.cursor(c), 0);
        }
        let t4 = run_standalone(&mut four, &k, 200, 1_000_000);
        assert!(t4 < 2 * t1, "one-CTA {t1}, four-CTA {t4}");
    }

    #[test]
    fn writes_are_posted() {
        let mut s = sm();
        let k = Script(
            (0..5)
                .map(|i| Step::Mem(MemAccess::write(i * 128)))
                .collect(),
        );
        s.assign(k.cursor(0), 0);
        // Never answer writes; the SM must still drain.
        let mut now = 0;
        while s.busy() && now < 10_000 {
            s.tick(now, &k);
            while s.pop_to_l2().is_some() {}
            now += 1;
        }
        assert!(!s.busy(), "posted writes must not block CTA retirement");
    }

    #[test]
    fn atomic_waits_for_response() {
        let mut s = sm();
        let k = Script(vec![Step::Mem(MemAccess::atomic(0x40))]);
        s.assign(k.cursor(0), 0);
        let mut got_req = None;
        for now in 0..100 {
            s.tick(now, &k);
            if let Some(r) = s.pop_to_l2() {
                got_req = Some(r);
            }
        }
        let r = got_req.expect("atomic must be forwarded");
        assert_eq!(r.access.kind, AccessKind::Atomic);
        assert!(s.busy(), "atomic must block until response");
        s.schedule_completion(r.slot, 100);
        for now in 100..200 {
            s.tick(now, &k);
        }
        assert!(!s.busy());
    }

    #[test]
    fn long_compute_then_miss_retires_on_the_expected_cycle() {
        // One CTA: Compute(100), then one read that misses the L1 and is
        // refilled 50 cycles after it leaves the SM. Cycle by cycle:
        //   0        Ready -> Compute -> Computing(100)
        //   1..=99   nothing due (the SM sleeps)
        //   100      compute interval over -> Ready
        //   101      Ready -> Mem -> WaitMem(1), access queued on the LSU
        //   102      LSU issues: L1 miss, request leaves for the L2
        //   103..=152 waiting; the refill lands after tick 152
        //   153      completion delivered -> Ready -> stream ends: retire
        let mut s = sm();
        let k = Script(vec![Step::Compute(100), Step::Mem(MemAccess::read(0x1000))]);
        s.assign(k.cursor(0), 0);
        let mut left_at = None;
        let mut retired_at = None;
        let mut awake = Vec::new();
        for now in 0..200u64 {
            if now >= s.wake_at {
                awake.push(now);
            }
            s.tick(now, &k);
            if let Some(r) = s.pop_to_l2() {
                assert_eq!(left_at.replace(now), None, "one request only");
                assert_eq!(r.access.addr, 0x1000);
            }
            if left_at.is_some_and(|t| t + 50 == now) {
                s.refill(0x1000, now);
            }
            if retired_at.is_none() && s.stats().ctas_done == 1 {
                retired_at = Some(now);
            }
        }
        assert_eq!(left_at, Some(102));
        assert_eq!(retired_at, Some(153));
        assert_eq!(awake, [0, 100, 101, 102, 153], "asleep on every other tick");
        assert_eq!(s.stats().mem_instrs, 1);
        assert!(!s.busy());
    }

    #[test]
    fn fail_all_returns_resident_ctas_and_clears_state() {
        let mut s = sm();
        let k = StreamKernel {
            ctas: 4,
            rounds: 8,
            gap: 2,
        };
        for c in 0..3 {
            s.assign(k.cursor(c), 0);
        }
        // Get some transactions in flight before the failure.
        for now in 0..20 {
            s.tick(now, &k);
        }
        assert!(s.busy());
        let orphans = s.fail_all();
        let mut tags = orphans;
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1, 2], "all resident CTAs handed back");
        assert!(!s.busy(), "failed SM holds no residual work");
        assert_eq!(s.stats().ctas_done, 0, "aborted CTAs never retire");
    }

    #[test]
    #[should_panic(expected = "free slot")]
    fn assign_without_free_slot_panics() {
        let mut s = sm();
        let k = StreamKernel {
            ctas: 16,
            rounds: 1,
            gap: 1,
        };
        for c in 0..9 {
            s.assign(k.cursor(c), 0); // 9th overflows the 8 slots
        }
    }
}

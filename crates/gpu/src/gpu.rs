//! One discrete GPU: SMs, the shared write-through L2, the SM↔L2 crossbar,
//! and the memory port feeding the HMC channels.
//!
//! The GPU runs in *virtual* addresses; the SKE runtime translates at the
//! memory-port boundary (Section III-C). Clock domains (Table I: core
//! 1400 MHz, L2 700 MHz) are driven externally: the engine calls
//! [`Gpu::tick_core`] at core frequency and [`Gpu::tick_l2`] at L2
//! frequency.

use crate::cache::{Cache, CacheStats, MshrResult, MshrTable};
use crate::kernel::KernelModel;
use crate::sm::{L2Req, Sm, SmStats};
use memnet_common::config::GpuConfig;
use memnet_common::{AccessKind, Agent, GpuId, MemReq, MemResp, ReqId};
use memnet_obs::json::{Fields, JsonValue, Snap};
use memnet_obs::{ClockDomain, TraceEventKind, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Aggregate GPU statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuStats {
    /// Merged L1 statistics over all SMs.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Memory requests sent off-chip.
    pub mem_reqs: u64,
    /// CTAs retired.
    pub ctas_done: u64,
    /// Memory instructions executed.
    pub mem_instrs: u64,
}

/// One discrete GPU device.
pub struct Gpu {
    id: GpuId,
    sms: Vec<Sm>,
    l2: Cache,
    l2_mshr: MshrTable,
    /// (ready core cycle, request) — crossbar-delayed SM→L2 traffic.
    l2_in: VecDeque<(u64, L2Req)>,
    l2_in_cap: usize,
    l2_banks: u32,
    xbar_latency: u64,
    /// Off-chip requests awaiting the memory port (virtual addresses).
    mem_out: VecDeque<MemReq>,
    mem_out_cap: usize,
    /// The `(sm, slot)` each outstanding atomic completes. A read
    /// response needs no route: it carries its line, which keys the L2
    /// MSHR that holds its waiters.
    resp_routes: BTreeMap<ReqId, (u32, u32)>,
    next_req: u64,
    /// The kernel installed by [`Gpu::launch`]; every CTA this GPU runs,
    /// queued or resident, is one of its grid.
    kernel: Option<Arc<dyn KernelModel>>,
    /// CTAs assigned by the SKE runtime, not yet dispatched.
    pending_ctas: VecDeque<u32>,
    core_cycle: u64,
    /// A lower bound on every SM's wake cycle: before it, and with no CTA
    /// to dispatch and no SM output to drain, a core tick only counts the
    /// cycle. Recomputed by every full tick, lowered by every refill and
    /// completion handed to an SM from outside one.
    sm_wake: u64,
    /// True while some SM may hold output for the L2.
    sm_output: bool,
    mem_reqs: u64,
    // O(1) mirror of `busy()`: refreshed by a full scan at the end of
    // every tick, forced true by external work arrivals. The engine polls
    // the idle signal once or twice per timestep, which must not cost a
    // per-SM scan on an idle GPU.
    busy_cache: bool,
    /// Fault injection: a dead GPU ticks as a no-op, accepts no launches,
    /// and drops incoming responses.
    dead: bool,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("id", &self.id)
            .field("sms", &self.sms.len())
            .field("pending_ctas", &self.pending_ctas.len())
            .field("core_cycle", &self.core_cycle)
            .finish()
    }
}

impl Gpu {
    /// Creates a GPU per the configuration.
    pub fn new(id: GpuId, cfg: &GpuConfig) -> Self {
        Gpu {
            id,
            sms: (0..cfg.n_sms)
                .map(|_| Sm::new(cfg.ctas_per_sm, &cfg.l1))
                .collect(),
            l2: Cache::new(&cfg.l2),
            l2_mshr: MshrTable::new(cfg.l2.mshrs as usize),
            l2_in: VecDeque::new(),
            l2_in_cap: 8 * cfg.n_sms as usize,
            l2_banks: cfg.l2_banks,
            xbar_latency: cfg.xbar_latency as u64,
            mem_out: VecDeque::new(),
            mem_out_cap: 64,
            resp_routes: BTreeMap::new(),
            next_req: 0,
            kernel: None,
            pending_ctas: VecDeque::new(),
            core_cycle: 0,
            sm_wake: u64::MAX,
            sm_output: false,
            mem_reqs: 0,
            busy_cache: false,
            dead: false,
        }
    }

    /// Fault injection: kills this GPU. Every undispatched and resident
    /// CTA index is returned so the SKE runtime can re-execute them from
    /// scratch on surviving devices; all in-flight internal state
    /// (crossbar, memory port, response routes, MSHRs) is dropped.
    /// Afterward the GPU ticks as a no-op, reports idle, and drops any
    /// response still routed to it.
    pub fn fail(&mut self) -> Vec<u32> {
        let mut orphans: Vec<u32> = self.pending_ctas.drain(..).collect();
        for sm in &mut self.sms {
            orphans.extend(sm.fail_all());
        }
        self.l2_in.clear();
        self.mem_out.clear();
        self.resp_routes.clear();
        self.l2_mshr.clear();
        self.dead = true;
        self.busy_cache = false;
        orphans
    }

    /// True after [`Gpu::fail`].
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// This GPU's id.
    pub fn id(&self) -> GpuId {
        self.id
    }

    /// Installs the kernel and the CTA indices this GPU will run (the SKE
    /// launch command of Fig. 5, with its CTA range information). A run
    /// launches one kernel: a later launch replaces the kernel for every
    /// CTA not yet dispatched.
    pub fn launch(&mut self, model: Arc<dyn KernelModel>, ctas: impl IntoIterator<Item = u32>) {
        debug_assert!(!self.dead, "launch on a failed GPU");
        self.kernel = Some(model);
        self.pending_ctas.extend(ctas);
        self.busy_cache = true;
    }

    /// CTAs assigned but not yet dispatched to an SM (stealable).
    pub fn pending_ctas(&self) -> usize {
        self.pending_ctas.len()
    }

    /// Removes up to `n` undispatched CTAs from the tail of the queue (CTA
    /// stealing, Section III-B).
    pub fn steal(&mut self, n: usize) -> Vec<u32> {
        let take = n.min(self.pending_ctas.len());
        let at = self.pending_ctas.len() - take;
        self.pending_ctas.split_off(at).into()
    }

    /// Adds stolen or orphaned CTAs of the launched kernel to this GPU's
    /// queue.
    pub fn donate(&mut self, ctas: Vec<u32>) {
        debug_assert!(
            ctas.is_empty() || (!self.dead && self.kernel.is_some()),
            "donating CTAs to a failed GPU or one without the kernel"
        );
        if !ctas.is_empty() {
            self.busy_cache = true;
        }
        self.pending_ctas.extend(ctas);
    }

    /// Fraction of CTA slots across all SMs currently holding a resident
    /// CTA (the SM-occupancy gauge sampled by metrics epochs).
    pub fn occupancy(&self) -> f64 {
        let slots: u32 = self.sms.iter().map(Sm::slot_count).sum();
        if slots == 0 {
            return 0.0;
        }
        let resident: u32 = self.sms.iter().map(Sm::resident_ctas).sum();
        resident as f64 / slots as f64
    }

    /// True while any CTA or memory transaction is unfinished.
    pub fn busy(&self) -> bool {
        !self.pending_ctas.is_empty()
            || !self.l2_in.is_empty()
            || !self.mem_out.is_empty()
            || !self.l2_mshr.is_empty()
            || !self.resp_routes.is_empty()
            || self.sms.iter().any(Sm::busy)
    }

    /// True when ticking this GPU would be a no-op (the idle signal the
    /// event-driven engine uses to park the core and L2 clock domains).
    ///
    /// Answered in O(1) from the cached flag rather than [`Gpu::busy`]'s
    /// per-SM scan. The flag can lag conservatively on the busy side
    /// (e.g. right after a steal empties the pending queue), which at
    /// worst delays a park by one tick; it can never report idle while
    /// work is outstanding.
    #[inline]
    pub fn is_idle(&self) -> bool {
        !self.busy_cache
    }

    /// Advances the core-cycle counter over `cycles` core ticks the GPU
    /// spent idle, without executing them. The event-driven engine calls
    /// this when it wakes a parked core domain — the GPU may already hold
    /// the work that triggered the wake, but the caller guarantees every
    /// *skipped* edge would have been a no-op — so timestamps derived
    /// from `core_cycle` (crossbar-latency release times, trace instants)
    /// match a run that no-op ticked through the same stretch.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        self.core_cycle += cycles;
    }

    /// One core-clock cycle: SMs execute; CTA dispatch; SM→L2 drain.
    pub fn tick_core(&mut self) {
        self.tick_core_traced(None);
    }

    /// [`Gpu::tick_core`] with optional tracing of the CTA lifecycle
    /// (launch instants at dispatch, retire spans from the SMs). Only the
    /// SMs that are due tick; the rest would be no-ops.
    pub fn tick_core_traced(&mut self, mut tracer: Option<&mut Tracer>) {
        if self.dead {
            // A failed GPU's clock still runs (the silicon is dead, the
            // domain isn't); keeping the cycle count moving matches the
            // idle fast-forward of the event-driven engine.
            self.core_cycle += 1;
            return;
        }
        let now = self.core_cycle;
        // With no CTA to dispatch, no output to drain and every SM asleep,
        // or before the first launch (no SM holds a CTA), a tick only
        // counts the cycle.
        let kernel = match self.kernel.as_deref() {
            Some(k) if now >= self.sm_wake || !self.pending_ctas.is_empty() || self.sm_output => k,
            _ => {
                debug_assert!(
                    self.sms.iter().all(|s| s.nothing_due(now)),
                    "an SM slept through work at {now}"
                );
                self.core_cycle += 1;
                self.busy_cache = self.busy();
                return;
            }
        };
        let (mut wake, mut output) = (u64::MAX, false);
        #[allow(clippy::cast_possible_truncation, reason = "i < sms_per_gpu, a u32")]
        for i in 0..self.sms.len() {
            // Dispatch pending CTAs into free slots.
            while self.sms[i].has_free_slot() {
                let Some(cta) = self.pending_ctas.pop_front() else {
                    break;
                };
                self.sms[i].assign(kernel.cursor(cta), now);
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.emit_instant(
                        ClockDomain::Core,
                        now,
                        TraceEventKind::CtaLaunch {
                            gpu: self.id.0,
                            sm: i as u32,
                            cta: cta as u64,
                        },
                    );
                }
            }
            let sm = &mut self.sms[i];
            if now >= sm.wake_at() {
                sm.tick_traced(now, kernel, self.id.0, i as u32, tracer.as_deref_mut());
            } else {
                debug_assert!(sm.nothing_due(now), "SM {i} slept through work at {now}");
            }
            // Drain SM output into the crossbar (bounded).
            while self.l2_in.len() < self.l2_in_cap {
                match sm.pop_to_l2() {
                    Some(mut r) => {
                        r.sm = i as u32;
                        self.l2_in.push_back((now + self.xbar_latency, r));
                    }
                    None => break,
                }
            }
            wake = wake.min(sm.wake_at());
            output |= sm.has_output();
        }
        (self.sm_wake, self.sm_output) = (wake, output);
        self.core_cycle += 1;
        self.busy_cache = self.busy();
    }

    /// One L2-clock cycle: services up to `l2_banks` requests.
    pub fn tick_l2(&mut self) {
        if self.dead {
            return;
        }
        let now = self.core_cycle;
        for _ in 0..self.l2_banks {
            let Some(&(ready, req)) = self.l2_in.front() else {
                break;
            };
            if ready > now {
                break;
            }
            if !self.service_l2(req, now) {
                break; // structural stall (MSHR or memory port full)
            }
            self.l2_in.pop_front();
        }
        self.busy_cache = self.busy();
    }

    /// Services one request at the L2; `false` on structural stall.
    fn service_l2(&mut self, req: L2Req, now: u64) -> bool {
        match req.access.kind {
            AccessKind::Read => {
                let line = self.l2.line_addr(req.access.addr);
                // Probe without double-counting stats on a stalled retry:
                // stats are counted inside Cache; a retry re-probes, which
                // slightly overcounts misses only when stalled.
                if self.l2.read(req.access.addr) {
                    let at = now + self.xbar_latency;
                    self.sms[req.sm as usize].refill(line, at);
                    self.sm_wake = self.sm_wake.min(at);
                    return true;
                }
                if self.mem_out.len() >= self.mem_out_cap {
                    return false;
                }
                match self.l2_mshr.allocate(line, req.sm) {
                    MshrResult::Merged => true,
                    MshrResult::Full => false,
                    MshrResult::Allocated => {
                        let id = self.alloc_req();
                        self.push_mem_req(MemReq {
                            id,
                            addr: line,
                            bytes: 128,
                            kind: AccessKind::Read,
                            src: Agent::Gpu(self.id),
                        });
                        true
                    }
                }
            }
            AccessKind::Write => {
                if self.mem_out.len() >= self.mem_out_cap {
                    return false;
                }
                self.l2.write(req.access.addr);
                let id = self.alloc_req();
                self.push_mem_req(MemReq {
                    id,
                    addr: req.access.addr,
                    bytes: req.access.bytes,
                    kind: AccessKind::Write,
                    src: Agent::Gpu(self.id),
                });
                true
            }
            AccessKind::Atomic => {
                if self.mem_out.len() >= self.mem_out_cap {
                    return false;
                }
                self.l2.invalidate(req.access.addr);
                let id = self.alloc_req();
                self.resp_routes.insert(id, (req.sm, req.slot));
                self.push_mem_req(MemReq {
                    id,
                    addr: req.access.addr,
                    bytes: req.access.bytes,
                    kind: AccessKind::Atomic,
                    src: Agent::Gpu(self.id),
                });
                true
            }
        }
    }

    fn alloc_req(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(((self.id.0 as u64) << 48) | self.next_req)
    }

    fn push_mem_req(&mut self, req: MemReq) {
        self.mem_reqs += 1;
        self.mem_out.push_back(req);
    }

    /// Takes one off-chip request (virtual address) for the memory port.
    pub fn pop_mem_request(&mut self) -> Option<MemReq> {
        self.mem_out.pop_front()
    }

    /// Peeks whether an off-chip request is waiting.
    pub fn has_mem_request(&self) -> bool {
        !self.mem_out.is_empty()
    }

    /// Delivers a memory response (read data or atomic result). A read
    /// response echoes its request's line, which completes that line's
    /// L2 MSHR entry.
    ///
    /// Write acknowledgements need not be delivered (writes are posted).
    pub fn push_mem_response(&mut self, resp: MemResp) {
        if self.dead {
            // Responses racing a GPU failure have nowhere to land; the
            // system accounts them as failed requests.
            return;
        }
        self.busy_cache = true;
        let at = self.core_cycle + self.xbar_latency;
        match resp.kind {
            AccessKind::Read => {
                self.l2.fill(resp.addr);
                let mut waiters = self.l2_mshr.complete(resp.addr);
                waiters.dedup();
                for sm in waiters.drain(..) {
                    self.sms[sm as usize].refill(resp.addr, at);
                }
                self.l2_mshr.recycle(waiters);
            }
            AccessKind::Atomic => {
                let Some((sm, slot)) = self.resp_routes.remove(&resp.id) else {
                    debug_assert!(false, "atomic response {resp:?} with no route");
                    return;
                };
                self.sms[sm as usize].schedule_completion(slot, at);
            }
            AccessKind::Write => return,
        }
        self.sm_wake = self.sm_wake.min(at);
    }

    /// The snapshot record. Only valid at a quiescent phase boundary: no
    /// pending CTAs, no in-flight requests, no crossbar traffic —
    /// everything transient must have drained. SM-internal state
    /// (resident CTAs, L1 contents) is absent: a quiescent GPU has none.
    ///
    /// # Panics
    ///
    /// Panics if the GPU still holds in-flight work.
    pub fn snapshot(&self) -> JsonValue {
        assert!(
            !self.busy(),
            "GPU snapshot requires a quiescent phase boundary"
        );
        JsonValue::object([
            ("dead", self.dead.snap()),
            ("core_cycle", self.core_cycle.snap()),
            ("next_req", self.next_req.snap()),
            ("mem_reqs", self.mem_reqs.snap()),
            ("l2", self.l2.snapshot()),
        ])
    }

    /// This GPU, fresh from [`Gpu::new`], holding a [`Gpu::snapshot`]
    /// record taken on an identically configured GPU at a quiescent
    /// boundary. `core_cycle` is the core clock's restored cycle, which a
    /// GPU's own count equals there.
    ///
    /// # Errors
    ///
    /// Refuses a mistyped field, a core cycle off the clock, a request
    /// sequence past [`ReqId::MAX_SEQ`], and an L2 the cache refuses (see
    /// [`Cache::restored`]).
    pub fn restored(mut self, f: &Fields, core_cycle: u64) -> Result<Self, String> {
        self.dead = f.get("dead")?;
        let cycle = f.req("core_cycle")?;
        if cycle.uint_str()? != core_cycle {
            let path = cycle.path();
            return Err(format!(
                "field '{path}' is not the core clock's cycle {core_cycle}"
            ));
        }
        self.core_cycle = core_cycle;
        self.next_req = f.req("next_req")?.uint_str_to(ReqId::MAX_SEQ)?;
        self.mem_reqs = f.get("mem_reqs")?;
        self.l2 = f.req("l2")?.record(|c| self.l2.restored(c))?;
        Ok(self)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> GpuStats {
        let mut s = GpuStats {
            l2: self.l2.stats(),
            mem_reqs: self.mem_reqs,
            ..Default::default()
        };
        for sm in &self.sms {
            s.l1.merge(&sm.l1_stats());
            let SmStats {
                ctas_done,
                mem_instrs,
                ..
            } = sm.stats();
            s.ctas_done += ctas_done;
            s.mem_instrs += mem_instrs;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{CtaCursor, CtaOp, MemAccess, StreamKernel};
    use memnet_common::{SplitMix64, SystemConfig};

    fn gpu(n_sms: u32) -> Gpu {
        let mut cfg = SystemConfig::paper().gpu;
        cfg.n_sms = n_sms;
        Gpu::new(GpuId(0), &cfg)
    }

    /// Runs a GPU standalone with a flat-latency memory behind it.
    fn run(g: &mut Gpu, mem_lat: u64, max_cycles: u64) -> u64 {
        let mut pending: VecDeque<(u64, MemReq)> = VecDeque::new();
        let mut l2_tick = 0u64;
        let mut now = 0u64;
        while g.busy() && now < max_cycles {
            g.tick_core();
            // L2 at half the core clock (700 vs 1400 MHz).
            if now.is_multiple_of(2) {
                g.tick_l2();
                l2_tick += 1;
            }
            while let Some(r) = g.pop_mem_request() {
                pending.push_back((now + mem_lat, r));
            }
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                let (_, r) = pending.pop_front().expect("nonempty");
                if r.kind != AccessKind::Write {
                    g.push_mem_response(r.response());
                }
            }
            now += 1;
        }
        let _ = l2_tick;
        assert!(!g.busy(), "GPU must drain (cycle {now})");
        now
    }

    #[test]
    fn kernel_runs_to_completion() {
        let mut g = gpu(2);
        let k = Arc::new(StreamKernel {
            ctas: 32,
            rounds: 4,
            gap: 8,
        });
        g.launch(k, 0..32);
        run(&mut g, 100, 2_000_000);
        let s = g.stats();
        assert_eq!(s.ctas_done, 32);
        assert_eq!(s.mem_instrs, 32 * 4);
        assert!(s.mem_reqs > 0);
    }

    #[test]
    fn l2_filters_repeated_lines() {
        let mut g = gpu(2);
        // All CTAs stream the same small range: first CTA misses, rest hit.
        struct SharedReads;
        impl KernelModel for SharedReads {
            fn cursor(&self, cta: u32) -> CtaCursor {
                CtaCursor::new(cta, SplitMix64::new(0))
            }
            fn next_op(&self, cur: &mut CtaCursor, out: &mut Vec<MemAccess>) -> Option<CtaOp> {
                (cur.step < 8).then(|| {
                    out.push(MemAccess::read(u64::from(cur.step) * 128));
                    cur.step += 1;
                    CtaOp::Mem
                })
            }
        }
        g.launch(Arc::new(SharedReads), 0..16);
        run(&mut g, 80, 2_000_000);
        let s = g.stats();
        assert!(
            s.mem_reqs < 16 * 8 / 2,
            "L1+L2 must filter most of the 128 reads; got {} off-chip",
            s.mem_reqs
        );
    }

    #[test]
    fn more_sms_finish_faster() {
        let k = Arc::new(StreamKernel {
            ctas: 64,
            rounds: 6,
            gap: 40,
        });
        let mut g1 = gpu(1);
        g1.launch(k.clone(), 0..64);
        let t1 = run(&mut g1, 60, 10_000_000);
        let mut g4 = gpu(4);
        g4.launch(k, 0..64);
        let t4 = run(&mut g4, 60, 10_000_000);
        assert!(
            t4 * 2 < t1,
            "4 SMs ({t4}) should be much faster than 1 ({t1})"
        );
    }

    #[test]
    fn stealing_moves_undispatched_ctas() {
        let mut g = gpu(1);
        let k = Arc::new(StreamKernel {
            ctas: 100,
            rounds: 1,
            gap: 1,
        });
        g.launch(k, 0..100);
        assert_eq!(g.pending_ctas(), 100);
        let stolen = g.steal(30);
        assert_eq!(stolen.len(), 30);
        assert_eq!(stolen[0], 70, "steal takes from the tail");
        assert_eq!(g.pending_ctas(), 70);
        let back = g.steal(1000);
        assert_eq!(back, (0..70).collect::<Vec<u32>>(), "launch order kept");
        assert_eq!(g.pending_ctas(), 0);
        g.donate(stolen);
        assert_eq!(g.pending_ctas(), 30);
    }

    #[test]
    fn write_only_kernel_drains_without_responses() {
        let mut g = gpu(1);
        struct Writes;
        impl KernelModel for Writes {
            fn cursor(&self, cta: u32) -> CtaCursor {
                CtaCursor::new(cta, SplitMix64::new(0))
            }
            fn next_op(&self, cur: &mut CtaCursor, out: &mut Vec<MemAccess>) -> Option<CtaOp> {
                (cur.step < 4).then(|| {
                    let line = u64::from(cur.cta) * 4 + u64::from(cur.step);
                    out.push(MemAccess::write(line * 128));
                    cur.step += 1;
                    CtaOp::Mem
                })
            }
        }
        g.launch(Arc::new(Writes), 0..4);
        let mut now = 0u64;
        while g.busy() && now < 100_000 {
            g.tick_core();
            if now.is_multiple_of(2) {
                g.tick_l2();
            }
            while g.pop_mem_request().is_some() {} // sink, never respond
            now += 1;
        }
        assert!(!g.busy(), "posted writes must drain");
        assert_eq!(g.stats().ctas_done, 4);
    }

    #[test]
    fn failed_gpu_returns_all_unfinished_ctas() {
        let mut g = gpu(2);
        let k = Arc::new(StreamKernel {
            ctas: 40,
            rounds: 4,
            gap: 8,
        });
        g.launch(k, 0..40);
        // Dispatch a few CTAs and get memory traffic in flight.
        for _ in 0..50 {
            g.tick_core();
            g.tick_l2();
        }
        let done_before = g.stats().ctas_done;
        let orphans = g.fail();
        assert!(g.is_dead());
        assert!(!g.busy(), "dead GPU holds no work");
        assert!(g.is_idle());
        assert_eq!(
            done_before as usize + orphans.len(),
            40,
            "every CTA is either retired or handed back"
        );
        // Ticks and responses are harmless no-ops now.
        g.tick_core();
        g.tick_l2();
        assert!(g.pop_mem_request().is_none());
        let resp = MemReq {
            id: ReqId(1),
            addr: 0,
            bytes: 128,
            kind: AccessKind::Read,
            src: Agent::Gpu(GpuId(0)),
        }
        .response();
        g.push_mem_response(resp);
        assert!(g.is_idle(), "dropped response must not wake a dead GPU");
    }

    #[test]
    fn an_outstanding_l2_read_keeps_the_gpu_busy_until_its_response() {
        let mut g = gpu(1);
        let miss = |g: &mut Gpu, addr| {
            let access = MemAccess::read(addr);
            g.l2_in.push_back((
                0,
                L2Req {
                    sm: 0,
                    slot: 0,
                    access,
                },
            ));
            g.tick_l2();
            g.pop_mem_request().expect("an L2 miss goes off-chip")
        };
        let req = miss(&mut g, 0x1000);
        assert_eq!(req.addr, 0x1000, "the request carries its line");
        assert!(g.busy() && !g.is_idle(), "only the L2 read is outstanding");
        g.push_mem_response(req.response());
        assert!(!g.busy(), "the response retires the read");
        g.tick_core();
        assert!(g.is_idle());
        // With a read outstanding, the GPU fails: it is idle at once, and
        // the late response is dropped.
        let late = miss(&mut g, 0x2000);
        assert!(g.busy());
        assert!(g.fail().is_empty(), "no CTA was resident");
        assert!(!g.busy() && g.is_idle());
        g.push_mem_response(late.response());
        assert!(!g.busy() && g.is_idle());
    }

    /// Seeded CTAs: compute intervals and one- to three-access memory
    /// ops over a 64-line range, so L1 and L2 hits, merged misses, writes
    /// and atomics all occur. `iter` holds the CTA's op count.
    struct Seeded;
    impl KernelModel for Seeded {
        #[allow(clippy::cast_possible_truncation, reason = "below 13")]
        fn cursor(&self, cta: u32) -> CtaCursor {
            let mut cur = CtaCursor::new(cta, SplitMix64::new(u64::from(cta)));
            cur.iter = 1 + cur.rng.next_below(12) as u32;
            cur
        }
        fn next_op(&self, cur: &mut CtaCursor, out: &mut Vec<MemAccess>) -> Option<CtaOp> {
            if cur.step == cur.iter {
                return None;
            }
            cur.step += 1;
            let rng = &mut cur.rng;
            if rng.chance(0.4) {
                #[allow(clippy::cast_possible_truncation, reason = "below 300")]
                return Some(CtaOp::Compute(rng.next_below(300) as u32));
            }
            for _ in 0..1 + rng.next_below(3) {
                let addr = rng.next_below(64) * 128;
                out.push(match rng.next_below(8) {
                    0 => MemAccess::atomic(addr),
                    1 | 2 => MemAccess::write(addr),
                    _ => MemAccess::read(addr),
                });
            }
            Some(CtaOp::Mem)
        }
    }

    #[test]
    fn sleeping_sms_are_skipped_without_losing_work() {
        // Run in a debug build, every skipped SM is checked to have
        // nothing due; responses return out of order, at seeded delays.
        let mut g = gpu(16);
        g.launch(Arc::new(Seeded), 0..200);
        let mut rng = memnet_common::SplitMix64::new(7);
        let mut pending: Vec<(u64, MemReq)> = Vec::new();
        let mut now = 0u64;
        while g.busy() && now < 1_000_000 {
            g.tick_core();
            if now.is_multiple_of(2) {
                g.tick_l2();
            }
            while let Some(r) = g.pop_mem_request() {
                if r.kind != AccessKind::Write {
                    pending.push((now + 1 + rng.next_below(600), r));
                }
            }
            let (due, later) = pending.into_iter().partition(|&(t, _)| t <= now);
            pending = later;
            for (_, r) in due {
                g.push_mem_response(r.response());
            }
            now += 1;
        }
        assert!(!g.busy(), "GPU must drain (cycle {now})");
        assert_eq!(g.stats().ctas_done, 200);
    }

    #[test]
    fn request_ids_are_unique_and_tagged_by_gpu() {
        let mut cfg = SystemConfig::paper().gpu;
        cfg.n_sms = 1;
        let mut g = Gpu::new(GpuId(3), &cfg);
        let k = Arc::new(StreamKernel {
            ctas: 4,
            rounds: 2,
            gap: 1,
        });
        g.launch(k, 0..4);
        let mut ids = std::collections::BTreeSet::new();
        let mut now = 0u64;
        let mut pending: VecDeque<(u64, MemReq)> = VecDeque::new();
        while g.busy() && now < 1_000_000 {
            g.tick_core();
            if now.is_multiple_of(2) {
                g.tick_l2();
            }
            while let Some(r) = g.pop_mem_request() {
                assert_eq!(r.id.0 >> 48, 3, "requests tagged with GPU id");
                assert!(ids.insert(r.id), "duplicate request id");
                pending.push_back((now + 20, r));
            }
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                let (_, r) = pending.pop_front().expect("nonempty");
                if r.kind != AccessKind::Write {
                    g.push_mem_response(r.response());
                }
            }
            now += 1;
        }
        assert!(!g.busy());
    }
}

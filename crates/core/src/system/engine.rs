//! Which clock domain ticks when: the five-domain calendar loop, idle
//! domains parked until their next event, and their skipped edges
//! accounted as if they had ticked.

use super::{domain, HmcPort, SimError, System};
use memnet_gpu::Gpu;
use memnet_hmc::HmcDevice;
use memnet_obs::prof::ProfCat;

/// How the engine advances simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Tick every clock domain at every one of its edges, idle or not —
    /// the original engine behavior. Wall-clock cost scales with
    /// simulated time.
    CycleStepped,
    /// Park clock domains whose components report idle and fast-forward
    /// their clocks when work arrives, so quiescent stretches cost
    /// O(events) instead of O(cycles). Produces bit-identical
    /// [`SimReport`](crate::SimReport)s (and trace/metric streams) to
    /// `CycleStepped`.
    #[default]
    EventDriven,
}

impl EngineMode {
    /// Display name (`"cycle-stepped"` / `"event-driven"`).
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::CycleStepped => "cycle-stepped",
            EngineMode::EventDriven => "event-driven",
        }
    }

    /// Parses an engine name: `cycle`/`cycle-stepped` or
    /// `event`/`event-driven`, in any case.
    pub fn parse(s: &str) -> Option<EngineMode> {
        let is = |name: &str| s.eq_ignore_ascii_case(name);
        if is("cycle") || is("cycle-stepped") {
            Some(EngineMode::CycleStepped)
        } else if is("event") || is("event-driven") {
            Some(EngineMode::EventDriven)
        } else {
            None
        }
    }

    /// The mode the `MEMNET_ENGINE` environment variable selects, so CI
    /// can run whole test suites under either engine; unset or empty
    /// means the default. A value that names no engine is an error, not
    /// the default: a typo must not quietly test the other engine. Only
    /// builders without an explicit [`engine`](crate::SimBuilder::engine)
    /// call consult it.
    pub fn from_env() -> Result<EngineMode, SimError> {
        match std::env::var_os("MEMNET_ENGINE") {
            Some(v) => EngineMode::from_env_value(&v.to_string_lossy()),
            None => Ok(EngineMode::default()),
        }
    }

    /// [`EngineMode::from_env`] on the variable's value.
    pub fn from_env_value(value: &str) -> Result<EngineMode, SimError> {
        if value.is_empty() {
            return Ok(EngineMode::default());
        }
        EngineMode::parse(value).ok_or_else(|| {
            SimError::InvalidConfig(format!(
                "MEMNET_ENGINE='{value}' names no engine (accepted: cycle, cycle-stepped, \
                 event, event-driven)"
            ))
        })
    }
}

impl System {
    /// True while ticking domain `d` can do real work. Parking is only
    /// legal when this is false *and* stays false until some other domain
    /// (or phase setup) hands the components new work — every predicate
    /// below is monotone in that sense. Work a domain schedules for
    /// itself is its alarm ([`System::park_idle`]), not this predicate.
    fn domain_active(&self, d: usize) -> bool {
        match d {
            // A GPU stays busy from kernel launch until its last response
            // is consumed (`Gpu::busy` covers outstanding routes), so the
            // core domain is never parked while replies are in flight —
            // crossbar release times computed from `core_cycle` stay
            // exact. The L2 services the same work, on the same signal.
            domain::CORE | domain::L2 => self.gpus.iter().any(|g| !g.is_idle()),
            // The DMA engine only issues reads; its responses and queue
            // drains arrive on net ticks, later in the timestep, and the
            // top-of-`advance` wake replays the edges a full window skipped.
            domain::CPU => !self.cpu.is_idle() || self.dma.can_issue(),
            // The net domain also hosts the metrics heartbeat: epoch
            // snapshots ride net ticks and sample *live* gauges of other
            // components, so with metrics enabled the domain is pinned
            // active — synthesized catch-up epochs could not be
            // bit-identical. Packets in the fabric are its alarm.
            domain::NET => {
                self.metrics.is_some()
                    || !self.hmc_ports.iter().all(HmcPort::is_idle)
                    || self.gpus.iter().any(Gpu::has_mem_request)
                    || self.cpu.has_mem_request()
                    || self.dma.has_mem_request()
            }
            // Serviced requests waiting to complete are its alarm.
            domain::DRAM => self.hmcs.iter().any(HmcDevice::has_queued),
            _ => unreachable!("unknown clock domain {d}"),
        }
    }

    /// Parks idle domain `d` until its next event: the net domain until
    /// the fabric's next event, DRAM until the earliest completion, the
    /// others for good. An event at the domain's very next edge keeps it
    /// armed, and so does one whose edge overflows `Fs` — it then ticks
    /// on, as the cycle-stepped loop would.
    fn park_idle(&mut self, d: usize) {
        let event = match d {
            domain::NET => self.net.next_event(),
            domain::DRAM => self
                .hmcs
                .iter()
                .filter_map(HmcDevice::next_completion)
                .min(),
            _ => None,
        };
        let clock = self.cal.clock(d);
        match event.map(|cycle| cycle.checked_mul(clock.period_fs())) {
            None => self.cal.park(d),
            Some(Some(edge)) if edge > clock.next_fs() => self.cal.park_until(d, edge),
            Some(_) => {}
        }
    }

    /// Catches per-tick counters up over `skipped` no-op edges of a woken
    /// domain, so downstream figures (crossbar timestamps, idle channel
    /// energy, utilization denominators, epoch numbering) match a run
    /// that ticked through the idle stretch.
    fn apply_skip(&mut self, d: usize, skipped: u64) {
        if skipped == 0 {
            return;
        }
        match d {
            domain::CORE => {
                for g in &mut self.gpus {
                    g.skip_idle_cycles(skipped);
                }
            }
            domain::NET => self.net.skip_idle_cycles(skipped),
            // L2 and DRAM keep no counter of their own (they read the
            // core clock and the DRAM clock's cycle count respectively),
            // and the CPU core's internal cycle is purely relative.
            domain::L2 | domain::CPU | domain::DRAM => {}
            _ => unreachable!("unknown clock domain {d}"),
        }
    }

    /// Brings every still-parked domain's clock — and its per-cycle
    /// counters: network idle energy, utilization denominators — up to
    /// now without re-arming it, as the cycle-stepped loop would have by
    /// ticking through the idle stretch.
    pub(super) fn catch_up_parked(&mut self) {
        self.prof_begin(ProfCat::FastForward);
        for d in 0..domain::COUNT {
            let skipped = self.cal.catch_up_parked(d, self.now);
            self.apply_skip(d, skipped);
        }
        self.prof_end(ProfCat::FastForward);
    }

    /// Wakes domain `d` at its first edge strictly after `self.now`.
    /// Used at the top of a timestep for work produced by a
    /// later-priority domain in an earlier timestep, or by phase setup:
    /// in the cycle-stepped loop, `d`'s edges at or before that point had
    /// already ticked (as no-ops) when the work appeared.
    fn wake_after_now(&mut self, d: usize) {
        let skipped = self.cal.wake_after(d, self.now);
        self.apply_skip(d, skipped);
    }

    /// Wakes domain `d` at its first edge at or after `self.now`. Used
    /// within a timestep, before `d`'s tick slot, for work produced by an
    /// earlier-priority domain at this very timestep: if `d` has an edge
    /// here, the cycle-stepped loop would have it act on the work now.
    fn wake_at_or_after_now(&mut self, d: usize) {
        let skipped = self.cal.wake_at_or_after(d, self.now);
        self.apply_skip(d, skipped);
    }

    /// Advances simulated time to the earliest pending clock edge of an
    /// armed domain and ticks every due domain once, re-arming parked
    /// domains that have work and parking domains that report idle.
    /// Returns false when every domain is parked (the system quiesced).
    ///
    /// With parking disabled this is exactly the original cycle-stepped
    /// loop: all five domains stay armed and tick at every edge.
    pub(super) fn advance(&mut self) -> bool {
        // Re-arm parked domains that acquired work since their last
        // edge — from a later-priority producer last timestep, or from
        // phase setup (kernel launch, `start_copy`, `run_program`).
        // Waking replays the skipped idle window, so this is the
        // fast-forward cost bucket.
        self.prof_begin(ProfCat::FastForward);
        for d in 0..domain::COUNT {
            if self.cal.is_parked(d) && self.domain_active(d) {
                self.wake_after_now(d);
            }
        }
        self.prof_end(ProfCat::FastForward);
        self.prof_begin(ProfCat::CalendarAdvance);
        // Never let time jump past a pending fault's owner edge. The next
        // timestep is the earlier of the next armed clock edge or alarm
        // and the earliest pending fault edge; parked owners whose fault
        // or alarm lands at exactly that timestep are woken there (and
        // only there — waking an owner at a *later* fault edge would skip
        // edges where work produced this timestep should tick).
        // Re-evaluated every advance, so a fault inside a fast-forwarded
        // idle window still fires on its exact edge and both engine modes
        // apply it at the same simulated instant.
        let fault_next = self
            .fault_q
            .iter()
            .filter_map(|q| q.front().map(|f| f.edge_fs))
            .min();
        let next = match (self.cal.earliest(), fault_next) {
            (Some(a), Some(f)) => a.min(f),
            (Some(a), None) => a,
            (None, Some(f)) => f,
            (None, None) => {
                self.prof_end(ProfCat::CalendarAdvance);
                return false;
            }
        };
        self.now = next;
        for d in 0..domain::COUNT {
            // One wake rule: a parked domain wakes at the earlier of its
            // pending fault edge and its alarm. Time never passes either,
            // so one at or before `next` is at `next`.
            if !self.cal.is_parked(d) {
                continue;
            }
            let fault = self.fault_q[d].front().map(|f| f.edge_fs);
            let wake = fault.into_iter().chain(self.cal.alarm(d)).min();
            if wake.is_some_and(|w| w <= next) {
                self.wake_at_or_after_now(d);
            }
        }
        self.prof_end(ProfCat::CalendarAdvance);

        for d in 0..domain::COUNT {
            // Work produced earlier in this same timestep (by a
            // higher-priority domain) re-arms `d` in time for a
            // coincident edge.
            if self.cal.is_parked(d) && self.domain_active(d) {
                self.wake_at_or_after_now(d);
            }
            if !self.cal.due(d, self.now) {
                continue;
            }
            self.apply_due_faults(d);
            let cat = Self::prof_cat(d);
            self.prof_begin(cat);
            self.tick_domain(d);
            self.prof_end(cat);
            self.cal.advance(d);
            if self.park && !self.domain_active(d) && !self.cal.is_parked(d) {
                self.park_idle(d);
            }
        }
        true
    }

    /// Profiler category for one clock domain's tick.
    fn prof_cat(d: usize) -> ProfCat {
        match d {
            domain::CORE => ProfCat::CoreTick,
            domain::L2 => ProfCat::L2Tick,
            domain::CPU => ProfCat::CpuTick,
            domain::NET => ProfCat::NetTick,
            domain::DRAM => ProfCat::DramTick,
            _ => unreachable!("unknown clock domain {d}"),
        }
    }

    /// One tick of one clock domain, in priority order within a timestep:
    /// GPU cores, GPU L2s, CPU+DMA, network, DRAM.
    fn tick_domain(&mut self, d: usize) {
        match d {
            domain::CORE => {
                for g in &mut self.gpus {
                    g.tick_core_traced(self.tracer.as_mut());
                }
            }
            domain::L2 => {
                for g in &mut self.gpus {
                    g.tick_l2();
                }
            }
            domain::CPU => {
                self.cpu.tick();
                self.dma.tick();
            }
            domain::NET => {
                self.pump_into_network();
                self.net.tick_traced(self.tracer.as_mut());
                self.pump_out_of_network();
                self.observe_net_tick();
            }
            domain::DRAM => {
                let tck = self.cal.clock(domain::DRAM).cycles();
                #[allow(clippy::cast_possible_truncation, reason = "cubes are u16-id nodes")]
                for (i, h) in self.hmcs.iter_mut().enumerate() {
                    // A cube without work has empty vault queues and no
                    // completion: both calls below would be no-ops.
                    if !h.has_work() {
                        continue;
                    }
                    h.tick_traced(tck, i as u32, self.tracer.as_mut());
                    while let Some(req) = h.pop_completed(tck) {
                        if req.kind.returns_data() {
                            self.hmc_ports[i].resp_q.push_back(req.response());
                        }
                    }
                }
            }
            _ => unreachable!("unknown clock domain {d}"),
        }
    }
}

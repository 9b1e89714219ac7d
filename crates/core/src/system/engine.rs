//! Which clock domain ticks when: the five-domain calendar loop, idle
//! domains parked until their next event, and their skipped edges
//! accounted as if they had ticked.

use super::{SimError, System};
use memnet_gpu::Gpu;
use memnet_hmc::HmcDevice;
use memnet_obs::prof::ProfCat;
use memnet_obs::ClockDomain::{self, Core, Cpu, Dram, Net, L2};

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
    fn domain_active(&self, d: ClockDomain) -> bool {
        match d {
            // A GPU stays busy from kernel launch until its last response
            // is consumed (`Gpu::busy` covers outstanding routes), so the
            // core domain is never parked while replies are in flight —
            // crossbar release times computed from `core_cycle` stay
            // exact. The L2 services the same work, on the same signal.
            Core | L2 => self.gpus.iter().any(|g| !g.is_idle()),
            // The DMA engine only issues reads; its responses and queue
            // drains arrive on net ticks, later in the timestep, and the
            // top-of-`advance` wake replays the edges a full window skipped.
            Cpu => !self.cpu.is_idle() || self.dma.can_issue(),
            // Packets in the fabric and the next metrics epoch are its
            // alarm.
            Net => {
                debug_assert!(
                    (self.hmc_ports.iter().enumerate()).all(|(i, p)| (self.hmc_busy[i / 64]
                        >> (i % 64)
                        & 1
                        == 1)
                        != p.is_idle()),
                    "the HMC busy set disagrees with the ports"
                );
                self.hmc_busy.iter().any(|&w| w != 0)
                    || self.gpus.iter().any(Gpu::has_mem_request)
                    || self.cpu.has_mem_request()
                    || self.dma.has_mem_request()
            }
            // Serviced requests waiting to complete are its alarm.
            Dram => self.hmcs.iter().any(HmcDevice::has_queued),
        }
    }

    /// Parks idle domain `d` until its alarm: the earlier of its own next
    /// event and its pending fault edge, both edges of its own clock. The
    /// net domain's own event is the fabric's next event or the tick that
    /// takes the next metrics epoch, DRAM's the earliest completion; the
    /// others have none, and park for good without a fault. An alarm at
    /// the domain's very next edge keeps it armed, and so does one whose
    /// edge overflows `Fs` — it then ticks on, as the cycle-stepped loop
    /// would.
    fn park_idle(&mut self, d: ClockDomain) {
        let event = match d {
            // `observe_net_tick` takes the epoch once the tick has moved
            // the net cycle to `next_epoch`: the tick from the cycle before.
            Net => {
                let epoch = self.metrics.is_some().then(|| self.next_epoch - 1);
                self.net.next_event().into_iter().chain(epoch).min()
            }
            Dram => self
                .hmcs
                .iter()
                .filter_map(HmcDevice::next_completion)
                .min(),
            Core | L2 | Cpu => None,
        };
        let clock = self.cal.clock(d as usize);
        let own = event.map(|cycle| cycle.checked_mul(clock.period_fs()));
        let fault = self.fault_q[d as usize].front().map(|f| Some(f.edge_fs));
        // An overflowed edge (`None`) orders before every `Some` edge, so
        // it wins the minimum and keeps the domain armed.
        match own.into_iter().chain(fault).min() {
            None => self.cal.park(d as usize),
            Some(Some(edge)) if edge > clock.next_fs() => self.cal.park_until(d as usize, edge),
            Some(_) => {}
        }
    }

    /// Catches per-tick counters up over `skipped` no-op edges of a woken
    /// domain, so downstream figures (crossbar timestamps, idle channel
    /// energy, utilization denominators, epoch numbering) match a run
    /// that ticked through the idle stretch.
    fn apply_skip(&mut self, d: ClockDomain, skipped: u64) {
        if skipped == 0 {
            return;
        }
        match d {
            Core => {
                for g in &mut self.gpus {
                    g.skip_idle_cycles(skipped);
                }
            }
            Net => self.net.skip_idle_cycles(skipped),
            // L2 and DRAM keep no counter of their own (they read the
            // core clock and the DRAM clock's cycle count respectively),
            // and the CPU core's internal cycle is purely relative.
            L2 | Cpu | Dram => {}
        }
    }

    /// Brings every still-parked domain's clock — and its per-cycle
    /// counters: network idle energy, utilization denominators — up to
    /// now without re-arming it, as the cycle-stepped loop would have by
    /// ticking through the idle stretch.
    pub(super) fn catch_up_parked(&mut self) {
        self.prof_begin(ProfCat::FastForward);
        for d in ClockDomain::ALL {
            let skipped = self.cal.catch_up_parked(d as usize, self.now);
            self.apply_skip(d, skipped);
        }
        self.prof_end(ProfCat::FastForward);
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
        // phase setup (kernel launch, `start_copy`, `run_program`) — at
        // their first edge strictly after now: in the cycle-stepped loop,
        // their edges at or before now had already ticked (as no-ops)
        // when the work appeared. Waking replays the skipped idle window,
        // so this is the fast-forward cost bucket.
        self.prof_begin(ProfCat::FastForward);
        for d in ClockDomain::ALL {
            if self.cal.is_parked(d as usize) && self.domain_active(d) {
                let skipped = self.cal.wake_after(d as usize, self.now);
                self.apply_skip(d, skipped);
            }
        }
        self.prof_end(ProfCat::FastForward);
        self.prof_begin(ProfCat::CalendarAdvance);
        // The next timestep is the earliest armed edge or alarm. A parked
        // domain's alarm holds its pending fault edge, so a fault inside a
        // fast-forwarded idle window still fires on its exact edge and
        // both engine modes apply it at the same simulated instant.
        let Some(next) = self.cal.earliest() else {
            self.prof_end(ProfCat::CalendarAdvance);
            return false;
        };
        self.now = next;
        for d in ClockDomain::ALL {
            // One wake rule: a parked domain whose alarm is `next` wakes
            // there (time never passes an alarm). Only there — waking it
            // at a *later* alarm would skip edges where work produced this
            // timestep should tick.
            if self.cal.alarm(d as usize) == Some(next) {
                let skipped = self.cal.wake_at_or_after(d as usize, next);
                self.apply_skip(d, skipped);
            }
        }
        self.prof_end(ProfCat::CalendarAdvance);

        for d in ClockDomain::ALL {
            // Work produced earlier in this same timestep (by a
            // higher-priority domain) re-arms `d` at its first edge at or
            // after now: if `d` has an edge here, the cycle-stepped loop
            // would have it act on the work now.
            if self.cal.is_parked(d as usize) && self.domain_active(d) {
                let skipped = self.cal.wake_at_or_after(d as usize, self.now);
                self.apply_skip(d, skipped);
            }
            if !self.cal.due(d as usize, self.now) {
                continue;
            }
            self.apply_due_faults(d);
            self.prof_begin(ProfCat::Tick(d));
            self.tick_domain(d);
            self.prof_end(ProfCat::Tick(d));
            self.cal.advance(d as usize);
            if self.park && !self.domain_active(d) && !self.cal.is_parked(d as usize) {
                self.park_idle(d);
            }
        }
        true
    }

    /// One tick of one clock domain, in priority order within a timestep:
    /// GPU cores, GPU L2s, CPU+DMA, network, DRAM.
    fn tick_domain(&mut self, d: ClockDomain) {
        match d {
            Core => {
                for g in &mut self.gpus {
                    g.tick_core_traced(self.tracer.as_mut());
                }
            }
            L2 => {
                for g in &mut self.gpus {
                    g.tick_l2();
                }
            }
            Cpu => {
                self.cpu.tick();
                self.dma.tick();
            }
            Net => {
                self.pump_into_network();
                self.net.tick_traced(self.tracer.as_mut());
                self.pump_out_of_network();
                self.observe_net_tick();
            }
            Dram => {
                let tck = self.cal.clock(Dram as usize).cycles();
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
                            self.hmc_busy[i / 64] |= 1 << (i % 64);
                        }
                    }
                }
            }
        }
    }
}

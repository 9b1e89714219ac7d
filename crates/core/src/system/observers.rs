//! The pure observers — trace marks, sanitizer audits, metric epochs, the
//! self-profiler: nothing here feeds back into simulated state.

use super::{SimReport, System};
use crate::profile::{Heatmap, ProfileHist, ProfileReport, WorkProfile};
use memnet_common::time::Fs;
use memnet_hmc::HmcDevice;
use memnet_noc::Network;
use memnet_obs::prof::{ProfCat, Profiler};
use memnet_obs::{ClockDomain, HistSnapshot, MetricsRegistry, TraceEventKind};

/// Profiling state owned by the engine driver, fully outside simulation
/// state. The [`Profiler`] is written only from the driver loop
/// (`System::advance`, `System::apply_skip`, [`System::emit_phase`]);
/// the histograms record values the simulation already computed
/// (latencies, queue depths) without feeding anything back, so enabling
/// profiling cannot change a single simulated outcome.
pub(super) struct ProfPack {
    pub(super) profiler: Profiler,
    /// Packet latency, VC occupancy and vault queue depth distributions,
    /// the occupancies sampled every [`ProfPack::sample_every`] network
    /// cycles.
    pub(super) hists: MetricsRegistry,
    /// Network cycle at which the next occupancy sample is due.
    next_sample: u64,
    /// Network cycles between occupancy samples.
    sample_every: u64,
}

impl ProfPack {
    /// Default occupancy-sampling cadence, network cycles.
    const SAMPLE_EVERY: u64 = 1_000;

    fn new(sample_every: u64) -> Self {
        ProfPack {
            profiler: Profiler::new(),
            hists: MetricsRegistry::new(),
            next_sample: sample_every,
            sample_every,
        }
    }

    /// Closes the profile over the finished system `sys` and its `report`.
    pub(super) fn into_report(self, sys: &System, report: &SimReport) -> ProfileReport {
        let engine = sys.engine_mode.name();
        let mut pr = ProfileReport::from_profiler(&self.profiler, engine);
        pr.hists = [PKT_LATENCY, VC_OCCUPANCY, VAULT_DEPTH]
            .map(|name| ProfileHist {
                name,
                snap: self
                    .hists
                    .hist(name)
                    .map_or_else(HistSnapshot::default, HistSnapshot::of),
            })
            .into();
        pr.net_cycles = sys.net.cycle();
        pr.flit_hops = sys.net.stats().flit_hops;
        pr.ctas_done = report.per_gpu.iter().map(|g| g.ctas_done).sum();
        pr.trace_dropped = report.trace_dropped;
        pr.work = WorkProfile::new(&sys.net, sys.idle_hmc_visits);
        pr.heatmap = Heatmap {
            routers: sys.net.router_utilization(),
            links: sys.net.link_utilization(),
        };
        pr
    }
}

/// Packet injection-to-ejection latency, network cycles.
pub(super) const PKT_LATENCY: &str = "net.pkt_latency_cycles";
/// Router input-VC occupancy, flits.
const VC_OCCUPANCY: &str = "net.vc_occupancy_flits";
/// Vault controller queue depth, requests.
const VAULT_DEPTH: &str = "hmc.vault_queue_depth";

/// Samples every router input VC's occupancy and every vault's queue
/// depth into `m`: one sample per entity. Pure reads of queue state.
fn sample_queues(net: &Network, hmcs: &[HmcDevice], m: &mut MetricsRegistry) {
    net.sample_vc_occupancy(|occ| m.record_hist(VC_OCCUPANCY, occ));
    for h in hmcs {
        h.sample_vault_depths(|d| m.record_hist(VAULT_DEPTH, d));
    }
}

impl System {
    /// Switches the self-profiler on. Occupancy samples ride the metrics
    /// epoch when there is one, else every [`ProfPack::SAMPLE_EVERY`]
    /// network cycles.
    pub(super) fn arm_profiler(&mut self) {
        let every = match self.metrics_every {
            0 => ProfPack::SAMPLE_EVERY,
            n => n,
        };
        self.prof = Some(ProfPack::new(every));
    }

    /// Records `kind` as a span from `start` to now (no-op without a
    /// tracer).
    pub(super) fn trace_fs(&mut self, start: Fs, kind: TraceEventKind) {
        let now = self.now;
        if let Some(t) = self.tracer.as_mut() {
            t.emit_fs(start, now - start, kind);
        }
    }

    /// Records a phase span from `start` to now (no-op without a tracer)
    /// and a profiler phase mark (no-op unless profiling).
    pub(super) fn emit_phase(&mut self, name: &'static str, start: Fs) {
        self.trace_fs(start, TraceEventKind::Phase { name });
        if let Some(p) = self.prof.as_mut() {
            p.profiler.phase_mark(name);
        }
    }

    /// Full structural audit at a phase boundary: fabric credit and packet
    /// conservation plus calendar edge alignment. The only place the
    /// sanitizer's check counter advances — phase boundaries are reached
    /// identically under both [`EngineMode`]s, so clean reports stay
    /// bit-identical across engines (per-tick audit *counts* would not be:
    /// the event-driven engine skips idle ticks).
    pub(super) fn sanitize_checkpoint(&mut self, phase: &'static str) {
        let Some(mut s) = self.san.take() else {
            return;
        };
        s.checkpoint();
        let mut found: Vec<String> = self
            .net
            .audit()
            .into_iter()
            .map(|v| format!("{phase}: net: {v}"))
            .collect();
        for d in self.cal.misaligned() {
            found.push(format!(
                "{phase}: clock domain {} fell off its edge grid (next_fs != cycles * period_fs)",
                ClockDomain::ALL[d].name()
            ));
        }
        for v in found {
            self.trace_fs(
                self.now,
                TraceEventKind::SanitizerViolation { message: v.clone() },
            );
            s.record(v);
        }
        self.san = Some(s);
    }

    /// Publishes live gauges plus cumulative counters and records one epoch.
    pub(super) fn snapshot_metrics(&mut self) {
        let Some(m) = self.metrics.as_mut() else {
            return;
        };
        let net = self.net.stats();
        let dropped = self.tracer.as_ref().map(|t| ("trace.dropped", t.dropped()));
        let totals = [
            ("net.flits_injected", net.flits_injected),
            ("ske.cta_steals", self.counters.steal_events),
            ("faults.injected", self.counters.faults_injected),
            ("net.reroutes", net.reroutes),
            ("net.retries", net.retries),
            ("net.dead_letters", net.dead_letters),
            ("faults.failed_requests", self.counters.failed_requests),
            ("ske.rebalanced_ctas", self.counters.rebalanced_ctas),
        ];
        // Counters are cumulative: publish each as the delta since the
        // last epoch.
        for (name, total) in totals.into_iter().chain(dropped) {
            let delta = total - m.counter(name);
            m.add(name, delta);
        }
        for (i, g) in self.gpus.iter().enumerate() {
            m.set_entity("gpu", i, "occupancy", g.occupancy());
        }
        for (i, h) in self.hmcs.iter().enumerate() {
            m.set_entity("hmc", i, "vault_queue", h.queued() as f64);
        }
        m.set("cpu.outstanding", f64::from(self.cpu.outstanding()));
        m.set("dma.reads_inflight", f64::from(self.dma.reads_inflight()));
        sample_queues(&self.net, &self.hmcs, m);
        m.snapshot(self.now);
    }

    /// The observers that ride the net tick, after the fabric moved.
    pub(super) fn observe_net_tick(&mut self) {
        if let Some(s) = self.san.as_mut() {
            // O(1) per-tick law (the full credit audit is saved for phase
            // boundaries): nothing the fabric accepted may leak or
            // duplicate, at any cycle.
            let st = self.net.stats();
            let accounted = st.delivered + self.net.in_flight() + st.dead_letters;
            if st.packets_injected != accounted {
                s.record(format!(
                    "net cycle {}: packet conservation broken: injected {} != \
                     delivered {} + in-flight {} + dead-letters {}",
                    self.net.cycle(),
                    st.packets_injected,
                    st.delivered,
                    self.net.in_flight(),
                    st.dead_letters
                ));
            }
        }
        if self.metrics.is_some() && self.net.cycle() >= self.next_epoch {
            self.next_epoch = self.net.cycle() + self.metrics_every;
            self.snapshot_metrics();
        }
        // Profiler occupancy sampling into driver-owned histograms, never
        // sim-visible.
        if let Some(p) = self.prof.as_mut() {
            if self.net.cycle() >= p.next_sample {
                p.next_sample = self.net.cycle() + p.sample_every;
                sample_queues(&self.net, &self.hmcs, &mut p.hists);
            }
        }
    }

    /// Opens a profiler scope (no-op unless profiling).
    #[inline]
    pub(super) fn prof_begin(&mut self, cat: ProfCat) {
        if let Some(p) = self.prof.as_mut() {
            p.profiler.begin(cat);
        }
    }

    /// Closes a profiler scope (no-op unless profiling).
    #[inline]
    pub(super) fn prof_end(&mut self, cat: ProfCat) {
        if let Some(p) = self.prof.as_mut() {
            p.profiler.end(cat);
        }
    }
}

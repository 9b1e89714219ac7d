//! Event tracer: a bounded ring buffer of typed simulation events with a
//! Chrome trace-event JSON exporter (`chrome://tracing` / Perfetto).
//!
//! Components record events in their own clock domain's cycles; the tracer
//! converts to the engine's femtosecond time base at record time using the
//! per-domain periods installed by [`Tracer::set_clock`]. The export sorts
//! by timestamp, so the emitted `traceEvents` array is monotonically
//! non-decreasing in `ts`.
//!
//! The hot path stays cheap when tracing is off: every hook takes an
//! `Option<&mut Tracer>` and the disabled branch is one `None` check.

use crate::json::JsonWriter;
use crate::metrics::MetricsRegistry;
use std::collections::VecDeque;

/// The five clock domains, the one list of them. Variants are in
/// intra-timestep tick (priority) order and the discriminant is the
/// domain's index: a domain earlier in this order ticks first within one
/// timestep, which decides whether work it produces is visible to a later
/// domain at the *same* timestep (it is) or only at the consumer's next
/// edge (work flowing "backwards" to an earlier domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// GPU core clock (SMs, CTA dispatch).
    Core,
    /// GPU L2 clock.
    L2,
    /// CPU clock.
    Cpu,
    /// Network router clock.
    Net,
    /// DRAM clock (tCK).
    Dram,
}

impl ClockDomain {
    /// Every domain, in tick order.
    pub const ALL: [ClockDomain; 5] = [
        ClockDomain::Core,
        ClockDomain::L2,
        ClockDomain::Cpu,
        ClockDomain::Net,
        ClockDomain::Dram,
    ];

    /// Display name (`"core"`, `"l2"`, `"cpu"`, `"net"`, `"dram"`).
    pub fn name(self) -> &'static str {
        ["core", "l2", "cpu", "net", "dram"][self as usize]
    }
}

/// What happened. Field units are cycles of the event's clock domain.
#[derive(Debug, Clone)]
pub enum TraceEventKind {
    /// A packet entered the network at an endpoint.
    PacketInject {
        /// Injecting endpoint node.
        src: u16,
        /// Destination endpoint node.
        dst: u16,
        /// Message class name (`"req"` / `"resp"`).
        class: &'static str,
        /// Wire size, bytes.
        bytes: u32,
    },
    /// One router-to-router (or router-to-endpoint) hop, with the
    /// per-stage breakdown: cycles queued in the input VC buffer, the
    /// router pipeline, SerDes latency, and wire serialization.
    PacketHop {
        /// Router the packet departed from.
        router: u32,
        /// Output port taken.
        port: u8,
        /// Cycles spent queued in the input buffer before winning
        /// allocation.
        queue_cycles: u64,
        /// Router pipeline cycles (pass-through cycles for overlay hops).
        pipeline_cycles: u64,
        /// SerDes traversal cycles (0 on pass-through hops).
        serdes_cycles: u64,
        /// Wire serialization cycles for the packet's size.
        ser_cycles: u64,
        /// True if this hop used an overlay pass-through.
        passthrough: bool,
    },
    /// A packet left the network at its destination endpoint.
    PacketEject {
        /// Destination endpoint node.
        dst: u16,
        /// Injection-to-ejection residency, network cycles.
        latency_cycles: u64,
        /// Hops taken.
        hops: u32,
    },
    /// A vault serviced one request (span: column command to end of data
    /// burst).
    VaultService {
        /// Global HMC index.
        hmc: u32,
        /// Vault within the cube.
        vault: u32,
        /// True if the open row matched.
        row_hit: bool,
        /// Request size, bytes.
        bytes: u32,
    },
    /// A CTA was dispatched into an SM slot.
    CtaLaunch {
        /// GPU id.
        gpu: u16,
        /// SM index within the GPU.
        sm: u32,
        /// Flattened CTA index.
        cta: u64,
    },
    /// A CTA retired (span: launch to retirement).
    CtaRetire {
        /// GPU id.
        gpu: u16,
        /// SM index within the GPU.
        sm: u32,
        /// Flattened CTA index.
        cta: u64,
    },
    /// An idle GPU stole undispatched CTAs from the deepest queue.
    CtaSteal {
        /// GPU that lost CTAs.
        victim: u32,
        /// GPU that gained them.
        thief: u32,
        /// CTAs moved.
        count: u32,
    },
    /// A simulation phase (host compute, H2D/D2H memcpy, kernel) as a
    /// span over the whole phase.
    Phase {
        /// Phase name (`"host"`, `"memcpy-h2d"`, `"kernel"`, ...).
        name: &'static str,
    },
    /// The runtime sanitizer recorded an invariant violation (instant on
    /// a dedicated "sanitizer" track). Never emitted on a clean run, so
    /// enabling the sanitizer leaves clean traces bit-identical.
    SanitizerViolation {
        /// The violation message (law broken, location, cycle).
        message: String,
    },
    /// A run-pool job lifecycle event (retry, panic isolation, completion)
    /// from `memnet sweep --jobs N`, on a dedicated "pool" track.
    /// Timestamps are wall-clock offsets from pool start, not simulated
    /// time — pool traces are exported separately from simulation traces.
    PoolJob {
        /// What happened (`"retry"`, `"panic"`, `"done"`).
        what: &'static str,
        /// Submission-order job index.
        job: u64,
        /// 1-based attempt number.
        attempt: u64,
    },
    /// A fault-plan event was applied to the live system (instant on a
    /// dedicated "faults" track).
    Fault {
        /// Fault kind name (`"link-down"`, `"vault-stall"`,
        /// `"gpu-loss"`, ...).
        kind: &'static str,
        /// Kind-specific target (link index, HMC id, GPU id).
        target: u64,
        /// Kind-specific detail (degrade factor, stall tCKs, vault
        /// index; 0 when not applicable).
        detail: u64,
    },
}

/// One recorded event, timestamped in femtoseconds of simulated time.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Start time, femtoseconds.
    pub start_fs: u64,
    /// Duration, femtoseconds (0 for instant events).
    pub dur_fs: u64,
    /// The typed payload.
    pub kind: TraceEventKind,
}

/// Bounded ring buffer of [`TraceEvent`]s. When full, the oldest events
/// are dropped (the tail of a run is usually the interesting part) and
/// counted in [`Tracer::dropped`].
#[derive(Debug)]
pub struct Tracer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Femtoseconds per cycle, indexed by [`ClockDomain`].
    fs_per_cycle: [f64; ClockDomain::ALL.len()],
}

impl Tracer {
    /// Creates a tracer retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be nonzero");
        Tracer {
            events: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
            fs_per_cycle: [1.0; ClockDomain::ALL.len()],
        }
    }

    /// Installs the femtosecond period of one clock domain. Events in that
    /// domain recorded before this call are scaled wrongly, so install all
    /// periods before the run starts.
    pub fn set_clock(&mut self, domain: ClockDomain, fs_per_cycle: f64) {
        self.fs_per_cycle[domain as usize] = fs_per_cycle;
    }

    /// Records a span measured in `domain` cycles.
    #[inline]
    #[allow(clippy::cast_possible_truncation, reason = "f64 `as` saturates; times ≪ 2^64 fs")]
    pub fn emit(
        &mut self,
        domain: ClockDomain,
        start_cycle: u64,
        dur_cycles: u64,
        kind: TraceEventKind,
    ) {
        let fs = self.fs_per_cycle[domain as usize];
        self.push(TraceEvent {
            start_fs: (start_cycle as f64 * fs) as u64,
            dur_fs: (dur_cycles as f64 * fs) as u64,
            kind,
        });
    }

    /// Records an instant event measured in `domain` cycles.
    #[inline]
    pub fn emit_instant(&mut self, domain: ClockDomain, cycle: u64, kind: TraceEventKind) {
        self.emit(domain, cycle, 0, kind);
    }

    /// Records a span already in femtoseconds (engine-level events).
    pub fn emit_fs(&mut self, start_fs: u64, dur_fs: u64, kind: TraceEventKind) {
        self.push(TraceEvent {
            start_fs,
            dur_fs,
            kind,
        });
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Retained events, in recording order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the Chrome trace-event JSON (object format, sorted by
    /// timestamp). Load the file in `chrome://tracing` or
    /// <https://ui.perfetto.dev>. When `metrics` is given, its epoch
    /// snapshots are embedded as counter (`"C"`) events.
    pub fn to_chrome_json(&self, metrics: Option<&MetricsRegistry>) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].start_fs, i));

        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        // Thread-name metadata first (metadata events carry no timestamp).
        let mut named: Vec<(u64, &str, Option<u64>)> = vec![(TID_PHASES, "phases", None)];
        for ev in &self.events {
            let (tid, label, entity) = tid_of(&ev.kind);
            if !named.iter().any(|&(t, _, _)| t == tid) {
                named.push((tid, label, entity));
            }
        }
        named.sort_by_key(|&(t, _, _)| t);
        for (tid, label, entity) in named {
            w.begin_object();
            w.field("name", "thread_name");
            w.field("ph", "M");
            w.field("pid", &PID);
            w.field("tid", &tid);
            w.key("args");
            w.begin_object();
            match entity {
                Some(n) => w.field("name", &format!("{label}{n}")),
                None => w.field("name", label),
            }
            w.end_object();
            w.end_object();
        }
        for i in order {
            write_event(&mut w, &self.events[i]);
        }
        if let Some(m) = metrics {
            for epoch in m.epochs() {
                let ts = epoch.at_fs as f64 / 1e9;
                for (name, v) in &epoch.counters {
                    write_counter(&mut w, ts, name, *v as f64);
                }
                for (name, v) in &epoch.gauges {
                    write_counter(&mut w, ts, name, *v);
                }
                for (name, h) in &epoch.hists {
                    write_counter(&mut w, ts, &format!("{name}.p50"), h.p50 as f64);
                    write_counter(&mut w, ts, &format!("{name}.p90"), h.p90 as f64);
                    write_counter(&mut w, ts, &format!("{name}.p99"), h.p99 as f64);
                }
            }
        }
        w.end_array();
        w.field("displayTimeUnit", "ns");
        w.object_field("otherData", [("dropped_events", self.dropped)]);
        w.end_object();
        w.finish()
    }
}

/// Single simulated process in the trace.
const PID: u64 = 1;
const TID_PHASES: u64 = 0;
const TID_NET_ENDPOINTS: u64 = 1;
const TID_SKE: u64 = 2;
const TID_FAULTS: u64 = 4;
const TID_SANITIZER: u64 = 5;
const TID_POOL: u64 = 6;
const TID_ROUTER_BASE: u64 = 100;
const TID_GPU_BASE: u64 = 10_000;
const TID_HMC_BASE: u64 = 20_000;

/// Trace track for an event: (tid, track label, numeric suffix).
fn tid_of(kind: &TraceEventKind) -> (u64, &'static str, Option<u64>) {
    match kind {
        TraceEventKind::Phase { .. } => (TID_PHASES, "phases", None),
        TraceEventKind::PacketInject { .. } | TraceEventKind::PacketEject { .. } => {
            (TID_NET_ENDPOINTS, "net endpoints", None)
        }
        TraceEventKind::PacketHop { router, .. } => (
            TID_ROUTER_BASE + *router as u64,
            "router ",
            Some(*router as u64),
        ),
        TraceEventKind::CtaLaunch { gpu, .. } | TraceEventKind::CtaRetire { gpu, .. } => {
            (TID_GPU_BASE + *gpu as u64, "gpu ", Some(*gpu as u64))
        }
        TraceEventKind::CtaSteal { .. } => (TID_SKE, "ske", None),
        TraceEventKind::PoolJob { .. } => (TID_POOL, "pool", None),
        TraceEventKind::Fault { .. } => (TID_FAULTS, "faults", None),
        TraceEventKind::SanitizerViolation { .. } => (TID_SANITIZER, "sanitizer", None),
        TraceEventKind::VaultService { hmc, .. } => {
            (TID_HMC_BASE + *hmc as u64, "hmc ", Some(*hmc as u64))
        }
    }
}

fn event_head(w: &mut JsonWriter, name: &str, cat: &str, ph: &str, ts_us: f64, tid: u64) {
    w.field("name", name);
    w.field("cat", cat);
    w.field("ph", ph);
    w.field("ts", &ts_us);
    w.field("pid", &PID);
    w.field("tid", &tid);
}

fn write_counter(w: &mut JsonWriter, ts_us: f64, name: &str, value: f64) {
    w.begin_object();
    event_head(w, name, "metrics", "C", ts_us, TID_PHASES);
    w.object_field("args", [("value", value)]);
    w.end_object();
}

/// How an event kind is drawn: (name, category, span?). A span is a
/// complete event (`"X"`) with a duration, anything else a thread-scoped
/// instant (`"i"`).
fn frame(kind: &TraceEventKind) -> (&'static str, &'static str, bool) {
    match *kind {
        TraceEventKind::PacketInject { .. } => ("packet-inject", "net", false),
        TraceEventKind::PacketHop { .. } => ("packet-hop", "net", true),
        TraceEventKind::PacketEject { .. } => ("packet-eject", "net", false),
        TraceEventKind::VaultService { .. } => ("vault-service", "dram", true),
        TraceEventKind::CtaLaunch { .. } => ("cta-launch", "gpu", false),
        TraceEventKind::CtaRetire { .. } => ("cta", "gpu", true),
        TraceEventKind::CtaSteal { .. } => ("cta-steal", "ske", false),
        TraceEventKind::Phase { name } => (name, "phase", true),
        TraceEventKind::PoolJob { what, .. } => (what, "pool", false),
        TraceEventKind::SanitizerViolation { .. } => ("sanitizer-violation", "sanitizer", false),
        TraceEventKind::Fault { kind, .. } => (kind, "fault", false),
    }
}

fn write_event(w: &mut JsonWriter, ev: &TraceEvent) {
    let ts = ev.start_fs as f64 / 1e9; // fs → µs
    let (tid, _, _) = tid_of(&ev.kind);
    let (name, cat, span) = frame(&ev.kind);
    w.begin_object();
    event_head(w, name, cat, if span { "X" } else { "i" }, ts, tid);
    if span {
        w.field("dur", &(ev.dur_fs as f64 / 1e9));
    } else {
        w.field("s", "t");
    }
    w.key("args");
    w.begin_object();
    match &ev.kind {
        TraceEventKind::PacketInject {
            src,
            dst,
            class,
            bytes,
        } => {
            w.field("src", src);
            w.field("dst", dst);
            w.field("class", class);
            w.field("bytes", bytes);
        }
        TraceEventKind::PacketHop {
            router,
            port,
            queue_cycles,
            pipeline_cycles,
            serdes_cycles,
            ser_cycles,
            passthrough,
        } => {
            w.field("router", router);
            w.field("port", port);
            w.field("queue_cycles", queue_cycles);
            w.field("pipeline_cycles", pipeline_cycles);
            w.field("serdes_cycles", serdes_cycles);
            w.field("ser_cycles", ser_cycles);
            w.field("passthrough", passthrough);
        }
        TraceEventKind::PacketEject {
            dst,
            latency_cycles,
            hops,
        } => {
            w.field("dst", dst);
            w.field("latency_cycles", latency_cycles);
            w.field("hops", hops);
        }
        TraceEventKind::VaultService {
            hmc,
            vault,
            row_hit,
            bytes,
        } => {
            w.field("hmc", hmc);
            w.field("vault", vault);
            w.field("row_hit", row_hit);
            w.field("bytes", bytes);
        }
        TraceEventKind::CtaLaunch { gpu, sm, cta } | TraceEventKind::CtaRetire { gpu, sm, cta } => {
            w.field("gpu", gpu);
            w.field("sm", sm);
            w.field("cta", cta);
        }
        TraceEventKind::CtaSteal {
            victim,
            thief,
            count,
        } => {
            w.field("victim", victim);
            w.field("thief", thief);
            w.field("count", count);
        }
        TraceEventKind::Phase { .. } => {}
        TraceEventKind::PoolJob { job, attempt, .. } => {
            w.field("job", job);
            w.field("attempt", attempt);
        }
        TraceEventKind::SanitizerViolation { message } => w.field("message", message),
        TraceEventKind::Fault { target, detail, .. } => {
            w.field("target", target);
            w.field("detail", detail);
        }
    }
    w.end_object();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    fn hop(router: u32) -> TraceEventKind {
        TraceEventKind::PacketHop {
            router,
            port: 0,
            queue_cycles: 1,
            pipeline_cycles: 4,
            serdes_cycles: 4,
            ser_cycles: 1,
            passthrough: false,
        }
    }

    #[test]
    fn ring_buffer_drops_oldest_on_overflow() {
        let mut t = Tracer::new(4);
        for i in 0..10u32 {
            t.emit_instant(ClockDomain::Net, i as u64, hop(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let first = t.events().next().expect("nonempty");
        match first.kind {
            TraceEventKind::PacketHop { router, .. } => assert_eq!(router, 6, "oldest dropped"),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn clock_domains_scale_to_femtoseconds() {
        let mut t = Tracer::new(8);
        t.set_clock(ClockDomain::Net, 800_000.0); // 1.25 GHz
        t.set_clock(ClockDomain::Dram, 1_250_000.0); // tCK = 1.25 ns
        t.emit(ClockDomain::Net, 10, 2, hop(0));
        t.emit(
            ClockDomain::Dram,
            10,
            0,
            TraceEventKind::VaultService {
                hmc: 0,
                vault: 0,
                row_hit: true,
                bytes: 128,
            },
        );
        let evs: Vec<&TraceEvent> = t.events().collect();
        assert_eq!(evs[0].start_fs, 8_000_000);
        assert_eq!(evs[0].dur_fs, 1_600_000);
        assert_eq!(evs[1].start_fs, 12_500_000);
    }

    #[test]
    fn chrome_export_is_valid_and_sorted() {
        let mut t = Tracer::new(16);
        t.set_clock(ClockDomain::Net, 800_000.0);
        // Record out of order: export must sort.
        t.emit(ClockDomain::Net, 50, 3, hop(1));
        t.emit(ClockDomain::Net, 10, 2, hop(0));
        t.emit_fs(0, 1_000_000, TraceEventKind::Phase { name: "kernel" });
        let json = t.to_chrome_json(None);
        let v = parse(&json).expect("valid JSON");
        let evs = v
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("array");
        let mut last = f64::NEG_INFINITY;
        let mut timed = 0;
        for e in evs {
            if e.get("ph").and_then(JsonValue::as_str) == Some("M") {
                continue;
            }
            let ts = e.get("ts").and_then(JsonValue::as_f64).expect("ts");
            assert!(ts >= last, "timestamps must be non-decreasing");
            last = ts;
            timed += 1;
        }
        assert_eq!(timed, 3);
    }

    #[test]
    fn fault_events_land_on_their_own_track() {
        let mut t = Tracer::new(4);
        t.emit_fs(
            5_000_000,
            0,
            TraceEventKind::Fault {
                kind: "link-down",
                target: 3,
                detail: 0,
            },
        );
        let json = t.to_chrome_json(None);
        let v = parse(&json).expect("valid JSON");
        let evs = v
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("array");
        let fault = evs
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("link-down"))
            .expect("fault event present");
        assert_eq!(fault.get("cat").and_then(JsonValue::as_str), Some("fault"));
        assert!(
            evs.iter()
                .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M")
                    && e.get("tid").and_then(JsonValue::as_f64) == Some(4.0)),
            "faults thread-name metadata present"
        );
    }

    #[test]
    fn pool_events_land_on_the_pool_track() {
        let mut t = Tracer::new(4);
        t.emit_fs(
            1_000,
            0,
            TraceEventKind::PoolJob {
                what: "retry",
                job: 2,
                attempt: 1,
            },
        );
        let json = t.to_chrome_json(None);
        let v = parse(&json).expect("valid JSON");
        let evs = v
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("array");
        let ev = evs
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("retry"))
            .expect("pool event present");
        assert_eq!(ev.get("cat").and_then(JsonValue::as_str), Some("pool"));
        assert_eq!(ev.get("tid").and_then(JsonValue::as_f64), Some(6.0));
    }

    #[test]
    fn histogram_epochs_become_percentile_counter_tracks() {
        use crate::metrics::MetricsRegistry;
        let mut t = Tracer::new(4);
        t.emit_fs(0, 10, TraceEventKind::Phase { name: "kernel" });
        let mut m = MetricsRegistry::new();
        for v in [1u64, 8, 64] {
            m.record_hist("net.pkt_latency", v);
        }
        m.snapshot(2_000_000);
        let json = t.to_chrome_json(Some(&m));
        let v = parse(&json).expect("valid JSON");
        let evs = v
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("array");
        for pct in ["p50", "p90", "p99"] {
            let name = format!("net.pkt_latency.{pct}");
            assert!(
                evs.iter()
                    .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C")
                        && e.get("name").and_then(JsonValue::as_str) == Some(&name)),
                "missing {name} counter track"
            );
        }
    }

    #[test]
    fn metrics_epochs_become_counter_events() {
        use crate::metrics::MetricsRegistry;
        let mut t = Tracer::new(4);
        t.emit_fs(0, 10, TraceEventKind::Phase { name: "kernel" });
        let mut m = MetricsRegistry::new();
        m.add("net.flits", 5);
        m.snapshot(2_000_000);
        let json = t.to_chrome_json(Some(&m));
        let v = parse(&json).expect("valid JSON");
        let evs = v
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("array");
        assert!(
            evs.iter()
                .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C")
                    && e.get("name").and_then(JsonValue::as_str) == Some("net.flits")),
            "counter event present"
        );
    }
}

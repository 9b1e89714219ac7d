//! Profiling report: where a run's wall-clock time, allocations and
//! network capacity went.
//!
//! A [`ProfileReport`] is assembled by [`crate::SimBuilder::try_run_profiled`]
//! from three strictly read-only sources — the driver-loop [`Profiler`]
//! (wall-clock per clock domain, phase marks), the counting allocator
//! ([`memnet_obs::prof::alloc_stats`]), and end-of-run snapshots of
//! simulation statistics (flit-hops, CTAs, channel busy cycles). It is a
//! *separate* document from [`crate::SimReport`]: the determinism oracles
//! compare `SimReport` JSON byte-for-byte, and nothing wall-clock-derived
//! may leak into that document.

use memnet_noc::LinkUtilization;
use memnet_obs::prof::{AllocStats, PhaseMark, ProfCat, Profiler};
use memnet_obs::{HistSnapshot, JsonWriter};

/// Wall-clock attribution for one profiler category.
#[derive(Debug, Clone)]
pub struct DomainProfile {
    /// Category name (`"core-tick"`, `"net-tick"`, `"fast-forward"`, ...).
    pub name: &'static str,
    /// Accumulated wall nanoseconds.
    pub wall_ns: u64,
    /// Closed timer scopes (ticks of that domain, or bookkeeping passes).
    pub ticks: u64,
}

/// A named histogram digest in the profile.
#[derive(Debug, Clone)]
pub struct ProfileHist {
    /// Series name (`"net.pkt_latency_cycles"`, ...).
    pub name: &'static str,
    /// Count + log-bucket percentiles.
    pub snap: HistSnapshot,
}

/// Per-router / per-link utilization matrices for the heatmap export.
#[derive(Debug, Clone, Default)]
pub struct Heatmap {
    /// Mean busy fraction per dense router index.
    pub routers: Vec<f64>,
    /// Both directions of every builder link, builder order.
    pub links: Vec<LinkUtilization>,
}

impl Heatmap {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("routers");
        w.begin_array();
        for &u in &self.routers {
            w.value(&u);
        }
        w.end_array();
        w.key("links");
        w.begin_array();
        for l in &self.links {
            w.begin_object();
            w.field("tag", l.tag.name());
            w.field("a", &(l.routers.0 as u64));
            w.field("b", &(l.routers.1 as u64));
            w.field("up", &l.up);
            w.field("fwd_busy_frac", &l.fwd_busy_frac);
            w.field("rev_busy_frac", &l.rev_busy_frac);
            w.field("fwd_bytes", &l.fwd_bytes);
            w.field("rev_bytes", &l.rev_bytes);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    /// The heatmap alone as a pretty JSON document (what
    /// `memnet profile --heatmap FILE` writes and
    /// `examples/traffic_heatmap.rs` reads).
    pub fn to_json_string(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write_json(&mut w);
        let mut s = w.finish();
        s.push('\n');
        s
    }
}

/// Where the run's wall-clock time, allocations and network capacity
/// went. Everything here is derived from host-side observation; no field
/// feeds back into simulation state.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Engine mode name (`"cycle-stepped"` / `"event-driven"`).
    pub engine: &'static str,
    /// Wall nanoseconds from profiler creation to report assembly.
    pub wall_ns: u64,
    /// Per-category wall-clock attribution, [`ProfCat::all`] order.
    pub domains: Vec<DomainProfile>,
    /// Per-phase wall/allocation deltas, phase order.
    pub phases: Vec<PhaseMark>,
    /// Counting-allocator totals (zeros with `installed: false` when the
    /// `count-alloc` feature is off).
    pub alloc: AllocStats,
    /// Latency / queue-depth / occupancy distributions.
    pub hists: Vec<ProfileHist>,
    /// Network cycles elapsed over the run.
    pub net_cycles: u64,
    /// Flits committed onto channels (cost denominator).
    pub flit_hops: u64,
    /// CTAs retired across all GPUs (cost denominator).
    pub ctas_done: u64,
    /// Trace-ring drops observed (0 without tracing).
    pub trace_dropped: u64,
    /// Per-router / per-link utilization.
    pub heatmap: Heatmap,
}

impl ProfileReport {
    /// Collects the profiler + allocator side of the report. The caller
    /// fills in the simulation-statistic fields.
    pub(crate) fn from_profiler(p: &Profiler, engine: &'static str) -> ProfileReport {
        ProfileReport {
            engine,
            wall_ns: p.wall_ns(),
            domains: ProfCat::all()
                .iter()
                .map(|&c| DomainProfile {
                    name: c.name(),
                    wall_ns: p.total_ns(c),
                    ticks: p.ticks(c),
                })
                .collect(),
            phases: p.phases().to_vec(),
            alloc: memnet_obs::prof::alloc_stats(),
            hists: Vec::new(),
            net_cycles: 0,
            flit_hops: 0,
            ctas_done: 0,
            trace_dropped: 0,
            heatmap: Heatmap::default(),
        }
    }

    /// Mean wall nanoseconds per flit-hop (None when no flits moved).
    pub fn wall_ns_per_flit_hop(&self) -> Option<f64> {
        (self.flit_hops > 0).then(|| self.wall_ns as f64 / self.flit_hops as f64)
    }

    /// Mean wall nanoseconds per retired CTA (None when none retired).
    pub fn wall_ns_per_cta(&self) -> Option<f64> {
        (self.ctas_done > 0).then(|| self.wall_ns as f64 / self.ctas_done as f64)
    }

    /// The whole profile as one pretty JSON document.
    pub fn to_json_string(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field("engine", self.engine);
        w.field("wall_ns", &self.wall_ns);
        w.key("domains");
        w.begin_array();
        for d in &self.domains {
            w.begin_object();
            w.field("name", d.name);
            w.field("wall_ns", &d.wall_ns);
            w.field("ticks", &d.ticks);
            w.end_object();
        }
        w.end_array();
        w.key("phases");
        w.begin_array();
        for m in &self.phases {
            w.begin_object();
            w.field("name", m.name);
            w.field("wall_ns", &m.wall_ns);
            w.field("allocs", &m.allocs);
            w.field("alloc_bytes", &m.alloc_bytes);
            w.end_object();
        }
        w.end_array();
        w.key("alloc");
        w.begin_object();
        w.field("installed", &self.alloc.installed);
        w.field("allocs", &self.alloc.allocs);
        w.field("bytes", &self.alloc.bytes);
        w.field("live_bytes", &self.alloc.live_bytes);
        w.field("peak_bytes", &self.alloc.peak_bytes);
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for h in &self.hists {
            w.key(h.name);
            w.begin_object();
            w.field("count", &h.snap.count);
            w.field("p50", &h.snap.p50);
            w.field("p90", &h.snap.p90);
            w.field("p99", &h.snap.p99);
            w.field("max", &h.snap.max);
            w.end_object();
        }
        w.end_object();
        w.key("cost");
        w.begin_object();
        w.field("net_cycles", &self.net_cycles);
        w.field("flit_hops", &self.flit_hops);
        w.field("ctas_done", &self.ctas_done);
        match self.wall_ns_per_flit_hop() {
            Some(v) => w.field("wall_ns_per_flit_hop", &v),
            None => w.field("wall_ns_per_flit_hop", &f64::NAN), // writes null
        }
        match self.wall_ns_per_cta() {
            Some(v) => w.field("wall_ns_per_cta", &v),
            None => w.field("wall_ns_per_cta", &f64::NAN),
        }
        w.end_object();
        w.field("trace_dropped", &self.trace_dropped);
        w.key("heatmap");
        self.heatmap.write_json(&mut w);
        w.end_object();
        let mut s = w.finish();
        s.push('\n');
        s
    }
}

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
use memnet_obs::{HistSnapshot, JsonWriter, ToJson};

memnet_obs::to_json_struct! {
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
}

memnet_obs::to_json_struct! {
    /// Host work counts: what the network's loops and the driver's HMC
    /// pump visited, and what the fabric moved ([`memnet_noc::WorkCounts`]).
    /// Deterministic for a given run; they show where per-cycle work
    /// exceeds per-hop work.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct WorkProfile {
        /// Network ticks run.
        pub net_ticks: u64,
        /// Switch-allocation visits to an output port.
        pub allocate_visits: u64,
        /// Of those, visits that found the port's channel busy.
        pub busy_visits: u64,
        /// Packets moved through a router crossbar.
        pub switch_transfers: u64,
        /// Events scheduled on the network's calendar.
        pub calendar_events: u64,
        /// Credit returns to an upstream sender.
        pub credit_returns: u64,
        /// Visits to an endpoint's injection queue.
        pub inject_tries: u64,
        /// Eject-queue polls.
        pub eject_polls: u64,
        /// Driver visits to an HMC port that had nothing to do.
        pub idle_hmc_visits: u64,
    }
}

impl WorkProfile {
    /// The network's counts plus the driver's idle HMC-port visits. The
    /// calendar holds one arrival per transfer and per injection, and a
    /// credit returns for every packet that leaves a router buffer,
    /// forwarded or dead-lettered.
    pub fn new(net: &memnet_noc::Network, idle_hmc_visits: u64) -> WorkProfile {
        let (work, dead_letters) = (net.work(), net.stats().dead_letters);
        WorkProfile {
            net_ticks: work.ticks,
            allocate_visits: work.allocate_visits,
            busy_visits: work.busy_visits,
            switch_transfers: work.transfers,
            calendar_events: work.transfers + work.injections,
            credit_returns: work.transfers + dead_letters,
            inject_tries: work.inject_tries,
            eject_polls: work.eject_polls,
            idle_hmc_visits,
        }
    }
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

impl ToJson for Heatmap {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("routers", &self.routers);
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
}

impl Heatmap {
    /// The heatmap alone as a pretty JSON document (what
    /// `memnet profile --heatmap FILE` writes and
    /// `examples/traffic_heatmap.rs` reads).
    pub fn to_json_string(&self) -> String {
        self.to_json_pretty() + "\n"
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
    /// Host work counts.
    pub work: WorkProfile,
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
            work: WorkProfile::default(),
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
        w.field("domains", &self.domains);
        w.field("phases", &self.phases);
        w.field("alloc", &self.alloc);
        w.object_field("histograms", self.hists.iter().map(|h| (h.name, h.snap)));
        w.key("cost");
        w.begin_object();
        w.field("net_cycles", &self.net_cycles);
        w.field("flit_hops", &self.flit_hops);
        w.field("ctas_done", &self.ctas_done);
        // A ratio over an empty denominator is NaN, which writes null.
        let per_hop = self.wall_ns_per_flit_hop().unwrap_or(f64::NAN);
        let per_cta = self.wall_ns_per_cta().unwrap_or(f64::NAN);
        w.field("wall_ns_per_flit_hop", &per_hop);
        w.field("wall_ns_per_cta", &per_cta);
        w.end_object();
        w.field("trace_dropped", &self.trace_dropped);
        w.field("work", &self.work);
        w.field("heatmap", &self.heatmap);
        w.end_object();
        w.finish() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_noc::LinkTag;

    /// The profile and heatmap documents, pinned byte for byte from fixed
    /// values: no golden covers them, because a real profile carries
    /// wall-clock readings. With no flit-hops and no CTAs both cost ratios
    /// print `null`.
    #[test]
    fn profile_documents_keep_their_bytes() {
        let report = ProfileReport {
            engine: "event-driven",
            wall_ns: 9_000,
            domains: vec![
                DomainProfile {
                    name: "core-tick",
                    wall_ns: 4_000,
                    ticks: 40,
                },
                DomainProfile {
                    name: "net-tick",
                    wall_ns: 3_000,
                    ticks: 30,
                },
            ],
            phases: vec![
                PhaseMark {
                    name: "host-pre",
                    wall_ns: 1_000,
                    allocs: 2,
                    alloc_bytes: 64,
                },
                PhaseMark {
                    name: "kernel",
                    wall_ns: 7_500,
                    allocs: 5,
                    alloc_bytes: 1_024,
                },
            ],
            alloc: AllocStats {
                installed: true,
                allocs: 7,
                bytes: 1_088,
                live_bytes: 512,
                peak_bytes: 768,
            },
            hists: vec![ProfileHist {
                name: "net.pkt_latency_cycles",
                snap: HistSnapshot {
                    count: 5,
                    p50: 2,
                    p90: 8,
                    p99: 16,
                    max: 64,
                },
            }],
            net_cycles: 1_234,
            flit_hops: 0,
            ctas_done: 0,
            trace_dropped: 3,
            work: WorkProfile {
                net_ticks: 30,
                allocate_visits: 12,
                busy_visits: 4,
                switch_transfers: 8,
                calendar_events: 24,
                credit_returns: 8,
                inject_tries: 9,
                eject_polls: 10,
                idle_hmc_visits: 0,
            },
            heatmap: Heatmap {
                routers: vec![0.25, 0.5],
                links: vec![LinkUtilization {
                    tag: LinkTag::HmcHmc,
                    routers: (0, 1),
                    up: true,
                    fwd_busy_frac: 0.125,
                    rev_busy_frac: 0.0,
                    fwd_bytes: 4_096,
                    rev_bytes: 0,
                }],
            },
        };
        assert_eq!(
            report.to_json_string(),
            r#"{
  "engine": "event-driven",
  "wall_ns": 9000,
  "domains": [
    {
      "name": "core-tick",
      "wall_ns": 4000,
      "ticks": 40
    },
    {
      "name": "net-tick",
      "wall_ns": 3000,
      "ticks": 30
    }
  ],
  "phases": [
    {
      "name": "host-pre",
      "wall_ns": 1000,
      "allocs": 2,
      "alloc_bytes": 64
    },
    {
      "name": "kernel",
      "wall_ns": 7500,
      "allocs": 5,
      "alloc_bytes": 1024
    }
  ],
  "alloc": {
    "installed": true,
    "allocs": 7,
    "bytes": 1088,
    "live_bytes": 512,
    "peak_bytes": 768
  },
  "histograms": {
    "net.pkt_latency_cycles": {
      "count": 5,
      "p50": 2,
      "p90": 8,
      "p99": 16,
      "max": 64
    }
  },
  "cost": {
    "net_cycles": 1234,
    "flit_hops": 0,
    "ctas_done": 0,
    "wall_ns_per_flit_hop": null,
    "wall_ns_per_cta": null
  },
  "trace_dropped": 3,
  "work": {
    "net_ticks": 30,
    "allocate_visits": 12,
    "busy_visits": 4,
    "switch_transfers": 8,
    "calendar_events": 24,
    "credit_returns": 8,
    "inject_tries": 9,
    "eject_polls": 10,
    "idle_hmc_visits": 0
  },
  "heatmap": {
    "routers": [
      0.25,
      0.5
    ],
    "links": [
      {
        "tag": "hmc-hmc",
        "a": 0,
        "b": 1,
        "up": true,
        "fwd_busy_frac": 0.125,
        "rev_busy_frac": 0,
        "fwd_bytes": 4096,
        "rev_bytes": 0
      }
    ]
  }
}
"#
        );
        assert_eq!(
            report.heatmap.to_json_string(),
            r#"{
  "routers": [
    0.25,
    0.5
  ],
  "links": [
    {
      "tag": "hmc-hmc",
      "a": 0,
      "b": 1,
      "up": true,
      "fwd_busy_frac": 0.125,
      "rev_busy_frac": 0,
      "fwd_bytes": 4096,
      "rev_bytes": 0
    }
  ]
}
"#
        );
    }
}

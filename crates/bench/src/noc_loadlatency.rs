//! Extension — load–latency curves of the memory-network topologies.
//!
//! The classic NoC characterization the paper's topology arguments rest
//! on: offered load vs mean packet latency under uniform random traffic
//! (the pattern SKE workloads approximate, Section V-A) for every sliced
//! and distributor topology on the 4-GPU/16-HMC machine. Shows sFBFLY's
//! lower zero-load latency vs sMESH/sTORUS and its higher saturation
//! throughput, and dDFLY's early saturation (the reason the paper rejects
//! it for GPUs).

use crate::{ensure, find, sliced, Size};
use memnet_noc::topo::{build_clusters, SlicedKind, TopologyKind};
use memnet_noc::traffic::{run_load_point, Pattern};
use memnet_noc::{NetworkBuilder, NocParams};

memnet_obs::to_json_struct! {
    pub struct Point {
        pub topology: &'static str,
        pub offered: f64,
        pub accepted: f64,
        pub latency_cycles: f64,
        pub saturated: bool,
    }
}

/// Every topology's curve: two loads at the small sizes, ten otherwise.
pub fn run(size: Size) -> Vec<Point> {
    let topos = [
        sliced(SlicedKind::Mesh, false),
        sliced(SlicedKind::Torus, false),
        sliced(SlicedKind::Fbfly, false),
        TopologyKind::DistributorFbfly,
        TopologyKind::DistributorDfly,
    ];
    let loads = if size.small() {
        vec![0.1, 0.5]
    } else {
        vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    let mut rows = Vec::new();
    for t in topos {
        for &load in &loads {
            let mut b = NetworkBuilder::new(NocParams::default());
            let c = build_clusters(&mut b, 4, 4, 8, t);
            let mut net = b.build();
            let (eps, hmcs) = (&c.device_eps, &c.hmc_eps_flat());
            let p = run_load_point(
                &mut net,
                eps,
                hmcs,
                Pattern::Uniform,
                load,
                1_000,
                5_000,
                42,
            );
            rows.push(Point {
                topology: t.name(),
                offered: load,
                accepted: p.accepted,
                latency_cycles: p.latency.mean(),
                saturated: p.saturated,
            });
        }
    }
    rows
}

/// Prints each curve, latency per offered load.
pub fn print(rows: &[Point]) {
    let title = "Extension: load-latency of memory-network topologies (uniform traffic)";
    crate::table(
        title,
        rows,
        &[
            "offered load = GPU-injected packets/endpoint/cycle toward uniform HMCs",
            "expected: sFBFLY ~ dFBFLY with half the channels; sMESH highest latency;",
            "dDFLY saturates earliest (single global channel per cluster pair)",
        ],
    );
}

/// The curves' bands: sFBFLY's curve is dFBFLY's, because device-sourced
/// traffic never uses intra-cluster channels; at the lowest load sFBFLY
/// beats sTORUS beats sMESH; at the highest, dDFLY accepts the least.
pub fn check(rows: &[Point], _size: Size) -> Result<(), String> {
    let (lo, hi) = (
        rows[0].offered,
        rows.iter().map(|r| r.offered).fold(0.0, f64::max),
    );
    let at = |t: &str, load: f64| find(rows, t, |r| r.topology == t && r.offered == load);
    for s in rows.iter().filter(|r| r.topology == "sFBFLY") {
        let d = at("dFBFLY", s.offered)?;
        let same_curve = (d.latency_cycles, d.accepted) == (s.latency_cycles, s.accepted);
        ensure!(same_curve, "load {}", s.offered);
    }
    let latency = |t| at(t, lo).map(|r| r.latency_cycles);
    let (f, t, m) = (latency("sFBFLY")?, latency("sTORUS")?, latency("sMESH")?);
    ensure!(f < t && t < m, "load {lo}: {f:.1}, {t:.1}, {m:.1}");
    let dfly = at("dDFLY", hi)?.accepted;
    let at_hi = rows.iter().filter(|r| r.offered == hi);
    let least = at_hi.map(|r| r.accepted).fold(f64::INFINITY, f64::min);
    ensure!(dfly == least, "load {hi}: {dfly:.3} vs {least:.3}");
    Ok(())
}

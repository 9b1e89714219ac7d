//! Extension — load–latency curves of the memory-network topologies.
//!
//! The classic NoC characterization the paper's topology arguments rest
//! on: offered load vs mean packet latency under uniform random traffic
//! (the pattern SKE workloads approximate, Section V-A) for every sliced
//! and distributor topology on the 4-GPU/16-HMC machine. Shows sFBFLY's
//! lower zero-load latency vs sMESH/sTORUS and its higher saturation
//! throughput, and dDFLY's early saturation (the reason the paper rejects
//! it for GPUs).

use memnet_noc::topo::{build_clusters, SlicedKind, TopologyKind};
use memnet_noc::traffic::{run_load_point, Pattern};
use memnet_noc::{NetworkBuilder, NocParams};

memnet_obs::to_json_struct! {
    struct Point {
        topology: &'static str,
        offered: f64,
        accepted: f64,
        latency_cycles: f64,
        saturated: bool,
    }
}

fn main() {
    memnet_bench::header("Extension: load-latency of memory-network topologies (uniform traffic)");
    let topos = [
        TopologyKind::Sliced {
            kind: SlicedKind::Mesh,
            double: false,
        },
        TopologyKind::Sliced {
            kind: SlicedKind::Torus,
            double: false,
        },
        TopologyKind::Sliced {
            kind: SlicedKind::Fbfly,
            double: false,
        },
        TopologyKind::DistributorFbfly,
        TopologyKind::DistributorDfly,
    ];
    let loads = if memnet_bench::fast_mode() {
        vec![0.1, 0.5]
    } else {
        vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    let mut rows = Vec::new();
    println!("  offered load = GPU-injected packets/endpoint/cycle toward uniform HMCs");
    for t in topos {
        print!("  {:<8}", t.name());
        for &load in &loads {
            let mut b = NetworkBuilder::new(NocParams::default());
            let c = build_clusters(&mut b, 4, 4, 8, t);
            let mut net = b.build();
            let p = run_load_point(
                &mut net,
                &c.device_eps,
                &c.hmc_eps_flat(),
                Pattern::Uniform,
                load,
                1_000,
                5_000,
                42,
            );
            print!(
                " {:>6.1}{}",
                p.latency.mean(),
                if p.saturated { "*" } else { " " }
            );
            rows.push(Point {
                topology: t.name(),
                offered: load,
                accepted: p.accepted,
                latency_cycles: p.latency.mean(),
                saturated: p.saturated,
            });
        }
        println!("   (latency cycles per load {loads:?}; * = saturated)");
    }
    println!("\n  expected: sFBFLY ~ dFBFLY with half the channels; sMESH highest latency;");
    println!("  dDFLY saturates earliest (single global channel per cluster pair)");
    memnet_bench::write_json("noc_loadlatency", &rows);
}

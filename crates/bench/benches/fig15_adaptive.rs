//! Fig. 15 — minimal (MIN) vs. load-balanced (UGAL) routing on the
//! distributor-based dragonfly and flattened butterfly.
//!
//! Paper: adaptive routing gains only ~1–2 % for balanced workloads
//! (KMN, CP) because random traffic self-balances; CG.S gains **9.5 %** on
//! dFBFLY because its traffic is imbalanced (Fig. 10(b)).

use memnet_core::Organization;
use memnet_noc::topo::TopologyKind;
use memnet_noc::RoutingPolicy;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Row {
        workload: &'static str,
        topology: &'static str,
        min_kernel_ns: f64,
        ugal_kernel_ns: f64,
        ugal_gain_pct: f64,
        nonminimal_packets: u64,
    }
}

fn main() {
    memnet_bench::header("Fig. 15: MIN vs UGAL on dDFLY and dFBFLY (GMN kernel time)");
    let topos = [
        TopologyKind::DistributorDfly,
        TopologyKind::DistributorFbfly,
    ];
    let workloads = [Workload::Kmn, Workload::Cp, Workload::CgS];
    let routings = [RoutingPolicy::Minimal, RoutingPolicy::Ugal];
    let dims = [workloads.len(), topos.len(), routings.len()];
    let reports = memnet_bench::grid(dims, |[wi, ti, ri]| {
        memnet_bench::eval_builder(Organization::Gmn, workloads[wi])
            .topology(topos[ti])
            .routing(routings[ri])
    });

    let mut rows = Vec::new();
    for (wi, w) in workloads.into_iter().enumerate() {
        for (ti, topo) in topos.into_iter().enumerate() {
            let min = &reports[[wi, ti, 0]];
            let ugal = &reports[[wi, ti, 1]];
            assert!(!min.timed_out && !ugal.timed_out, "{} timed out", w.abbr());
            let gain = 100.0 * (min.kernel_ns / ugal.kernel_ns - 1.0);
            println!(
                "  {:<5} {:<7} MIN {:>11.0} ns   UGAL {:>11.0} ns   gain {:>6.1}%   (nonmin pkts {})",
                w.abbr(),
                topo.name(),
                min.kernel_ns,
                ugal.kernel_ns,
                gain,
                ugal.nonminimal
            );
            rows.push(Row {
                workload: w.abbr(),
                topology: topo.name(),
                min_kernel_ns: min.kernel_ns,
                ugal_kernel_ns: ugal.kernel_ns,
                ugal_gain_pct: gain,
                nonminimal_packets: ugal.nonminimal,
            });
        }
    }
    println!("  paper: ~1-2% for KMN/CP; +9.5% for CG.S on dFBFLY");
    memnet_bench::write_json("fig15_adaptive", &rows);
}

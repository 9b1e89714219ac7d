//! Fig. 18 — host-thread (CPU) performance under different UMN designs.
//!
//! 1 CPU + 3 GPUs + 16 HMCs, the two workloads that compute on the CPU
//! (CG.S and FT.S), comparing sMESH, sFBFLY, and sFBFLY with the CPU
//! overlay (serial pass-through paths, Section V-C). Paper: the overlay is
//! fastest — pass-through slashes per-hop latency even though hop count is
//! higher; sFBFLY beats sMESH on hop count.

use memnet_core::Organization;
use memnet_noc::topo::{SlicedKind, TopologyKind};
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Row {
        workload: &'static str,
        design: &'static str,
        host_ns: f64,
        total_ns: f64,
        avg_pkt_latency_ns: f64,
        passthrough: u64,
    }
}

fn main() {
    memnet_bench::header("Fig. 18: host-thread performance on UMN (1 CPU + 3 GPU + 16 HMC)");
    let designs: [(&'static str, TopologyKind, bool); 3] = [
        (
            "sMESH",
            TopologyKind::Sliced {
                kind: SlicedKind::Mesh,
                double: false,
            },
            false,
        ),
        (
            "sFBFLY",
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false,
            },
            false,
        ),
        (
            "overlay",
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false,
            },
            true,
        ),
    ];
    let workloads = [Workload::CgS, Workload::FtS];
    let reports = memnet_bench::grid([workloads.len(), designs.len()], |[wi, di]| {
        let (_, topo, overlay) = designs[di];
        memnet_bench::eval_builder(Organization::Umn, workloads[wi])
            .gpus(3)
            .topology(topo)
            .overlay(overlay)
    });

    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        println!("\n{}:", w.abbr());
        for (di, (name, _, _)) in designs.iter().enumerate() {
            let r = &reports[[wi, di]];
            assert!(!r.timed_out, "{} {name} timed out", w.abbr());
            println!(
                "  {:<8} host {:>11.0} ns   total {:>11.0} ns   pkt-lat {:>6.1} ns   passthrough {}",
                name, r.host_ns, r.total_ns(), r.avg_pkt_latency_ns, r.passthrough
            );
            rows.push(Row {
                workload: w.abbr(),
                design: name,
                host_ns: r.host_ns,
                total_ns: r.total_ns(),
                avg_pkt_latency_ns: r.avg_pkt_latency_ns,
                passthrough: r.passthrough,
            });
        }
    }
    println!("\n  paper: overlay > sFBFLY > sMESH for host-thread performance");
    memnet_bench::write_json("fig18_overlay", &rows);
}

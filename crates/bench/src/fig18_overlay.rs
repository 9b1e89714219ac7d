//! Fig. 18 — host-thread (CPU) performance under different UMN designs.
//!
//! 1 CPU + 3 GPUs + 16 HMCs, the two workloads that compute on the CPU
//! (CG.S and FT.S), comparing sMESH, sFBFLY, and sFBFLY with the CPU
//! overlay (serial pass-through paths, Section V-C). Paper: the overlay is
//! fastest — pass-through slashes per-hop latency even though hop count is
//! higher; sFBFLY beats sMESH on hop count.

use crate::{ensure, find, sliced, Size};
use memnet_core::Organization;
use memnet_noc::topo::{SlicedKind, TopologyKind};
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    pub struct Row {
        pub workload: &'static str,
        pub design: &'static str,
        pub host_ns: f64,
        pub total_ns: f64,
        pub avg_pkt_latency_ns: f64,
        pub passthrough: u64,
    }
}

const DESIGNS: [(&str, TopologyKind, bool); 3] = [
    ("sMESH", sliced(SlicedKind::Mesh, false), false),
    ("sFBFLY", sliced(SlicedKind::Fbfly, false), false),
    ("overlay", sliced(SlicedKind::Fbfly, false), true),
];

/// CG.S and FT.S on the three UMN designs.
pub fn run(size: Size) -> Vec<Row> {
    let workloads = [Workload::CgS, Workload::FtS];
    let reports = crate::grid([workloads.len(), DESIGNS.len()], |[wi, di]| {
        let (_, topo, overlay) = DESIGNS[di];
        (size.builder(Organization::Umn, workloads[wi]))
            .gpus(3)
            .topology(topo)
            .overlay(overlay)
    });
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for ((design, _, _), r) in DESIGNS.iter().zip(reports.row(wi)) {
            rows.push(Row {
                workload: w.abbr(),
                design,
                host_ns: r.host_ns,
                total_ns: r.total_ns(),
                avg_pkt_latency_ns: r.avg_pkt_latency_ns,
                passthrough: r.passthrough,
            });
        }
    }
    rows
}

/// Prints host and total time, packet latency and pass-through hops.
pub fn print(rows: &[Row]) {
    let title = "Fig. 18: host-thread performance on UMN (1 CPU + 3 GPU + 16 HMC)";
    crate::table(
        title,
        rows,
        &["paper: overlay > sFBFLY > sMESH for host-thread performance"],
    );
}

/// Fig. 18's bands: host time orders overlay < sFBFLY < sMESH, and the
/// overlay carries the CPU's packets.
pub fn check(rows: &[Row], _size: Size) -> Result<(), String> {
    for w in ["CG.S", "FT.S"] {
        let at = |d: &str| find(rows, d, |r| r.workload == w && r.design == d);
        let (m, f, overlay) = (at("sMESH")?.host_ns, at("sFBFLY")?.host_ns, at("overlay")?);
        let o = overlay.host_ns;
        ensure!(overlay.passthrough > 0, "{w}: overlay");
        // Host phases read GPU-written output over the network;
        // pass-through should not be slower.
        ensure!(o <= f * 1.10, "{w}: overlay {o}, sFBFLY {f}");
        ensure!(o < f && f < m, "{w}: {o}, {f}, {m} ns");
    }
    Ok(())
}

//! Figs. 16 and 17 — kernel time and network energy of the sliced
//! memory-network topologies: one sweep, two artifacts.
//!
//! GMN kernels on sMESH, sTORUS, sMESH-2x, sTORUS-2x and sFBFLY across all
//! workloads. Fig. 16: the `-2x` variants beat their single-channel
//! versions by adding bandwidth; sFBFLY is best or comparable everywhere —
//! equal bisection bandwidth to sTORUS-2x but lower hop count. Fig. 17
//! reads the same runs' interconnect energy (2.0 pJ/bit active, 1.5 pJ/bit
//! idle): the `-2x` variants burn more power but lower *energy* by
//! 6.8 % / 4.8 % through shorter runtime; sFBFLY reduces energy up to
//! **50.7 %** (BP) and **20.3 %** on average vs sMESH.

use crate::{ensure, sliced, Size};
use memnet_core::Organization;
use memnet_noc::topo::{SlicedKind, TopologyKind};
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    pub struct Row {
        pub workload: &'static str,
        pub topology: &'static str,
        pub kernel_ns: f64,
        pub avg_hops: f64,
        pub energy_mj: f64,
    }
}

memnet_obs::to_json_struct! {
    /// A Fig. 17 row: the energy view of a [`Row`].
    pub struct EnergyRow {
        pub workload: &'static str,
        pub topology: &'static str,
        pub energy_mj: f64,
        pub kernel_ns: f64,
    }
}

/// The five sliced topologies, in column order.
const TOPOLOGIES: [TopologyKind; 5] = [
    sliced(SlicedKind::Mesh, false),
    sliced(SlicedKind::Torus, false),
    sliced(SlicedKind::Mesh, true),
    sliced(SlicedKind::Torus, true),
    sliced(SlicedKind::Fbfly, false),
];

/// The workloads whose runtime, not idle channel power, sets the energy.
const BANDWIDTH_BOUND: [&str; 4] = ["KMN", "BP", "BFS", "CG.S"];

/// Every workload on every sliced topology; the test size runs BP.
pub fn run(size: Size) -> Vec<Row> {
    let workloads = size.pick(vec![Workload::Bp], Workload::table2().to_vec());
    let reports = crate::grid([workloads.len(), TOPOLOGIES.len()], |[wi, ti]| {
        size.builder(Organization::Gmn, workloads[wi])
            .topology(TOPOLOGIES[ti])
    });
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for (t, r) in TOPOLOGIES.iter().zip(reports.row(wi)) {
            rows.push(Row {
                workload: w.abbr(),
                topology: t.name(),
                kernel_ns: r.kernel_ns,
                avg_hops: r.avg_hops,
                energy_mj: r.energy_mj,
            });
        }
    }
    rows
}

/// The Fig. 17 artifact's rows.
pub fn energy(rows: &[Row]) -> Vec<EnergyRow> {
    (rows.iter())
        .map(|r| EnergyRow {
            workload: r.workload,
            topology: r.topology,
            energy_mj: r.energy_mj,
            kernel_ns: r.kernel_ns,
        })
        .collect()
}

/// Prints both figures, and sFBFLY's energy saving over sMESH.
pub fn print(rows: &[Row]) {
    let title = "Figs. 16 and 17: kernel time and network energy of sliced topologies (GMN)";
    crate::table(
        title,
        rows,
        &["paper: sFBFLY better or comparable to sMESH-2x/sTORUS-2x on most workloads"],
    );
    let savings: Vec<f64> = (rows.chunks(TOPOLOGIES.len()))
        .map(|per| 100.0 * (1.0 - per[4].energy_mj / per[0].energy_mj))
        .collect();
    let avg = savings.iter().sum::<f64>() / savings.len().max(1) as f64;
    let max = savings.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("  sFBFLY energy vs sMESH: avg {avg:.1}% saved, max {max:.1}%");
    println!("  paper: 20.3% avg, 50.7% max for BP");
}

/// The bands of both figures: sFBFLY best or within 5 % everywhere, no
/// slower and fewer hops than sMESH, and less energy where bandwidth sets
/// the runtime. Elsewhere the idle power of its extra channels may
/// outweigh the shorter run, which is the trade-off the paper discusses.
pub fn check(rows: &[Row], _size: Size) -> Result<(), String> {
    for per in rows.chunks(TOPOLOGIES.len()) {
        let (mesh, fbfly, w) = (&per[0], &per[4], per[0].workload);
        let best = per
            .iter()
            .map(|r| r.kernel_ns)
            .fold(f64::INFINITY, f64::min);
        let (f, m) = (fbfly.kernel_ns, mesh.kernel_ns);
        ensure!(f <= best * 1.05, "{w}: sFBFLY {f}, best {best}");
        ensure!(f <= m, "{w}: sFBFLY {f}, sMESH {m}");
        ensure!(fbfly.avg_hops <= mesh.avg_hops, "{w} hops");
        // Lower runtime at similar power means less energy.
        let (f, m) = (fbfly.energy_mj, mesh.energy_mj);
        ensure!(!BANDWIDTH_BOUND.contains(&w) || f <= m, "{w}: {f} mJ");
    }
    Ok(())
}

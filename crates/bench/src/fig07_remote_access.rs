//! Fig. 7 — cost of remote memory access for vectorAdd.
//!
//! One GPU executes vectorAdd while the data is distributed across 1, 2 or
//! 4 GPU memories.
//!
//! * (a) PCIe-based system: the paper measured up to **11.7× slowdown** on
//!   NVIDIA M2050s as remote fraction grows — remote accesses cross the
//!   shared PCIe switch.
//! * (b) GPU memory network (sFBFLY): 50 % remote is *faster* than all
//!   local (more vaults/banks in parallel); 75 % plateaus because the
//!   GPU's own channels saturate.

use crate::{ensure, find, Size};
use memnet_core::Organization;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    pub struct Row {
        pub system: &'static str,
        pub clusters: usize,
        pub remote_fraction: f64,
        pub kernel_ns: f64,
        pub normalized: f64,
    }
}

const PCIE: &str = "PCIe (a)";
const GMN: &str = "GMN sFBFLY (b)";

/// Both systems at 0 %, 50 % and 75 % remote data.
pub fn run(size: Size) -> Vec<Row> {
    let cases = [(1u32, 0.0), (2, 0.5), (4, 0.75)];
    let systems = [(PCIE, Organization::Pcie), (GMN, Organization::Gmn)];
    let reports = crate::grid([systems.len(), cases.len()], |[si, ci]| {
        size.builder(systems[si].1, Workload::VecAdd)
            .active_gpus(1)
            .data_clusters((0..cases[ci].0).collect())
    });
    let mut rows = Vec::new();
    for (si, (system, _)) in systems.into_iter().enumerate() {
        let base = reports[[si, 0]].kernel_ns;
        for ((clusters, remote), r) in cases.iter().zip(reports.row(si)) {
            rows.push(Row {
                system,
                clusters: *clusters as usize,
                remote_fraction: *remote,
                kernel_ns: r.kernel_ns,
                normalized: r.kernel_ns / base,
            });
        }
    }
    rows
}

/// Prints the normalized kernel times per system.
pub fn print(rows: &[Row]) {
    let title = "Fig. 7: vectorAdd kernel time vs. data distribution (1 executing GPU)";
    crate::table(
        title,
        rows,
        &[
            "paper: (a) up to 11.7x slowdown at 4 memories (measured M2050)",
            "paper: (b) 50% remote is FASTER than local-only; 75% plateaus",
        ],
    );
}

/// Fig. 7's bands: remote data is several times slower over PCIe and
/// nearly free on the memory network.
pub fn check(rows: &[Row], size: Size) -> Result<(), String> {
    let at = |s: &str, n| find(rows, s, |r| r.system == s && r.clusters == n);
    let (pcie, gmn) = (at(PCIE, 4)?.normalized, at(GMN, 2)?.normalized);
    // The small input on 16-SM GPUs is too short to queue deep on the PCIe
    // switch: 2.0× at the fast size, against 4.9× scaled and > 3× on the
    // test size's 2-SM GPUs.
    let slow = if size == Size::Fast { 1.5 } else { 3.0 };
    ensure!(pcie > slow, "PCIe 75% remote {pcie:.2}x");
    ensure!(gmn < 1.3, "GMN 50% remote {gmn:.2}x");
    Ok(())
}

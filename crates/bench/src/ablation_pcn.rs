//! Extension ablation — memory-centric vs processor-centric networks.
//!
//! The paper argues (Section II-B) that NVLink-style designs are
//! processor-centric networks (PCN): fast device-to-device channels, but
//! remote memory still sits behind its owning GPU. This target compares
//! the PCN baseline against the paper's memory-centric organizations on
//! bandwidth-bound and latency-bound workloads. Expected shape: PCN beats
//! PCIe soundly (more bandwidth), but GMN/UMN still win because remote
//! traffic skips the remote GPU entirely.

use crate::{ensure, Size};
use memnet_core::Organization;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    pub struct Row {
        pub workload: &'static str,
        pub org: &'static str,
        pub kernel_ns: f64,
        pub memcpy_ns: f64,
        pub total_ns: f64,
    }
}

const ORGS: [Organization; 4] = [
    Organization::Pcie,
    Organization::Pcn,
    Organization::Gmn,
    Organization::Umn,
];

/// BP, BFS and CP on PCIe, PCN, GMN and UMN; the test size runs BP.
pub fn run(size: Size) -> Vec<Row> {
    use Workload::{Bfs, Bp, Cp};
    let workloads = size.pick(vec![Bp], vec![Bp, Bfs, Cp]);
    let reports = crate::grid([workloads.len(), ORGS.len()], |[wi, oi]| {
        size.builder(ORGS[oi], workloads[wi])
    });
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for r in reports.row(wi) {
            rows.push(Row {
                workload: w.abbr(),
                org: r.org.name(),
                kernel_ns: r.kernel_ns,
                memcpy_ns: r.memcpy_ns,
                total_ns: r.total_ns(),
            });
        }
    }
    rows
}

/// Prints each organization's breakdown.
pub fn print(rows: &[Row]) {
    let title = "Extension: processor-centric (NVLink-style) vs memory-centric networks";
    crate::table(
        title,
        rows,
        &[
            "expected shape: PCN beats PCIe soundly (NVLink-class links speed both",
            "memcpy and remote access), but GMN/UMN kernels stay faster because",
            "remote traffic skips the remote GPU entirely; UMN wins totals by",
            "eliminating copies (Section II-B).",
        ],
    );
}

/// The expected shape, per workload: PCN's total beats PCIe's, GMN and UMN
/// kernels are no slower than PCN's, and UMN has the lowest total.
pub fn check(rows: &[Row], _size: Size) -> Result<(), String> {
    for per in rows.chunks(ORGS.len()) {
        let [pcie, pcn, gmn, umn] = per else {
            return Err("a workload lacks an organization".into());
        };
        let w = pcie.workload;
        ensure!(pcn.total_ns < pcie.total_ns, "{w}: PCN vs PCIe");
        // CP is compute-bound: its kernels tie within 1 % on every network
        // (GMN's is 0.6 % slower than PCN's at the scaled size).
        let p = pcn.kernel_ns * if w == "CP" { 1.01 } else { 1.0 };
        let (g, u) = (gmn.kernel_ns, umn.kernel_ns);
        ensure!(g <= p && u <= p, "{w}: GMN {g}, UMN {u}, PCN {p}");
        let umn_lowest = per.iter().all(|r| umn.total_ns <= r.total_ns);
        ensure!(umn_lowest, "{w}: UMN total");
    }
    Ok(())
}

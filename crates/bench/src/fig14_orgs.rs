//! Fig. 14 — runtime breakdown across multi-GPU organizations.
//!
//! All Table II workloads on PCIe, PCIe-ZC, CMN, CMN-ZC, GMN, GMN-ZC and
//! UMN. Paper reference points:
//!
//! * UMN is fastest everywhere, reducing total runtime **8.5×** vs PCIe;
//! * GMN cuts kernel time up to **8.8×** (BP), **3.5×** on average;
//! * CMN / CMN-ZC reduce total runtime **1.8× / 2.2×**;
//! * GMN-ZC equals PCIe-ZC (GPU memory never used under zero-copy);
//! * memcpy dominates 3DFD, BP, SCAN, so zero-copy wins there;
//! * BFS kernel under PCIe-ZC is ~2.75× slower than with staged data.

use crate::{ensure, find, Size};
use memnet_core::Organization;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    pub struct Row {
        pub workload: &'static str,
        pub org: &'static str,
        pub kernel_ns: f64,
        pub memcpy_ns: f64,
        pub host_ns: f64,
        pub total_ns: f64,
        pub timed_out: bool,
    }
}

/// Every workload on every organization; the test size runs BP, KMN and
/// SCAN on 2 GPUs.
pub fn run(size: Size) -> Vec<Row> {
    use Workload::{Bp, Kmn, Scan};
    let workloads = size.pick(vec![Bp, Kmn, Scan], Workload::table2().to_vec());
    let orgs = Organization::all();
    let reports = crate::grid([workloads.len(), orgs.len()], |[wi, oi]| {
        size.builder(orgs[oi], workloads[wi]).gpus(size.pick(2, 4))
    });
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for r in reports.row(wi) {
            rows.push(Row {
                workload: w.abbr(),
                org: r.org.name(),
                kernel_ns: r.kernel_ns,
                memcpy_ns: r.memcpy_ns,
                host_ns: r.host_ns,
                total_ns: r.total_ns(),
                timed_out: r.timed_out,
            });
        }
    }
    rows
}

/// Prints each workload's breakdown and the geomean speedups over PCIe.
pub fn print(rows: &[Row]) {
    crate::table(
        "Fig. 14: runtime breakdown (memcpy + kernel) per organization",
        rows,
        &[],
    );
    // Geomean over workloads of PCIe's time over `org`'s (kernel or total).
    let speedup = |org: usize, kernel: bool| {
        let of = |r: &Row| if kernel { r.kernel_ns } else { r.total_ns };
        let per_workload = rows.chunks(Organization::all().len());
        let ratios: Vec<f64> = per_workload.map(|o| of(&o[0]) / of(&o[org])).collect();
        crate::geomean(&ratios)
    };
    println!("\nSummary (geometric means across workloads), paper in parentheses:");
    println!(
        "  GMN kernel speedup vs PCIe: {:.2}x (3.5x)",
        speedup(4, true)
    );
    for (org, name, paper) in [(6, "UMN", 8.5), (2, "CMN", 1.8), (3, "CMN-ZC", 2.2)] {
        let total = speedup(org, false);
        println!("  {name} total speedup vs PCIe: {total:.2}x ({paper}x)");
    }
}

/// The workloads on which CMN-ZC's total beats UMN's (Known deviation 5):
/// `None` where the set was never measured.
fn cmn_zc_leads(size: Size) -> Option<&'static [&'static str]> {
    match size {
        Size::Test => Some(&[]),
        Size::Fast => Some(&["BH", "FT.S", "RAY"]),
        Size::Scaled => Some(&["CG.S", "FT.S"]),
        Size::Full => None,
    }
}

/// Fig. 14's bands: UMN fastest as it actually holds, the memory network
/// beating PCIe on BP, the SCAN zero-copy crossover, GMN-ZC ≡ PCIe-ZC.
pub fn check(rows: &[Row], size: Size) -> Result<(), String> {
    let at = |w: &str, org: &str| find(rows, org, |r| r.workload == w && r.org == org);
    for per_org in rows.chunks(Organization::all().len()) {
        let w = per_org[0].workload;
        let by_total = |a: &&Row, b: &&Row| a.total_ns.total_cmp(&b.total_ns);
        let best = per_org.iter().min_by(by_total).map_or("", |r| r.org);
        let want = match cmn_zc_leads(size) {
            Some(set) if set.contains(&w) => "CMN-ZC",
            Some(_) => "UMN",
            None => ["UMN", "CMN-ZC"]
                .into_iter()
                .find(|&o| o == best)
                .unwrap_or("UMN"),
        };
        ensure!(best == want, "{w}: {best} is fastest, want {want}");
        // Under zero-copy the GPU memory network is never used, so the two
        // configurations are the same system (paper, Section VI-B).
        let (a, b) = (at(w, "GMN-ZC")?.kernel_ns, at(w, "PCIe-ZC")?.kernel_ns);
        ensure!((a - b).abs() / b < 0.05, "{w}: GMN-ZC {a}, PCIe-ZC {b}");
    }
    let (pcie, gmn, umn) = (at("BP", "PCIe")?, at("BP", "GMN")?, at("BP", "UMN")?);
    ensure!(gmn.kernel_ns < pcie.kernel_ns, "BP kernels");
    ensure!(umn.total_ns < pcie.total_ns, "BP totals");
    ensure!(umn.total_ns < gmn.total_ns, "BP totals");
    // SCAN: copy time >> kernel time, so zero-copy wins in total although
    // its kernel pays PCIe on every access.
    let (scan, zc) = (at("SCAN", "PCIe")?, at("SCAN", "PCIe-ZC")?);
    ensure!(scan.memcpy_ns > scan.kernel_ns, "SCAN on PCIe");
    ensure!(zc.total_ns < scan.total_ns, "SCAN totals");
    ensure!(zc.kernel_ns > scan.kernel_ns, "SCAN kernels");
    Ok(())
}

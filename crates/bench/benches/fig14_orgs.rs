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

use memnet_core::Organization;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Row {
        workload: &'static str,
        org: &'static str,
        kernel_ns: f64,
        memcpy_ns: f64,
        host_ns: f64,
        total_ns: f64,
        timed_out: bool,
    }
}

fn main() {
    memnet_bench::header("Fig. 14: runtime breakdown (memcpy + kernel) per organization");
    let workloads = Workload::table2();
    let orgs = Organization::all();
    let reports = memnet_bench::grid([workloads.len(), orgs.len()], |[wi, oi]| {
        memnet_bench::eval_builder(orgs[oi], workloads[wi])
    });

    let mut rows = Vec::new();
    let mut gmn_speedups = Vec::new();
    let mut umn_speedups = Vec::new();
    let mut cmn_speedups = Vec::new();
    let mut cmnzc_speedups = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        println!("\n{}:", w.abbr());
        println!(
            "  {:<9} {:>12} {:>12} {:>12} {:>12}",
            "org", "kernel ns", "memcpy ns", "host ns", "total ns"
        );
        let per_org = reports.row(wi);
        for r in per_org {
            println!(
                "  {:<9} {:>12.0} {:>12.0} {:>12.0} {:>12.0}{}",
                r.org.name(),
                r.kernel_ns,
                r.memcpy_ns,
                r.host_ns,
                r.total_ns(),
                if r.timed_out { "  [TIMED OUT]" } else { "" }
            );
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
        let pcie = &per_org[0];
        let gmn = &per_org[4];
        let umn = &per_org[6];
        gmn_speedups.push(pcie.kernel_ns / gmn.kernel_ns);
        umn_speedups.push(pcie.total_ns() / umn.total_ns());
        cmn_speedups.push(pcie.total_ns() / per_org[2].total_ns());
        cmnzc_speedups.push(pcie.total_ns() / per_org[3].total_ns());
    }

    let max_gmn = gmn_speedups.iter().cloned().fold(0.0, f64::max);
    println!("\nSummary (geometric means across workloads):");
    println!(
        "  GMN kernel speedup vs PCIe : avg {:.2}x, max {:.2}x   (paper: 3.5x avg, 8.8x max for BP)",
        memnet_bench::geomean(&gmn_speedups),
        max_gmn
    );
    println!(
        "  UMN total speedup vs PCIe  : {:.2}x                  (paper: 8.5x)",
        memnet_bench::geomean(&umn_speedups)
    );
    println!(
        "  CMN total speedup vs PCIe  : {:.2}x                  (paper: 1.8x)",
        memnet_bench::geomean(&cmn_speedups)
    );
    println!(
        "  CMN-ZC total vs PCIe       : {:.2}x                  (paper: 2.2x)",
        memnet_bench::geomean(&cmnzc_speedups)
    );
    memnet_bench::write_json("fig14_orgs", &rows);
}

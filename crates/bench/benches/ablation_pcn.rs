//! Extension ablation — memory-centric vs processor-centric networks.
//!
//! The paper argues (Section II-B) that NVLink-style designs are
//! processor-centric networks (PCN): fast device-to-device channels, but
//! remote memory still sits behind its owning GPU. This target compares
//! the PCN baseline against the paper's memory-centric organizations on
//! bandwidth-bound and latency-bound workloads. Expected shape: PCN beats
//! PCIe soundly (more bandwidth), but GMN/UMN still win because remote
//! traffic skips the remote GPU entirely.

use memnet_core::Organization;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Row {
        workload: &'static str,
        org: &'static str,
        kernel_ns: f64,
        memcpy_ns: f64,
        total_ns: f64,
    }
}

fn main() {
    memnet_bench::header("Extension: processor-centric (NVLink-style) vs memory-centric networks");
    let orgs = [
        Organization::Pcie,
        Organization::Pcn,
        Organization::Gmn,
        Organization::Umn,
    ];
    let workloads = [Workload::Bp, Workload::Bfs, Workload::Cp];
    let reports = memnet_bench::grid([workloads.len(), orgs.len()], |[wi, oi]| {
        memnet_bench::eval_builder(orgs[oi], workloads[wi])
    });

    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        println!("\n{}:", w.abbr());
        let base = reports[[wi, 0]].total_ns();
        for r in reports.row(wi) {
            assert!(!r.timed_out, "{} {} timed out", w.abbr(), r.org.name());
            println!(
                "  {:<6} kernel {:>11.0} ns   memcpy {:>11.0} ns   total {:>11.0} ns   {:>6.2}x vs PCIe",
                r.org.name(),
                r.kernel_ns,
                r.memcpy_ns,
                r.total_ns(),
                base / r.total_ns()
            );
            rows.push(Row {
                workload: w.abbr(),
                org: r.org.name(),
                kernel_ns: r.kernel_ns,
                memcpy_ns: r.memcpy_ns,
                total_ns: r.total_ns(),
            });
        }
    }
    println!("\n  expected shape: PCN beats PCIe soundly (NVLink-class links speed both");
    println!("  memcpy and remote access), but GMN/UMN kernels stay faster because");
    println!("  remote traffic skips the remote GPU entirely; UMN wins totals by");
    println!("  eliminating copies (Section II-B).");
    memnet_bench::write_json("ablation_pcn", &rows);
}

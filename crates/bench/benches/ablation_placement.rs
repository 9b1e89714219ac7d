//! Extension ablation — page placement policy (Section III-C / VI-A).
//!
//! The paper assumes random page placement and notes that "it remains to
//! be seen how to optimize memory mapping". This target compares random
//! placement against round-robin and a naive contiguous (first-fit)
//! allocator on the UMN machine. Expected shape: random ≈ round-robin
//! (both balance traffic), while contiguous placement concentrates the
//! footprint on one cluster, saturating its four HMCs.

use memnet_core::{Organization, PlacementPolicy};
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Row {
        workload: &'static str,
        policy: &'static str,
        kernel_ns: f64,
        hot_share_pct: f64,
    }
}

fn main() {
    memnet_bench::header("Extension: page placement policy (UMN kernels)");
    let policies = [
        ("random", PlacementPolicy::Random),
        ("round-robin", PlacementPolicy::RoundRobin),
        ("contiguous", PlacementPolicy::Contiguous),
    ];
    let workloads = [Workload::Kmn, Workload::Bp, Workload::Scan];
    let reports = memnet_bench::grid([workloads.len(), policies.len()], |[wi, pi]| {
        memnet_bench::eval_builder(Organization::Umn, workloads[wi]).placement(policies[pi].1)
    });

    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        println!("\n{}:", w.abbr());
        for (pi, (name, _)) in policies.iter().enumerate() {
            let r = &reports[[wi, pi]];
            assert!(!r.timed_out, "{} {} timed out", w.abbr(), name);
            let cols = r.traffic.column_totals();
            let share =
                100.0 * *cols.iter().max().expect("cols") as f64 / r.traffic.total().max(1) as f64;
            println!(
                "  {:<12} kernel {:>11.0} ns   hottest HMC carries {:>5.1}% of traffic",
                name, r.kernel_ns, share
            );
            rows.push(Row {
                workload: w.abbr(),
                policy: name,
                kernel_ns: r.kernel_ns,
                hot_share_pct: share,
            });
        }
    }
    println!("\n  expected: contiguous placement is slower and far more imbalanced");
    memnet_bench::write_json("ablation_placement", &rows);
}

//! Extension ablation — page placement policy (Section III-C / VI-A).
//!
//! The paper assumes random page placement and notes that "it remains to
//! be seen how to optimize memory mapping". This target compares random
//! placement against round-robin and a naive contiguous (first-fit)
//! allocator on the UMN machine. Expected shape: random ≈ round-robin
//! (both balance traffic), while contiguous placement concentrates the
//! footprint on one cluster, saturating its four HMCs.

use crate::{ensure, Size};
use memnet_core::{Organization, PlacementPolicy};
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    pub struct Row {
        pub workload: &'static str,
        pub policy: &'static str,
        pub kernel_ns: f64,
        pub hot_share_pct: f64,
    }
}

const POLICIES: [(&str, PlacementPolicy); 3] = [
    ("random", PlacementPolicy::Random),
    ("round-robin", PlacementPolicy::RoundRobin),
    ("contiguous", PlacementPolicy::Contiguous),
];

/// KMN, BP and SCAN under the three policies; the test size runs BP.
pub fn run(size: Size) -> Vec<Row> {
    use Workload::{Bp, Kmn, Scan};
    let workloads = size.pick(vec![Bp], vec![Kmn, Bp, Scan]);
    let reports = crate::grid([workloads.len(), POLICIES.len()], |[wi, pi]| {
        size.builder(Organization::Umn, workloads[wi])
            .placement(POLICIES[pi].1)
    });
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for ((policy, _), r) in POLICIES.iter().zip(reports.row(wi)) {
            let hottest = r.traffic.column_totals().into_iter().max().unwrap_or(0);
            rows.push(Row {
                workload: w.abbr(),
                policy,
                kernel_ns: r.kernel_ns,
                hot_share_pct: 100.0 * hottest as f64 / r.traffic.total().max(1) as f64,
            });
        }
    }
    rows
}

/// Prints kernel time and the hottest HMC's traffic share per policy.
pub fn print(rows: &[Row]) {
    let title = "Extension: page placement policy (UMN kernels)";
    crate::table(
        title,
        rows,
        &["expected: contiguous placement is slower and far more imbalanced"],
    );
}

/// The expected shape, per workload: contiguous placement is slower and
/// puts at least twice random's share of the traffic on its hottest HMC.
pub fn check(rows: &[Row], _size: Size) -> Result<(), String> {
    for per in rows.chunks(POLICIES.len()) {
        let (random, contiguous, w) = (&per[0], &per[2], per[0].workload);
        let (r, c) = (random.hot_share_pct, contiguous.hot_share_pct);
        ensure!(c >= 2.0 * r, "{w}: hottest HMC {c:.1}% vs {r:.1}%");
        let (r, c) = (random.kernel_ns, contiguous.kernel_ns);
        ensure!(c > r, "{w}: kernel {c} contiguous vs {r} random");
    }
    Ok(())
}

//! Section III-B ablation — CTA assignment policies.
//!
//! Static chunked assignment vs fine-grained round-robin vs static +
//! stealing, on the UMN machine. Paper: static wins by **8 %** overall
//! through memory-access locality (L1 hit rate up to +43 %, L2 +20 %
//! versus round-robin); stealing adds <1 % because large grids rarely
//! load-imbalance.

use crate::{ensure, find, Size};
use memnet_core::{CtaPolicy, Organization};
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    pub struct Row {
        pub workload: &'static str,
        pub policy: &'static str,
        pub kernel_ns: f64,
        pub l1_hit_rate: f64,
        pub l2_hit_rate: f64,
    }
}

const POLICIES: [(&str, CtaPolicy); 3] = [
    ("static", CtaPolicy::StaticChunk),
    ("round-robin", CtaPolicy::RoundRobin),
    ("stealing", CtaPolicy::Stealing),
];

/// Every workload under the three policies; the test size runs SRAD.
pub fn run(size: Size) -> Vec<Row> {
    let workloads = size.pick(vec![Workload::Srad], Workload::table2().to_vec());
    let reports = crate::grid([workloads.len(), POLICIES.len()], |[wi, pi]| {
        size.builder(Organization::Umn, workloads[wi])
            .cta_policy(POLICIES[pi].1)
    });
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for ((policy, _), r) in POLICIES.iter().zip(reports.row(wi)) {
            rows.push(Row {
                workload: w.abbr(),
                policy,
                kernel_ns: r.kernel_ns,
                l1_hit_rate: r.l1_hit_rate,
                l2_hit_rate: r.l2_hit_rate,
            });
        }
    }
    rows
}

/// `per(static, round-robin, stealing)` for each workload's three rows.
fn per_workload<T>(rows: &[Row], per: impl Fn(&Row, &Row, &Row) -> T) -> Vec<T> {
    (rows.chunks(POLICIES.len()))
        .map(|p| per(&p[0], &p[1], &p[2]))
        .collect()
}

/// Prints each policy's kernel time and hit rates, and the summary.
pub fn print(rows: &[Row]) {
    crate::table("Ablation (Sec. III-B): CTA assignment policy", rows, &[]);
    let pct = |v: Vec<f64>| (crate::geomean(&v) - 1.0) * 100.0;
    let gain = |hit: fn(&Row) -> f64| {
        let g = per_workload(rows, |st, rr, _| {
            if hit(rr) > 0.0 {
                hit(st) / hit(rr)
            } else {
                0.0
            }
        });
        (g.into_iter().fold(0.0, f64::max) - 1.0) * 100.0
    };
    let rr = pct(per_workload(rows, |st, rr, _| rr.kernel_ns / st.kernel_ns));
    let steal = pct(per_workload(rows, |st, _, steal| {
        st.kernel_ns / steal.kernel_ns
    }));
    println!("\nSummary, paper in parentheses:");
    println!("  static vs round-robin: {rr:.1}% faster (8%)");
    println!("  stealing vs static   : {steal:+.2}% (<1%)");
    println!(
        "  max L1 hit-rate gain : {:.0}% (up to 43%)",
        gain(|r| r.l1_hit_rate)
    );
    println!(
        "  max L2 hit-rate gain : {:.0}% (up to 20%)",
        gain(|r| r.l2_hit_rate)
    );
}

/// Section III-B's bands: static chunking is competitive with round-robin
/// on the stencil SRAD, and stealing changes kernel time by under 1 %.
pub fn check(rows: &[Row], _size: Size) -> Result<(), String> {
    let srad = |p: &str| find(rows, p, |r| r.workload == "SRAD" && r.policy == p);
    let (st, rr) = (srad("static")?.kernel_ns, srad("round-robin")?.kernel_ns);
    // At the test size the locality gap is small (all CTAs are resident
    // at once), so the band only asks that static chunking is competitive.
    ensure!(st <= rr * 1.15, "SRAD: static {st}, round-robin {rr}");
    let steal = per_workload(rows, |st, _, steal| st.kernel_ns / steal.kernel_ns);
    let steal = crate::geomean(&steal);
    ensure!((steal - 1.0).abs() < 0.01, "stealing {steal:.3}x");
    Ok(())
}

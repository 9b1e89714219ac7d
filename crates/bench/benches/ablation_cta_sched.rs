//! Section III-B ablation — CTA assignment policies.
//!
//! Static chunked assignment vs fine-grained round-robin vs static +
//! stealing, on the UMN machine. Paper: static wins by **8 %** overall
//! through memory-access locality (L1 hit rate up to +43 %, L2 +20 %
//! versus round-robin); stealing adds <1 % because large grids rarely
//! load-imbalance.

use memnet_core::{CtaPolicy, Organization};
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Row {
        workload: &'static str,
        policy: &'static str,
        kernel_ns: f64,
        l1_hit_rate: f64,
        l2_hit_rate: f64,
    }
}

fn main() {
    memnet_bench::header("Ablation (Sec. III-B): CTA assignment policy");
    let policies = [
        ("static", CtaPolicy::StaticChunk),
        ("round-robin", CtaPolicy::RoundRobin),
        ("stealing", CtaPolicy::Stealing),
    ];
    let workloads = Workload::table2();
    let reports = memnet_bench::grid([workloads.len(), policies.len()], |[wi, pi]| {
        memnet_bench::eval_builder(Organization::Umn, workloads[wi]).cta_policy(policies[pi].1)
    });

    let mut rows = Vec::new();
    let mut static_vs_rr = Vec::new();
    let mut steal_vs_static = Vec::new();
    let mut l1_gains = Vec::new();
    let mut l2_gains = Vec::new();
    println!(
        "  {:<6} {:>12} {:>12} {:>12}   L1 hit s/rr      L2 hit s/rr",
        "", "static ns", "rr ns", "stealing ns"
    );
    for (wi, w) in workloads.iter().enumerate() {
        let per = reports.row(wi);
        let (st, rr, steal) = (&per[0], &per[1], &per[2]);
        println!(
            "  {:<6} {:>12.0} {:>12.0} {:>12.0}   {:>5.1}%/{:<5.1}%   {:>5.1}%/{:<5.1}%",
            w.abbr(),
            st.kernel_ns,
            rr.kernel_ns,
            steal.kernel_ns,
            st.l1_hit_rate * 100.0,
            rr.l1_hit_rate * 100.0,
            st.l2_hit_rate * 100.0,
            rr.l2_hit_rate * 100.0
        );
        static_vs_rr.push(rr.kernel_ns / st.kernel_ns);
        steal_vs_static.push(st.kernel_ns / steal.kernel_ns);
        if rr.l1_hit_rate > 0.0 {
            l1_gains.push(st.l1_hit_rate / rr.l1_hit_rate);
        }
        if rr.l2_hit_rate > 0.0 {
            l2_gains.push(st.l2_hit_rate / rr.l2_hit_rate);
        }
        for (name, r) in [("static", st), ("round-robin", rr), ("stealing", steal)] {
            rows.push(Row {
                workload: w.abbr(),
                policy: name,
                kernel_ns: r.kernel_ns,
                l1_hit_rate: r.l1_hit_rate,
                l2_hit_rate: r.l2_hit_rate,
            });
        }
    }
    println!("\nSummary:");
    println!(
        "  static vs round-robin: {:.1}% faster (paper: 8%)",
        (memnet_bench::geomean(&static_vs_rr) - 1.0) * 100.0
    );
    println!(
        "  stealing vs static   : {:+.2}% (paper: <1%)",
        (memnet_bench::geomean(&steal_vs_static) - 1.0) * 100.0
    );
    let max_l1 = l1_gains.iter().cloned().fold(0.0, f64::max);
    let max_l2 = l2_gains.iter().cloned().fold(0.0, f64::max);
    println!(
        "  max L1 hit-rate gain : {:.0}% (paper: up to 43%)",
        (max_l1 - 1.0) * 100.0
    );
    println!(
        "  max L2 hit-rate gain : {:.0}% (paper: up to 20%)",
        (max_l2 - 1.0) * 100.0
    );
    memnet_bench::write_json("ablation_cta_sched", &rows);
}

//! Fig. 16 — performance of sliced memory-network topologies.
//!
//! GMN kernel time on sMESH, sTORUS, sMESH-2x, sTORUS-2x and sFBFLY across
//! all workloads. Paper: the `-2x` variants beat their single-channel
//! versions by adding bandwidth; sFBFLY is best or comparable everywhere —
//! equal bisection bandwidth to sTORUS-2x but lower hop count.

use memnet_core::Organization;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Row {
        workload: &'static str,
        topology: &'static str,
        kernel_ns: f64,
        avg_hops: f64,
        energy_mj: f64,
    }
}

fn main() {
    memnet_bench::header("Fig. 16: kernel time of sliced topologies (GMN)");
    let topos = memnet_bench::sliced_topologies();
    let workloads = Workload::table2();
    let reports = memnet_bench::grid([workloads.len(), topos.len()], |[wi, ti]| {
        memnet_bench::eval_builder(Organization::Gmn, workloads[wi]).topology(topos[ti])
    });

    let mut rows = Vec::new();
    println!(
        "  {:<6} {:>10} {:>10} {:>10} {:>10} {:>10}   (kernel ns)",
        "", "sMESH", "sTORUS", "sMESH-2x", "sTORUS-2x", "sFBFLY"
    );
    let mut wins = 0;
    for (wi, w) in workloads.iter().enumerate() {
        let per = reports.row(wi);
        print!("  {:<6}", w.abbr());
        for r in per {
            print!(" {:>10.0}", r.kernel_ns);
        }
        let best = per
            .iter()
            .map(|r| r.kernel_ns)
            .fold(f64::INFINITY, f64::min);
        let sfbfly = per[4].kernel_ns;
        if sfbfly <= best * 1.05 {
            wins += 1;
        }
        println!();
        for (t, r) in topos.iter().zip(per) {
            rows.push(Row {
                workload: w.abbr(),
                topology: t.name(),
                kernel_ns: r.kernel_ns,
                avg_hops: r.avg_hops,
                energy_mj: r.energy_mj,
            });
        }
    }
    println!(
        "\n  sFBFLY best-or-within-5% on {wins}/{} workloads",
        workloads.len()
    );
    println!("  paper: sFBFLY better or comparable to sMESH-2x/sTORUS-2x on most workloads");
    memnet_bench::write_json("fig16_topology", &rows);
}

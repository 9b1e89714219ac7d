//! Fig. 17 — network energy of the sliced topologies during kernel
//! execution.
//!
//! Same sweep as Fig. 16, reporting the interconnect energy model
//! (2.0 pJ/bit active, 1.5 pJ/bit idle). Paper: the `-2x` variants burn
//! more power but lower *energy* by 6.8 % / 4.8 % through shorter runtime;
//! sFBFLY reduces energy up to **50.7 %** (BP) and **20.3 %** on average
//! vs sMESH.
//!
//! The underlying simulations are identical to `fig16_topology`'s, so if
//! that target's JSON artifact exists it is reused; otherwise the sweep
//! runs here.

use memnet_core::Organization;
use memnet_obs::JsonValue;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Row {
        workload: String,
        topology: String,
        energy_mj: f64,
        kernel_ns: f64,
    }
}

/// Tries to reuse the rows fig16 wrote (same simulations).
fn load_from_fig16() -> Option<Vec<Row>> {
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("target/experiments/fig16_topology.json");
    let data = std::fs::read_to_string(path).ok()?;
    let rows: Vec<Row> = memnet_obs::parse(&data)
        .ok()?
        .as_array()?
        .iter()
        .map(|v: &JsonValue| {
            Some(Row {
                workload: v.get("workload")?.as_str()?.to_string(),
                topology: v.get("topology")?.as_str()?.to_string(),
                energy_mj: v.get("energy_mj")?.as_f64()?,
                kernel_ns: v.get("kernel_ns")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Row>>>()?;
    let expected = Workload::table2().len() * memnet_bench::sliced_topologies().len();
    if rows.len() != expected {
        return None; // stale or fast-mode artifact: rerun
    }
    Some(rows)
}

fn run_sweep() -> Vec<Row> {
    let topos = memnet_bench::sliced_topologies();
    let workloads = Workload::table2();
    let reports = memnet_bench::grid([workloads.len(), topos.len()], |[wi, ti]| {
        memnet_bench::eval_builder(Organization::Gmn, workloads[wi]).topology(topos[ti])
    });
    let mut rows = Vec::new();
    for wi in 0..workloads.len() {
        for (t, r) in topos.iter().zip(reports.row(wi)) {
            rows.push(Row {
                workload: r.workload.to_string(),
                topology: t.name().to_string(),
                energy_mj: r.energy_mj,
                kernel_ns: r.kernel_ns,
            });
        }
    }
    rows
}

fn main() {
    memnet_bench::header("Fig. 17: network energy of sliced topologies (GMN kernels)");
    let (rows, reused) = match load_from_fig16() {
        Some(r) => (r, true),
        None => (run_sweep(), false),
    };
    if reused {
        println!("  (reusing the fig16_topology sweep — identical simulations)");
    }
    let topos = memnet_bench::sliced_topologies();
    let topo_names: Vec<&str> = topos.iter().map(|t| t.name()).collect();
    let mut savings = Vec::new();
    println!(
        "  {:<6} {:>10} {:>10} {:>10} {:>10} {:>10}   (mJ)",
        "", "sMESH", "sTORUS", "sMESH-2x", "sTORUS-2x", "sFBFLY"
    );
    for w in Workload::table2() {
        let abbr = w.abbr();
        let per: Vec<&Row> = topo_names
            .iter()
            .filter_map(|t| rows.iter().find(|r| r.workload == abbr && r.topology == *t))
            .collect();
        if per.len() != topo_names.len() {
            continue;
        }
        print!("  {abbr:<6}");
        for r in &per {
            print!(" {:>10.3}", r.energy_mj);
        }
        let save = 100.0 * (1.0 - per[4].energy_mj / per[0].energy_mj);
        println!("   sFBFLY vs sMESH: {save:>5.1}%");
        savings.push(save);
    }
    let avg = savings.iter().sum::<f64>() / savings.len().max(1) as f64;
    let max = savings.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("\n  sFBFLY energy vs sMESH: avg {avg:.1}% saved, max {max:.1}%   (paper: 20.3% avg, 50.7% max for BP)");
    memnet_bench::write_json("fig17_energy", &rows);
}

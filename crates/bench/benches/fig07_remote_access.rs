//! Fig. 7 — cost of remote memory access for vectorAdd.
//!
//! One GPU executes vectorAdd while the data is distributed across 1, 2 or
//! 4 GPU memories.
//!
//! * (a) PCIe-based system: the paper measured up to **11.7× slowdown** on
//!   NVIDIA M2050s as remote fraction grows — remote accesses cross the
//!   shared PCIe switch.
//! * (b) GPU memory network (sFBFLY): 50 % remote is *faster* than all
//!   local (more vaults/banks in parallel); 75 % plateaus because the
//!   GPU's own channels saturate.

use memnet_core::Organization;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Row {
        system: &'static str,
        clusters: usize,
        remote_fraction: f64,
        kernel_ns: f64,
        normalized: f64,
    }
}

fn main() {
    memnet_bench::header("Fig. 7: vectorAdd kernel time vs. data distribution (1 executing GPU)");
    let cases = [
        (vec![0u32], 0.0),
        (vec![0, 1], 0.5),
        (vec![0, 1, 2, 3], 0.75),
    ];
    let systems = [
        ("PCIe (a)", Organization::Pcie),
        ("GMN sFBFLY (b)", Organization::Gmn),
    ];
    let reports = memnet_bench::grid([systems.len(), cases.len()], |[si, ci]| {
        memnet_bench::eval_builder(systems[si].1, Workload::VecAdd)
            .active_gpus(1)
            .data_clusters(cases[ci].0.clone())
    });
    let mut rows = Vec::new();
    for (si, (system, _)) in systems.into_iter().enumerate() {
        let base = reports[[si, 0]].kernel_ns;
        println!("\n{system}: normalized kernel time (1.0 = all data local)");
        for ((clusters, remote), r) in cases.iter().zip(reports.row(si)) {
            assert!(!r.timed_out, "fig07 run timed out");
            let t = r.kernel_ns;
            let norm = t / base;
            println!(
                "  {} cluster(s), {:>4.0}% remote: {:>12.0} ns  -> {:.2}x",
                clusters.len(),
                remote * 100.0,
                t,
                norm
            );
            rows.push(Row {
                system,
                clusters: clusters.len(),
                remote_fraction: *remote,
                kernel_ns: t,
                normalized: norm,
            });
        }
        if system.starts_with("PCIe") {
            println!("  paper: up to 11.7x slowdown at 4 memories (measured M2050)");
        } else {
            println!("  paper: 50% remote is FASTER than local-only; 75% plateaus");
        }
    }
    memnet_bench::write_json("fig07_remote_access", &rows);
}

//! Fig. 19 — SKE kernel speedup as the number of GPUs grows (1→16).
//!
//! The seven workloads the paper could scale (3DFD, BP, CP, FWT, RAY,
//! SCAN, SRAD) with enlarged inputs, on the UMN/sFBFLY machine. Paper:
//! geometric-mean speedup **13.5×** at 16 GPUs; CP is near-ideal (and
//! superlinear at 8 GPUs, +35 % over ideal, thanks to rising L2 hit
//! rates); FWT is lowest (**11.2×**) because its input cannot keep 16
//! GPUs busy.

use memnet_core::{Organization, SimBuilder};
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Row {
        workload: &'static str,
        gpus: u32,
        kernel_ns: f64,
        speedup: f64,
        l2_hit_rate: f64,
    }
}

fn builder(w: Workload, gpus: u32) -> SimBuilder {
    let spec = if memnet_bench::fast_mode() {
        w.spec_small()
    } else {
        w.spec_large()
    };
    SimBuilder::new(Organization::Umn)
        .gpus(gpus)
        .workload(spec)
        .phase_budget_ns(60_000_000.0)
}

fn main() {
    memnet_bench::header("Fig. 19: kernel speedup vs GPU count (UMN sFBFLY, enlarged inputs)");
    let gpu_counts = [1u32, 2, 4, 8, 16];
    let workloads = Workload::scalability_set();
    let reports = memnet_bench::grid([workloads.len(), gpu_counts.len()], |[wi, gi]| {
        builder(workloads[wi], gpu_counts[gi])
    });

    let mut rows = Vec::new();
    let mut speedups_at_16 = Vec::new();
    println!(
        "  {:<6} {:>8} {:>8} {:>8} {:>8} {:>8}   (speedup vs 1 GPU)",
        "", 1, 2, 4, 8, 16
    );
    for (wi, w) in workloads.iter().enumerate() {
        let per = reports.row(wi);
        let base = per[0].kernel_ns;
        print!("  {:<6}", w.abbr());
        for (g, r) in gpu_counts.iter().zip(per) {
            assert!(!r.timed_out, "{} @{} GPUs timed out", w.abbr(), g);
            let s = base / r.kernel_ns;
            print!(" {:>8.2}", s);
            rows.push(Row {
                workload: w.abbr(),
                gpus: *g,
                kernel_ns: r.kernel_ns,
                speedup: s,
                l2_hit_rate: r.l2_hit_rate,
            });
        }
        println!();
        speedups_at_16.push(base / per[4].kernel_ns);
    }
    let geo = memnet_bench::geomean(&speedups_at_16);
    let min = speedups_at_16.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\n  geomean @16 GPUs: {geo:.1}x (paper: 13.5x); lowest: {min:.1}x (paper: FWT 11.2x)"
    );
    memnet_bench::write_json("fig19_scaling", &rows);
}

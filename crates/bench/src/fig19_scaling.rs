//! Fig. 19 — SKE kernel speedup as the number of GPUs grows (1→16).
//!
//! The seven workloads the paper could scale (3DFD, BP, CP, FWT, RAY,
//! SCAN, SRAD) with enlarged inputs, on the UMN/sFBFLY machine. Paper:
//! geometric-mean speedup **13.5×** at 16 GPUs; CP is near-ideal (and
//! superlinear at 8 GPUs, +35 % over ideal, thanks to rising L2 hit
//! rates); FWT is lowest (**11.2×**) because its input cannot keep 16
//! GPUs busy.

use crate::{ensure, find, Size};
use memnet_core::{Organization, SimBuilder};
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    pub struct Row {
        pub workload: &'static str,
        pub gpus: u32,
        pub kernel_ns: f64,
        pub speedup: f64,
        pub l2_hit_rate: f64,
    }
}

/// The scalability set at 1–16 GPUs, on the scaled machine with the
/// enlarged inputs; the small sizes run the small inputs, and the test
/// size BP at 1 and 4 GPUs on its 2-SM GPUs.
pub fn run(size: Size) -> Vec<Row> {
    let gpu_counts = size.pick(vec![1u32, 4], vec![1, 2, 4, 8, 16]);
    let workloads = size.pick(vec![Workload::Bp], Workload::scalability_set().to_vec());
    let reports = crate::grid([workloads.len(), gpu_counts.len()], |[wi, gi]| {
        let w = workloads[wi];
        let b = SimBuilder::new(Organization::Umn)
            .gpus(gpu_counts[gi])
            .workload(if size.small() {
                w.spec_small()
            } else {
                w.spec_large()
            })
            .phase_budget_ns(60_000_000.0);
        if size == Size::Test {
            b.sms_per_gpu(2)
        } else {
            b
        }
    });
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let base = reports[[wi, 0]].kernel_ns;
        for (g, r) in gpu_counts.iter().zip(reports.row(wi)) {
            rows.push(Row {
                workload: w.abbr(),
                gpus: *g,
                kernel_ns: r.kernel_ns,
                speedup: base / r.kernel_ns,
                l2_hit_rate: r.l2_hit_rate,
            });
        }
    }
    rows
}

/// The speedups at the largest GPU count run.
fn at_most_gpus(rows: &[Row]) -> Vec<f64> {
    let most = rows.iter().map(|r| r.gpus).max().unwrap_or(0);
    rows.iter()
        .filter(|r| r.gpus == most)
        .map(|r| r.speedup)
        .collect()
}

/// Prints the speedups and their geomean at the most GPUs.
pub fn print(rows: &[Row]) {
    let title = "Fig. 19: kernel speedup vs GPU count (UMN sFBFLY, enlarged inputs)";
    crate::table(title, rows, &[]);
    let top = at_most_gpus(rows);
    let min = top.iter().cloned().fold(f64::INFINITY, f64::min);
    let geo = crate::geomean(&top);
    println!(
        "\n  geomean @16 GPUs: {geo:.1}x (paper: 13.5x); lowest: {min:.1}x (paper: FWT 11.2x)"
    );
}

/// Fig. 19's bands: 4 GPUs run BP well over 1.5× faster than one, and at
/// the scaled inputs 16 GPUs scale near-linearly (geomean over 12×). The
/// small inputs hold too few CTAs to keep 16 GPUs busy (RAY slows down),
/// so at the small sizes only the BP band applies.
pub fn check(rows: &[Row], size: Size) -> Result<(), String> {
    let bp4 = find(rows, "BP @4", |r| r.workload == "BP" && r.gpus == 4)?.speedup;
    ensure!(bp4 > 1.5, "BP on 4 GPUs {bp4:.2}x");
    let geo = crate::geomean(&at_most_gpus(rows));
    ensure!(size.small() || geo > 12.0, "geomean {geo:.1}x");
    Ok(())
}

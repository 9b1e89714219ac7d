//! Fig. 10 — GPU×HMC traffic distribution on the 4GPU-16HMC system.
//!
//! The paper shows (a) KMN with near-uniform traffic over all HMCs and
//! (b) CG.S with heavy imbalance (hot HMCs receive up to **11.7×** more
//! traffic than cold ones) because class-S inputs have too few CTAs.
//! Intra-cluster traffic stays balanced thanks to the cache-line
//! interleaving over local HMCs — the property the sliced topology relies
//! on (Section V-A).

use crate::{ensure, find, Size};
use memnet_core::Organization;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    pub struct Matrix {
        pub workload: &'static str,
        pub fractions: Vec<Vec<f64>>,
        pub hot_cold_ratio: f64,
        pub intra_cluster_ratio: f64,
    }
}

/// Max over min of the nonzero `values`; 0 when none is nonzero.
fn spread(values: &[f64]) -> f64 {
    let hot = values.iter().cloned().fold(0.0, f64::max);
    let cold = (values.iter().cloned())
        .filter(|&v| v > 0.0)
        .fold(f64::INFINITY, f64::min);
    if cold.is_finite() {
        hot / cold
    } else {
        0.0
    }
}

/// KMN and CG.S on GMN: each GPU's share of the traffic to each HMC.
pub fn run(size: Size) -> Vec<Matrix> {
    let workloads = [Workload::Kmn, Workload::CgS];
    let reports = crate::grid([workloads.len()], |[wi]| {
        size.builder(Organization::Gmn, workloads[wi])
    });
    let mut out = Vec::new();
    for (wi, w) in workloads.into_iter().enumerate() {
        let r = &reports[[wi]];
        // GPU rows × GPU-cluster HMC columns (drop the CPU row and the CPU
        // cluster, i.e. memcpy/host traffic), renormalized to kernel traffic.
        let mut gpu_rows: Vec<Vec<f64>> = (0..4)
            .map(|g| (0..16).map(|h| r.traffic.get(g, h) as f64).collect())
            .collect();
        let total: f64 = gpu_rows.iter().flatten().sum::<f64>().max(1.0);
        for v in gpu_rows.iter_mut().flatten() {
            *v /= total;
        }
        // Inter-HMC imbalance over GPU-cluster columns only.
        let col: Vec<f64> = (0..16)
            .map(|h| gpu_rows.iter().map(|r| r[h]).sum())
            .collect();
        // Intra-cluster variance: GPU g to its own HMCs 4g..4g+4.
        let intra = (gpu_rows.iter().enumerate())
            .map(|(g, row)| spread(&row[4 * g..4 * g + 4]))
            .fold(1.0, f64::max);
        out.push(Matrix {
            workload: w.abbr(),
            fractions: gpu_rows,
            hot_cold_ratio: spread(&col),
            intra_cluster_ratio: intra,
        });
    }
    out
}

/// Prints each matrix in percent of the total, with its imbalance ratios.
pub fn print(out: &[Matrix]) {
    crate::header("Fig. 10: fraction of traffic from each GPU to each HMC (GMN, 4GPU-16HMC)");
    for m in out {
        println!("\n{}:", m.workload);
        print!("        ");
        for h in 0..16 {
            print!("  H{h:02}");
        }
        println!();
        for (g, row) in m.fractions.iter().enumerate() {
            print!("  GPU{g}  ");
            for v in row {
                print!(" {:>4.1}", v * 100.0);
            }
            println!("   (% of total)");
        }
        println!(
            "  hottest/coldest HMC: {:.1}x   worst intra-cluster max/min: {:.2}x",
            m.hot_cold_ratio, m.intra_cluster_ratio
        );
    }
    println!("  paper: (a) KMN near-uniform across all HMCs");
    println!(
        "  paper: (b) CG.S imbalanced, hot HMCs up to 11.7x colder ones; intra-cluster balanced"
    );
}

/// Fig. 10's bands: CG.S is more imbalanced than KMN, and its traffic is
/// more balanced inside a cluster than across HMCs.
pub fn check(out: &[Matrix], size: Size) -> Result<(), String> {
    let kmn = find(out, "KMN", |m| m.workload == "KMN")?.hot_cold_ratio;
    let cgs = find(out, "CG.S", |m| m.workload == "CG.S")?;
    let (ic, intra) = (cgs.hot_cold_ratio, cgs.intra_cluster_ratio);
    ensure!(ic > kmn, "CG.S {ic:.2}x vs KMN {kmn:.2}x");
    ensure!(intra < ic, "CG.S {intra:.2}x vs {ic:.2}x");
    // Known deviation 2: the scaled CG.S concentrates less than the paper's
    // 11.7x. Only the scaled size is held to that band: the small inputs
    // touch so few pages that their ratio swings (40x under MEMNET_FAST=1).
    let in_band = (3.0..11.7).contains(&ic);
    ensure!(size != Size::Scaled || in_band, "CG.S {ic:.2}x");
    Ok(())
}

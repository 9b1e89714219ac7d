//! Fig. 10 — GPU×HMC traffic distribution on the 4GPU-16HMC system.
//!
//! The paper shows (a) KMN with near-uniform traffic over all HMCs and
//! (b) CG.S with heavy imbalance (hot HMCs receive up to **11.7×** more
//! traffic than cold ones) because class-S inputs have too few CTAs.
//! Intra-cluster traffic stays balanced thanks to the cache-line
//! interleaving over local HMCs — the property the sliced topology relies
//! on (Section V-A).

use memnet_core::Organization;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    struct Matrix {
        workload: &'static str,
        fractions: Vec<Vec<f64>>,
        hot_cold_ratio: f64,
        intra_cluster_ratio: f64,
    }
}

fn main() {
    memnet_bench::header(
        "Fig. 10: fraction of traffic from each GPU to each HMC (GMN, 4GPU-16HMC)",
    );
    let mut out = Vec::new();
    for w in [Workload::Kmn, Workload::CgS] {
        let r = memnet_bench::run_org(Organization::Gmn, w);
        assert!(!r.timed_out);
        // GPU rows × GPU-cluster HMC columns (drop the CPU row and the CPU
        // cluster, i.e. memcpy/host traffic), renormalized to kernel traffic.
        let mut gpu_rows: Vec<Vec<f64>> = (0..4)
            .map(|g| (0..16).map(|h| r.traffic.get(g, h) as f64).collect())
            .collect();
        let total: f64 = gpu_rows.iter().flatten().sum::<f64>().max(1.0);
        for row in &mut gpu_rows {
            for v in row.iter_mut() {
                *v /= total;
            }
        }
        println!("\n{}:", r.workload);
        print!("        ");
        for h in 0..16 {
            print!("  H{h:02}");
        }
        println!();
        for (g, row) in gpu_rows.iter().enumerate() {
            print!("  GPU{g}  ");
            for v in row {
                print!(" {:>4.1}", v * 100.0);
            }
            println!("   (% of total)");
        }
        // Inter-HMC imbalance over GPU-cluster columns only.
        let col: Vec<f64> = (0..16)
            .map(|h| gpu_rows.iter().map(|r| r[h]).sum())
            .collect();
        let hot = col.iter().cloned().fold(0.0, f64::max);
        let cold = col
            .iter()
            .cloned()
            .filter(|&v| v > 0.0)
            .fold(f64::INFINITY, f64::min);
        let ratio = if cold.is_finite() && cold > 0.0 {
            hot / cold
        } else {
            0.0
        };
        // Intra-cluster variance: GPU g to its own HMCs 4g..4g+4.
        let mut intra_ratio: f64 = 1.0;
        for (g, row) in gpu_rows.iter().enumerate() {
            let local = &row[4 * g..4 * g + 4];
            let max = local.iter().cloned().fold(0.0, f64::max);
            let min = local
                .iter()
                .cloned()
                .filter(|&v| v > 0.0)
                .fold(f64::INFINITY, f64::min);
            if min.is_finite() && min > 0.0 {
                intra_ratio = intra_ratio.max(max / min);
            }
        }
        println!(
            "  hottest/coldest HMC: {ratio:.1}x   worst intra-cluster max/min: {intra_ratio:.2}x"
        );
        match w {
            Workload::Kmn => println!("  paper: (a) near-uniform across all HMCs"),
            _ => println!(
                "  paper: (b) imbalanced, hot HMCs up to 11.7x colder ones; intra-cluster balanced"
            ),
        }
        out.push(Matrix {
            workload: w.abbr(),
            fractions: gpu_rows,
            hot_cold_ratio: ratio,
            intra_cluster_ratio: intra_ratio,
        });
    }
    memnet_bench::write_json("fig10_traffic", &out);
}

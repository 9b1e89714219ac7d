//! Render the GPU×HMC traffic matrix (Fig. 10) as an ASCII heatmap —
//! or, given a heatmap JSON from `memnet profile --heatmap FILE`, render
//! that file's per-router and per-link utilization instead.
//!
//! Shows how a uniform workload (KMN) spreads traffic across all HMCs
//! while a tiny class-S workload (CG.S) concentrates it — the property
//! that motivates intra-cluster cache-line interleaving and the sliced
//! topology (Section V-A).
//!
//! ```sh
//! cargo run --release --example traffic_heatmap
//! memnet profile --org umn --workload kmn --small --heatmap heat.json
//! cargo run --release --example traffic_heatmap -- heat.json
//! ```

use memnet::obs::JsonValue;
use memnet::sim::{Organization, SimBuilder};
use memnet::workloads::Workload;

const SHADES: [char; 5] = [' ', '.', 'o', 'O', '#'];

/// One shade per busy fraction, saturating at '#' for >= 80 % busy.
fn shade(frac: f64) -> char {
    let idx = (frac.clamp(0.0, 1.0) * 5.0 / 0.8) as usize;
    SHADES[idx.min(SHADES.len() - 1)]
}

/// Renders a `memnet profile --heatmap` JSON document: a router
/// utilization strip plus the busiest links in both directions.
fn render_profile_heatmap(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read heatmap {path}: {e}"));
    let doc = memnet::obs::parse(&text).expect("heatmap must be valid JSON");
    let routers = doc
        .get("routers")
        .and_then(JsonValue::as_array)
        .expect("heatmap has a routers array");
    println!(
        "router utilization ({} routers, '#' = >=80% busy):",
        routers.len()
    );
    print!("  |");
    for r in routers {
        print!("{}", shade(r.as_f64().expect("busy fraction")));
    }
    println!("|");

    let links = doc
        .get("links")
        .and_then(JsonValue::as_array)
        .expect("heatmap has a links array");
    let mut rows: Vec<(f64, String)> = links
        .iter()
        .map(|l| {
            let get = |k: &str| l.get(k).and_then(JsonValue::as_f64).expect("link field");
            let tag = l.get("tag").and_then(JsonValue::as_str).expect("link tag");
            let up = l.get("up").and_then(JsonValue::as_bool).unwrap_or(true);
            let (a, b) = (get("a") as u64, get("b") as u64);
            let (fwd, rev) = (get("fwd_busy_frac"), get("rev_busy_frac"));
            let hot = fwd.max(rev);
            let row = format!(
                "  {:>3} {} {:<3} [{}{}] {:>5.1}% / {:>5.1}%  {:<10}{}",
                a,
                "<->",
                b,
                shade(fwd),
                shade(rev),
                fwd * 100.0,
                rev * 100.0,
                tag,
                if up { "" } else { "  DOWN" }
            );
            (hot, row)
        })
        .collect();
    rows.sort_by(|x, y| y.0.total_cmp(&x.0));
    println!(
        "links (fwd/rev busy, hottest first, top 16 of {}):",
        rows.len()
    );
    for (_, row) in rows.iter().take(16) {
        println!("{row}");
    }
}

fn main() {
    if let Some(path) = std::env::args().nth(1) {
        render_profile_heatmap(&path);
        return;
    }
    for w in [Workload::Kmn, Workload::CgS] {
        let spec = w.spec_small();
        let r = SimBuilder::new(Organization::Gmn)
            .gpus(4)
            .sms_per_gpu(4)
            .workload(spec.clone())
            .run();
        assert!(!r.timed_out);
        // Kernel traffic: GPU rows 0..4 to GPU-cluster HMC columns 0..16.
        let cells: Vec<Vec<u64>> = (0..4)
            .map(|g| (0..16).map(|h| r.traffic.get(g, h)).collect())
            .collect();
        let max = cells.iter().flatten().copied().max().unwrap_or(1).max(1);
        println!(
            "\n{} traffic (rows: GPUs, cols: HMC0..HMC15; '#' = hottest):",
            spec.abbr
        );
        for (g, row) in cells.iter().enumerate() {
            print!("  GPU{g} |");
            for &v in row {
                let shade = (v * (SHADES.len() as u64 - 1)).div_ceil(max) as usize;
                print!("{}", SHADES[shade.min(SHADES.len() - 1)]);
            }
            println!("|");
        }
        let col: Vec<u64> = (0..16).map(|h| (0..4).map(|g| cells[g][h]).sum()).collect();
        let hot = *col.iter().max().expect("16 cols");
        let cold = col.iter().copied().filter(|&v| v > 0).min().unwrap_or(0);
        if cold > 0 {
            println!("  hottest/coldest HMC: {:.1}x", hot as f64 / cold as f64);
        }
    }
}

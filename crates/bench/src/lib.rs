//! Experiment harness shared by the per-figure bench targets.
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! `crates/bench/benches/` (run with `cargo bench`, or a single one with
//! `cargo bench --bench fig14_orgs`). Each target:
//!
//! 1. runs the simulations ([`grid`]: in parallel across workloads/configurations),
//! 2. prints the figure's rows with the paper's reference values next to
//!    the measured ones,
//! 3. writes machine-readable JSON to `target/experiments/<name>.json`
//!    (consumed when updating `EXPERIMENTS.md`).
//!
//! Setting `MEMNET_FAST=1` shrinks every experiment (tiny workloads, fewer
//! points) for a quick smoke pass.
#![forbid(unsafe_code)]

use memnet_core::{Organization, SimBuilder, SimReport};
use memnet_noc::topo::{SlicedKind, TopologyKind};
use memnet_obs::ToJson;
use memnet_workloads::{Workload, WorkloadSpec};
use std::io::Write as _;
use std::path::PathBuf;

/// True when `MEMNET_FAST=1`: use tiny workloads for a smoke run.
pub fn fast_mode() -> bool {
    std::env::var("MEMNET_FAST").is_ok_and(|v| v == "1")
}

/// True when `MEMNET_FULL=1`: run on the exact Table I machine
/// (64 SMs/GPU) instead of the scaled one. Slower by roughly the SM ratio.
pub fn full_mode() -> bool {
    std::env::var("MEMNET_FULL").is_ok_and(|v| v == "1")
}

/// The workload spec to simulate: scaled by default, tiny in fast mode.
pub fn spec_for(w: Workload) -> WorkloadSpec {
    if fast_mode() {
        w.spec_small()
    } else {
        w.spec()
    }
}

/// A builder preconfigured for the evaluation machine (4 GPUs, 16 HMCs,
/// scaled SM count — see `SystemConfig::scaled`).
pub fn eval_builder(org: Organization, w: Workload) -> SimBuilder {
    let mut b = SimBuilder::new(org)
        .workload(spec_for(w))
        .phase_budget_ns(20_000_000.0);
    if full_mode() {
        b = b.config(memnet_common::SystemConfig::paper());
    }
    b
}

/// The reports of a [`grid`] run: `g[[i, j]]` is the point at position `i`
/// on the first axis and `j` on the second (any number of axes).
pub struct Grid<const N: usize> {
    dims: [usize; N],
    reports: Vec<SimReport>,
}

/// Runs one simulation per point of the product of `N` axes — `dims[k]` is
/// the length of axis `k`, `build` turns a point's axis positions into its
/// builder — in parallel on the shared `memnet-engine` pool (bounded by
/// available cores).
///
/// # Panics
///
/// Propagates the first job panic — the harness should fail loudly.
pub fn grid<const N: usize>(
    dims: [usize; N],
    build: impl Fn([usize; N]) -> SimBuilder + Sync,
) -> Grid<N> {
    // Row-major: the last axis varies fastest.
    let point = |mut flat: usize| {
        let mut at = [0; N];
        for k in (0..N).rev() {
            at[k] = flat % dims[k];
            flat /= dims[k];
        }
        at
    };
    let build = &build;
    let jobs = (0..dims.iter().product())
        .map(|flat| move || build(point(flat)).run())
        .collect();
    let reports = memnet_engine::run_jobs(&memnet_engine::PoolConfig::default(), jobs)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("bench job failed: {e}")))
        .collect();
    Grid { dims, reports }
}

impl<const N: usize> Grid<N> {
    /// Every report whose first axis position is `i`, the remaining axes
    /// in row-major order.
    pub fn row(&self, i: usize) -> &[SimReport] {
        let len = self.reports.len() / self.dims[0];
        &self.reports[i * len..(i + 1) * len]
    }
}

impl<const N: usize> std::ops::Index<[usize; N]> for Grid<N> {
    type Output = SimReport;

    fn index(&self, at: [usize; N]) -> &SimReport {
        let flat = at.iter().zip(&self.dims).fold(0, |flat, (&i, &len)| {
            assert!(i < len, "grid index {at:?} outside {:?}", self.dims);
            flat * len + i
        });
        &self.reports[flat]
    }
}

/// The five sliced topologies Figs. 16 and 17 sweep, in column order.
pub fn sliced_topologies() -> [TopologyKind; 5] {
    [
        TopologyKind::Sliced {
            kind: SlicedKind::Mesh,
            double: false,
        },
        TopologyKind::Sliced {
            kind: SlicedKind::Torus,
            double: false,
        },
        TopologyKind::Sliced {
            kind: SlicedKind::Mesh,
            double: true,
        },
        TopologyKind::Sliced {
            kind: SlicedKind::Torus,
            double: true,
        },
        TopologyKind::Sliced {
            kind: SlicedKind::Fbfly,
            double: false,
        },
    ]
}

/// Runs one (organization, workload) pair on the evaluation machine.
pub fn run_org(org: Organization, w: Workload) -> SimReport {
    eval_builder(org, w).run()
}

/// Prints a rule-and-title header for a figure.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats a ratio as `x.xx×`.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.2}x", a / b)
    }
}

/// Writes an experiment's JSON artifact under `target/experiments/`.
///
/// # Panics
///
/// Panics on I/O errors — the harness should fail loudly.
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("target/experiments");
    std::fs::create_dir_all(&path).expect("create experiments dir");
    path.push(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create json");
    let s = value.to_json_pretty();
    f.write_all(s.as_bytes()).expect("write json");
    println!("[wrote {}]", path.display());
}

/// Geometric mean re-export for harness binaries.
pub use memnet_common::stats::geomean;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_reports_sit_at_their_axis_positions() {
        let gpus = [1u32, 2];
        let orgs = [Organization::Umn, Organization::Gmn, Organization::Pcie];
        let g = grid([gpus.len(), orgs.len()], |[gi, oi]| {
            SimBuilder::new(orgs[oi])
                .gpus(gpus[gi])
                .sms_per_gpu(1)
                .workload(Workload::VecAdd.spec_small())
        });
        for (gi, &n) in gpus.iter().enumerate() {
            assert_eq!(g.row(gi).len(), orgs.len());
            for (oi, &org) in orgs.iter().enumerate() {
                assert_eq!(g[[gi, oi]].org, org);
                assert_eq!(g[[gi, oi]].per_gpu.len(), n as usize);
                assert_eq!(g.row(gi)[oi].kernel_ns, g[[gi, oi]].kernel_ns);
            }
        }
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(3.0, 2.0), "1.50x");
        assert_eq!(ratio(1.0, 0.0), "n/a");
    }
}

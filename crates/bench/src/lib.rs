//! Experiment harness: one function per paper figure, and its check.
//!
//! Every table and figure of the paper's evaluation is a module here. Its
//! `run(size)` builds the figure's simulations and returns the rows its
//! artifact serializes, `print(&rows)` prints them next to the paper's
//! reference values, and `check(&rows, size)` states the figure's bands at
//! that size. The bench targets in `crates/bench/benches/` (`cargo bench`,
//! or one with `cargo bench --bench fig14_orgs`) are those four steps
//! ([`bench_main!`]): run at the size the environment selects
//! ([`Size::from_env`]), print, write `target/experiments/<name>.json`, and
//! check when `MEMNET_CHECK=1` ([`check_if_asked`]). `tests/paper_claims.rs`
//! calls the same `run` and `check` at [`Size::Test`].
#![forbid(unsafe_code)]

pub mod ablation_cta_sched;
pub mod ablation_pcn;
pub mod ablation_placement;
pub mod fault_resilience;
pub mod fig07_remote_access;
pub mod fig10_traffic;
pub mod fig12_channels;
pub mod fig14_orgs;
pub mod fig15_adaptive;
pub mod fig16_topology;
pub mod fig18_overlay;
pub mod fig19_scaling;
pub mod noc_loadlatency;
pub mod table1;

use memnet_common::SystemConfig;
use memnet_core::{Organization, SimBuilder, SimReport};
use memnet_noc::topo::{SlicedKind, TopologyKind};
use memnet_obs::{JsonValue, ToJson};
use memnet_workloads::Workload;
use std::path::PathBuf;

/// How large a figure's runs are: the one knob every figure takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The test suite's: small inputs on 2-SM GPUs, and for the larger
    /// figures a subset of their axes.
    Test,
    /// `MEMNET_FAST=1`: small inputs on the scaled machine; a smoke pass.
    Fast,
    /// The default: the scaled machine (`SystemConfig::scaled`, 16 SMs per
    /// GPU) at the documented scaled inputs.
    Scaled,
    /// `MEMNET_FULL=1`: the exact Table I machine (64 SMs/GPU). On a
    /// 2-core host, Fig. 14 took 78 s at this size, build included, and
    /// 77–80 s at the scaled size; single CLI runs at `--sms 64` took
    /// 1.2–1.8× the 16-SM time for KMN and SCAN under UMN and PCIe.
    Full,
}

impl Size {
    /// The size a bench target runs at: `MEMNET_FAST=1` wins over
    /// `MEMNET_FULL=1`, and neither means [`Size::Scaled`].
    pub fn from_env() -> Size {
        let set = |var| std::env::var(var).is_ok_and(|v| v == "1");
        if set("MEMNET_FAST") {
            Size::Fast
        } else if set("MEMNET_FULL") {
            Size::Full
        } else {
            Size::Scaled
        }
    }

    /// True at the sizes that run the small workload inputs.
    pub fn small(self) -> bool {
        matches!(self, Size::Test | Size::Fast)
    }

    /// A builder for the evaluation machine (4 GPUs, 16 HMCs) at this size.
    pub fn builder(self, org: Organization, w: Workload) -> SimBuilder {
        let spec = if self.small() {
            w.spec_small()
        } else {
            w.spec()
        };
        let b = SimBuilder::new(org)
            .workload(spec)
            .phase_budget_ns(20_000_000.0);
        match self {
            Size::Test => b.sms_per_gpu(2),
            Size::Full => b.config(SystemConfig::paper()),
            Size::Fast | Size::Scaled => b,
        }
    }

    /// `test` at the test size, `all` at every other.
    pub fn pick<T>(self, test: T, all: T) -> T {
        if self == Size::Test {
            test
        } else {
            all
        }
    }
}

/// Fails a figure's `check` unless `cond` holds, with the reason
/// ``<why>: `<cond>` fails``.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!("{}: `{}` fails", format!($($why)+), stringify!($cond)));
        }
    };
}

/// The one row `pick` selects, or an error naming `what` is missing.
pub fn find<'a, T>(rows: &'a [T], what: &str, pick: impl Fn(&T) -> bool) -> Result<&'a T, String> {
    rows.iter()
        .find(|r| pick(r))
        .ok_or_else(|| format!("no {what} row"))
}

/// With `MEMNET_CHECK=1`, holds a figure to its bands: prints the verdict,
/// and exits 1 when one fails.
pub fn check_if_asked(name: &str, verdict: impl FnOnce() -> Result<(), String>) {
    if !std::env::var("MEMNET_CHECK").is_ok_and(|v| v == "1") {
        return;
    }
    match verdict() {
        Ok(()) => println!("[check] {name}: every band holds"),
        Err(why) => {
            eprintln!("FAIL: {name}: {why}");
            std::process::exit(1);
        }
    }
}

/// A bench target's `main`: runs figure module `$fig` at the size the
/// environment selects, prints it, writes its artifact (and each `$extra`
/// artifact, a `$view` of the same rows), and checks it when
/// `MEMNET_CHECK=1`.
#[macro_export]
macro_rules! bench_main {
    ($fig:ident $(, $extra:literal => $view:path)*) => {
        fn main() {
            let size = $crate::Size::from_env();
            let rows = $crate::$fig::run(size);
            $crate::$fig::print(&rows);
            $crate::write_json(stringify!($fig), &rows);
            $($crate::write_json($extra, &$view(&rows));)*
            $crate::check_if_asked(stringify!($fig), || $crate::$fig::check(&rows, size));
        }
    };
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
/// Propagates the first job panic, and panics on a run that timed out —
/// the harness should fail loudly.
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
        .collect::<Vec<SimReport>>();
    for r in &reports {
        assert!(!r.timed_out, "{} on {} timed out", r.workload, r.org.name());
    }
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

/// A sliced topology.
pub const fn sliced(kind: SlicedKind, double: bool) -> TopologyKind {
    TopologyKind::Sliced { kind, double }
}

/// Prints a rule-and-title header for a figure.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Prints `rows` under `title` as a table, one column per field, then the
/// paper's reference values in `notes`.
///
/// # Panics
///
/// If a row's own JSON does not parse.
pub fn table<T: ToJson>(title: &str, rows: &[T], notes: &[&str]) {
    header(title);
    let cell = |v: &JsonValue| match v {
        JsonValue::Number(n) if n.fract() == 0.0 || n.abs() >= 100.0 => format!("{n:.0}"),
        JsonValue::Number(n) => format!("{n:.3}"),
        JsonValue::String(s) => s.clone(),
        other => other.to_json(),
    };
    let rows: Vec<Vec<(String, String)>> = (rows.iter())
        .map(|r| {
            let row = memnet_obs::parse(&r.to_json()).expect("a row's own JSON parses");
            let fields = row.as_object().unwrap_or_default().iter();
            fields.map(|(k, v)| (k.clone(), cell(v))).collect()
        })
        .collect();
    let line = |cells: Vec<&String>| {
        let cells: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
        println!("  {}", cells.join(" "));
    };
    if let Some(first) = rows.first() {
        line(first.iter().map(|(key, _)| key).collect());
    }
    for row in &rows {
        line(row.iter().map(|(_, v)| v).collect());
    }
    for note in notes {
        println!("  {note}");
    }
}

/// Writes an experiment's JSON artifact under `target/experiments/`.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    write_artifact(name, &value.to_json_pretty());
}

/// Writes `text` as the artifact `target/experiments/<name>.json`.
///
/// # Panics
///
/// Panics on I/O errors — the harness should fail loudly.
pub fn write_artifact(name: &str, text: &str) {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("target/experiments");
    std::fs::create_dir_all(&path).expect("create experiments dir");
    path.push(format!("{name}.json"));
    std::fs::write(&path, text).expect("write json");
    println!("[wrote {}]", path.display());
}

/// Geometric mean re-export for the figures.
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
}

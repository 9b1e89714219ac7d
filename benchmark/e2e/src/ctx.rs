//! What every part of a run shares: where things are, how big the run
//! is, and the count of operations attempted and failed.

use bench_common::host::max_threads;
use std::path::PathBuf;
use std::process::Command;

/// Paths and sizes of one invocation.
pub struct Ctx {
    /// `benchmark/out/`: every file the benchmark writes.
    pub out: PathBuf,
    /// `$CARGO_TARGET_DIR/release/`: where `memnet` and `bench-layers` are built.
    pub bin: PathBuf,
    pub seed: u64,
    /// How long the iterated workloads measure for.
    pub seconds: f64,
    /// Tiny sizes for the self-test.
    pub smoke: bool,
}

impl Ctx {
    pub fn memnet(&self) -> Command {
        Command::new(self.bin.join("memnet"))
    }

    pub fn layers(&self) -> Command {
        Command::new(self.bin.join("bench-layers"))
    }

    /// The thread/worker count passed to any child: `min(nproc, 4)`.
    pub fn threads(&self) -> String {
        max_threads().to_string()
    }
}

/// Operations attempted and failed. An op is one run, one request, one
/// batch job or one load point.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// "workload, iteration: reason" for each failed op.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one op; a failure is printed as it happens, with the op's
    /// number in the run.
    pub fn record(&mut self, workload: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            let line = format!("{workload}, op {}: {reason}", self.attempted);
            eprintln!("FAILED {line}");
            self.failures.push(line);
        }
    }
}

/// First error of `checks`, or `Ok`.
pub fn all(checks: impl IntoIterator<Item = Result<(), String>>) -> Result<(), String> {
    checks.into_iter().collect()
}

/// `Ok` when `cond`, else the message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

//! Set-up: everything between a source checkout and the first warm-up
//! iteration. It is repeated so that `setup_s` is a median, not the one
//! sample that happened to compile.

use crate::child;
use crate::ctx::{ensure, Ctx};
use std::process::Command;
use std::time::Instant;

/// Set-ups per run: one before the workload, which it needs, and the
/// rest at the workload's pauses, so that the median is taken over the
/// whole run and not over one moment of it. The first set-up in a fresh
/// checkout compiles the workspace; a median of five does not see it.
pub const REPEATS: usize = 5;

/// Runs one set-up command, quietly unless it fails.
fn step(ctx: &Ctx, what: &str, cmd: &mut Command) -> Result<(), String> {
    let log = ctx.out.join("setup.stderr");
    let stderr = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
    let (exit, _) = child::run(cmd.stderr(stderr), &ctx.out.join("setup.stdout"))
        .map_err(|e| format!("{what}: {e}"))?;
    ensure(exit.ok, || {
        format!(
            "{what} failed:\n{}",
            std::fs::read_to_string(&log).unwrap_or_default()
        )
    })
}

/// One timed set-up: build `memnet` and the benchmark's own binaries,
/// export the built-in models, write the small models, generate the
/// workload's inputs, and check the program starts. Returns what
/// `generate` made and the seconds it all took. `cargo` runs in the
/// working directory, the checkout root `run.sh` changed to.
pub fn timed<T>(
    ctx: &Ctx,
    generate: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let t = Instant::now();
    let cargo = |manifest: &str| {
        let mut c = Command::new("cargo");
        c.args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            manifest,
        ]);
        c
    };
    step(ctx, "cargo build of memnet", &mut cargo("Cargo.toml"))?;
    step(
        ctx,
        "cargo build of benchmark/",
        &mut cargo("benchmark/Cargo.toml"),
    )?;
    step(
        ctx,
        "memnet export",
        ctx.memnet()
            .arg("export")
            .arg("--dir")
            .arg(ctx.out.join("models")),
    )?;
    step(
        ctx,
        "bench-layers small-models",
        ctx.layers()
            .arg("small-models")
            .arg("--dir")
            .arg(ctx.out.join("models-small")),
    )?;
    let inputs = generate()?;
    step(ctx, "memnet list", ctx.memnet().arg("list"))?;
    Ok((inputs, t.elapsed().as_secs_f64()))
}

//! The three workloads that are one child process per iteration:
//! `kmn-umn8`, `scan-pcie` (the `memnet` CLI) and `noc-saturated`
//! (`bench-layers noc-saturated`).

use crate::child;
use crate::ctx::{all, ensure, Ctx, Ops};
use crate::{Measured, Pause};
use bench_common::json::{self, Json};
use bench_common::spans::Spans;
use std::process::Command;
use std::time::Instant;

/// Which form of a workload's command to build.
#[derive(Clone, Copy)]
pub enum Form {
    /// The measured operation.
    Full,
    /// The same program on a tiny input: the untimed warm-up (and the
    /// whole workload under `--smoke`).
    Tiny,
    /// The same interface doing no simulation: its fixed cost per op.
    NoSim,
}

pub struct ChildWorkload {
    pub name: &'static str,
    /// Median seconds of one full op on the reference host; an op ten
    /// times slower has missed its deadline.
    pub nominal_s: f64,
    command: fn(&Ctx, Form) -> Command,
}

fn memnet_run(ctx: &Ctx, form: Form, args: &[&str]) -> Command {
    let mut c = ctx.memnet();
    match form {
        Form::NoSim => {
            c.arg("list");
        }
        Form::Full => {
            c.arg("run").args(args).arg("--json");
        }
        Form::Tiny => {
            c.arg("run").args(args).args(["--small", "--json"]);
        }
    }
    c
}

const KMN_UMN8: [&str; 8] = [
    "--org",
    "umn",
    "--workload",
    "KMN",
    "--gpus",
    "8",
    "--topology",
    "sfbfly",
];
const SCAN_PCIE: [&str; 4] = ["--org", "pcie", "--workload", "SCAN"];

pub const CHILD_WORKLOADS: [ChildWorkload; 3] = [
    ChildWorkload {
        name: "kmn-umn8",
        nominal_s: 4.0,
        command: |ctx, form| memnet_run(ctx, form, &KMN_UMN8),
    },
    ChildWorkload {
        name: "scan-pcie",
        nominal_s: 2.6,
        command: |ctx, form| memnet_run(ctx, form, &SCAN_PCIE),
    },
    ChildWorkload {
        name: "noc-saturated",
        nominal_s: 3.8,
        command: |ctx, form| {
            let mut c = ctx.layers();
            c.args(["noc-saturated", "--seed", &ctx.seed.to_string()]);
            match form {
                Form::Full => {}
                Form::Tiny => {
                    c.args(["--warmup", "1000", "--measure", "10000"]);
                }
                Form::NoSim => {
                    c.args(["--warmup", "0", "--measure", "0"]);
                }
            }
            c
        },
    },
];

/// Fewest measured iterations, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// No-simulation ops (spawn → exit of a child that only starts up, ~1 ms
/// each) timed after every iteration, so that they sample the whole run
/// and not one 0.1 s window of it.
const NOSIM_OPS_PER_ITERATION: usize = 40;

impl ChildWorkload {
    /// The measured form: the full command, or the tiny one under `--smoke`.
    pub fn measured_form(&self, ctx: &Ctx) -> Form {
        if ctx.smoke {
            Form::Tiny
        } else {
            Form::Full
        }
    }

    pub fn command(&self, ctx: &Ctx, form: Form) -> Command {
        (self.command)(ctx, form)
    }

    /// One untimed tiny run, then iterations of the measured form, each
    /// followed by a few no-simulation ops and a `pause`, until
    /// `ctx.seconds` have passed.
    pub fn run(&self, ctx: &Ctx, spans: &mut Spans, pause: Pause) -> Result<Measured, String> {
        let stdout = ctx.out.join(format!("{}.stdout", self.name));
        let exec = |form| {
            child::run(&mut self.command(ctx, form), &stdout)
                .map_err(|e| format!("{}: {e}", self.name))
        };
        let mut ops = Ops::default();
        let mut m = Measured::default();

        let (warm, _) = exec(Form::Tiny)?;
        ensure(warm.ok, || format!("{}: the warm-up run failed", self.name))?;

        let form = self.measured_form(ctx);
        let deadline_s = 10.0 * self.nominal_s;
        let mut first: Option<String> = None;
        let started = Instant::now();
        let mut paused_s = 0.0;
        while m.wall_s.len() < MIN_ITERATIONS
            || started.elapsed().as_secs_f64() - paused_s < ctx.seconds
        {
            let span = spans.open("iteration", self.name);
            let (exit, text) = exec(form)?;
            spans.close(span);
            let report = json::parse(&text);
            ops.record(
                self.name,
                all([
                    ensure(exit.ok, || "non-zero exit".into()),
                    ensure(exit.wall_s <= deadline_s, || {
                        format!("took {:.1} s, deadline {deadline_s:.0} s", exit.wall_s)
                    }),
                    report
                        .as_ref()
                        .map(|_| ())
                        .map_err(|e| format!("output is not JSON: {e}")),
                    ensure(
                        report
                            .as_ref()
                            .ok()
                            .and_then(|r| r.get("timed_out"))
                            .and_then(Json::as_bool)
                            != Some(true),
                        || "the report says timed_out".into(),
                    ),
                    // The simulator is deterministic: every iteration prints
                    // the same bytes (for a seed, in noc-saturated's case).
                    ensure(first.as_ref().is_none_or(|f| *f == text), || {
                        "output differs from the first iteration's".into()
                    }),
                ]),
            );
            first.get_or_insert(text);
            m.wall_s.push(exit.wall_s);
            m.peak_rss_mb = m.peak_rss_mb.max(exit.peak_rss_mb);

            let span = spans.open("no-sim ops", self.name);
            let mut slice = Vec::new();
            for _ in 0..NOSIM_OPS_PER_ITERATION {
                let (exit, _) = exec(Form::NoSim)?;
                ops.record(
                    self.name,
                    ensure(exit.ok, || "no-sim op: non-zero exit".into()),
                );
                slice.push(exit.wall_s * 1e6);
            }
            m.hit_us.push(slice);
            spans.close(span);
            let t = Instant::now();
            pause()?;
            paused_s += t.elapsed().as_secs_f64();
        }

        m.detail = Json::obj([
            ("iterations", Json::Num(m.wall_s.len() as f64)),
            (
                "nosim_ops",
                Json::Num((m.hit_us.len() * NOSIM_OPS_PER_ITERATION) as f64),
            ),
            (
                "output",
                first
                    .as_deref()
                    .and_then(|t| json::parse(t).ok())
                    .unwrap_or(Json::Null),
            ),
        ]);
        m.ops = ops;
        Ok(m)
    }
}

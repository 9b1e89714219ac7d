//! `bench-e2e`: the benchmark's driver. It links no memnet crate: the
//! program under test is the `memnet` binary (and, for `noc-saturated`,
//! the `bench-layers` child), run as child processes from one thread.
//!
//! ```text
//! bench-e2e [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--smoke]
//!     Runs workload W (default: all four), N times with seeds N, N+1, …
//!     Each run prints one JSON result line on stdout; everything else
//!     goes to stderr. `--trace 1` (or `--traced`) makes the per-layer
//!     pass instead of the end-to-end measurement.
//! bench-e2e --compare OLD.json NEW.json
//!     Compares two benchmark/out/e2e.json files.
//! ```

mod child;
mod compare;
mod ctx;
mod serve;
mod setup;
mod sims;
mod traced;

use bench_common::host;
use bench_common::json::Json;
use bench_common::spans::Spans;
use bench_common::spec::{Metric, Spec};
use bench_common::stats::{highest_percentile, median, percentile, sorted};
use ctx::{Ctx, Ops};
use std::path::PathBuf;
use std::process::ExitCode;

/// What one end-to-end run of a workload measured.
#[derive(Default)]
pub struct Measured {
    pub ops: Ops,
    /// Wall-clock of each iteration, seconds.
    pub wall_s: Vec<f64>,
    /// Latency of each op that did not simulate, µs, in the slices of
    /// time they were measured in.
    pub hit_us: Vec<Vec<f64>>,
    /// Latency of the ops that simulated, ms — left empty by a workload
    /// whose only simulating op is the iteration itself.
    pub cold_ms: Vec<f64>,
    /// Largest peak RSS of any child, MB.
    pub peak_rss_mb: f64,
    pub detail: Json,
}

impl Measured {
    /// `wall_s`: the fastest iteration. Interference on a shared host only
    /// ever adds time — on the reference host +50 % in bursts of seconds,
    /// a third of the time — so of the few multi-second iterations a run
    /// can afford, the fastest is the steadiest estimate of what the code
    /// costs; their median moved by a quarter between runs of one commit.
    pub fn wall_s(&self) -> f64 {
        self.wall_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// `hit_us_p50`: the median of the quietest slice, for the same reason:
    /// a burst of interference lasts seconds and a slice a fraction of one,
    /// so a slice is either inside a burst or clean.
    pub fn hit_us_p50(&self) -> f64 {
        self.hit_us
            .iter()
            .map(|slice| median(slice))
            .fold(f64::INFINITY, f64::min)
    }

    pub fn cold_ms_p50(&self) -> f64 {
        if self.cold_ms.is_empty() {
            self.wall_s() * 1e3
        } else {
            median(&self.cold_ms)
        }
    }
}

/// A workload's rest between iterations, where the driver repeats the
/// set-up; the time it takes is excluded from the workload's own.
pub type Pause<'a> = &'a mut dyn FnMut() -> Result<(), String>;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: u64,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        runs: 1,
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: '{v}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = number(value()?)? as u64,
            "--seconds" => a.seconds = Some(number(value()?)?),
            "--trace" => a.trace = number(value()?)? != 0.0,
            "--traced" => a.trace = true,
            "--runs" => a.runs = (number(value()?)? as u64).max(1),
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(a)
}

/// One run's result: the contract's JSON line plus what the output files keep.
struct Record {
    workload: String,
    seed: u64,
    ops: Ops,
    metrics: Vec<(String, f64)>,
    detail: Json,
}

impl Record {
    fn metrics_json(&self, declared: &[Metric]) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let unit = declared
                        .iter()
                        .find(|m| m.name == *name)
                        .map_or("", |m| m.unit.as_str());
                    (
                        name.clone(),
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::from(unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The result line of the benchmark contract.
    fn line(&self, declared: &[Metric]) -> String {
        Json::obj([
            ("correct", Json::Bool(self.ops.failed == 0)),
            ("attempted", Json::Num(self.ops.attempted as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            ("metrics", self.metrics_json(declared)),
        ])
        .write()
    }

    fn to_json(&self, declared: &[Metric]) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::Num(self.seed as f64)),
            ("attempted", Json::Num(self.ops.attempted as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            (
                "fail_ratio",
                Json::Num(self.ops.failed as f64 / self.ops.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Arr(
                    self.ops
                        .failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ),
            ("metrics", self.metrics_json(declared)),
            ("detail", self.detail.clone()),
        ])
    }
}

/// "median [min … max] n=…" and, for latencies, the highest percentile
/// that still has ten samples beyond it.
fn describe(v: &[f64], unit: &str) -> String {
    let s = sorted(v);
    let tail = match highest_percentile(s.len()) {
        p if p > 50.0 => format!(", p{p} {:.4}", percentile(&s, p)),
        _ => String::new(),
    };
    format!(
        "{:.4} {unit} [{:.4} … {:.4}] n={}{tail}",
        median(&s),
        s[0],
        s[s.len() - 1],
        s.len()
    )
}

fn end_to_end(ctx: &Ctx, workload: &str) -> Result<Record, String> {
    let mut spans = Spans::new();
    let is_serve = workload == serve::NAME;
    let generate = || {
        if is_serve {
            serve::generate(ctx).map(Some)
        } else {
            Ok(None)
        }
    };
    let (inputs, first_s) = setup::timed(ctx, generate)?;
    let mut setup_s = vec![first_s];
    let mut pause = || {
        if setup_s.len() < setup::REPEATS {
            setup_s.push(setup::timed(ctx, generate)?.1);
        }
        Ok(())
    };
    let m = match (
        &inputs,
        sims::CHILD_WORKLOADS.iter().find(|w| w.name == workload),
    ) {
        (Some(inputs), _) => {
            serve::run(ctx, inputs, &mut spans, false, serve::SESSIONS, &mut pause)?
        }
        (None, Some(w)) => w.run(ctx, &mut spans, &mut pause)?,
        (None, None) => return Err(format!("unknown workload '{workload}'")),
    };
    // A run too short to pause often enough (`--smoke`) catches up here.
    for _ in 0..setup::REPEATS {
        pause()?;
    }
    eprintln!(
        "  wall_s       {:.4} s fastest of {}",
        m.wall_s(),
        describe(&m.wall_s, "s")
    );
    eprintln!(
        "  hit_us_p50   {:.4} us in the quietest of {} slices; all: {}",
        m.hit_us_p50(),
        m.hit_us.len(),
        describe(&m.hit_us.concat(), "us")
    );
    if !m.cold_ms.is_empty() {
        eprintln!("  cold_ms_p50  {}", describe(&m.cold_ms, "ms"));
    }
    eprintln!("  peak_rss_mb  {:.3} MB", m.peak_rss_mb);
    eprintln!("  setup_s      {}", describe(&setup_s, "s"));
    eprintln!("  fail_ratio   {} / {}", m.ops.failed, m.ops.attempted);
    let samples = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    Ok(Record {
        workload: workload.to_string(),
        seed: ctx.seed,
        metrics: vec![
            ("wall_s".into(), m.wall_s()),
            ("hit_us_p50".into(), m.hit_us_p50()),
            ("cold_ms_p50".into(), m.cold_ms_p50()),
            ("peak_rss_mb".into(), m.peak_rss_mb),
            ("setup_s".into(), median(&setup_s)),
        ],
        ops: m.ops,
        detail: Json::obj([
            ("wall_s", samples(&m.wall_s)),
            ("setup_s", samples(&setup_s)),
            ("run", m.detail),
        ]),
    })
}

fn per_layer(ctx: &Ctx, workload: &str, spans: &mut Spans) -> Result<Record, String> {
    let (inputs, _) = setup::timed(ctx, || serve::generate(ctx))?;
    let layers = traced::run(ctx, spans, &inputs)?;
    for (name, value) in &layers.metrics {
        eprintln!("  {name:<44} {value}");
    }
    Ok(Record {
        workload: workload.to_string(),
        seed: ctx.seed,
        ops: layers.ops,
        metrics: layers.metrics,
        detail: Json::obj([
            (
                "omitted",
                Json::Arr(
                    layers
                        .omitted
                        .iter()
                        .map(|n| Json::from(n.as_str()))
                        .collect(),
                ),
            ),
            ("observed", layers.detail),
        ]),
    })
}

fn write(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.write() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args, spec: &Spec, root: PathBuf) -> Result<(), String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), PathBuf::from);
    let out = root.join("benchmark/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        1.0
    } else {
        spec.run_seconds as f64
    });
    let workloads: Vec<String> = match &args.workload {
        Some(w) if spec.workloads.iter().any(|(name, _)| name == w) => vec![w.clone()],
        Some(w) => return Err(format!("unknown workload '{w}'")),
        // The traced pass is the same for every workload: once is enough.
        None if args.trace => vec!["all".to_string()],
        None => spec
            .workloads
            .iter()
            .map(|(name, _)| name.clone())
            .collect(),
    };
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let host = host::capture([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("runs_per_workload", Json::Num(args.runs as f64)),
    ]);

    let mut spans = Spans::new();
    let mut records = Vec::new();
    for workload in &workloads {
        for seed in args.seed..args.seed + args.runs {
            let ctx = Ctx {
                out: out.clone(),
                bin: target.join("release"),
                seed,
                seconds,
                smoke: args.smoke,
            };
            eprintln!(
                "{workload}, seed {seed}{}",
                if args.trace { ", traced" } else { "" }
            );
            let record = if args.trace {
                per_layer(&ctx, workload, &mut spans)?
            } else {
                end_to_end(&ctx, workload)?
            };
            Spec::check_emitted(declared, record.metrics.iter().map(|(n, _)| n.as_str()))?;
            println!("{}", record.line(declared));
            records.push(record);
        }
    }

    let doc = Json::obj([
        ("host", host),
        (
            "runs",
            Json::Arr(records.iter().map(|r| r.to_json(declared)).collect()),
        ),
        // This file is an instrument's reading, not a claim of a gain.
        ("claim", Json::Null),
    ]);
    if args.trace {
        write(&out.join("layers.json"), &doc)?;
        write(&out.join("trace.json"), &spans.to_chrome_trace())?;
    } else {
        write(&out.join("e2e.json"), &doc)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let fail = |e: String| {
        eprintln!("bench-e2e: {e}");
        ExitCode::from(2)
    };
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => return fail(format!("no working directory: {e}")),
    };
    let spec = match Spec::load(&root.join("BENCHMARK.json")) {
        Ok(s) if s.violations().is_empty() => s,
        Ok(s) => return fail(format!("BENCHMARK.json: {}", s.violations().join("; "))),
        Err(e) => return fail(e),
    };
    if let Some((old, new)) = &args.compare {
        return match compare::compare(&spec, old, new) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => fail(e),
        };
    }
    // A run that measured, with failed ops, still exits 0: the result
    // line carries `correct` and `failed`. Only a run that could not
    // measure exits non-zero, and prints no result.
    match run(&args, &spec, root) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

//! The traced run: per-layer metrics, read from outside the program.
//!
//! One pass, the same whichever `--workload` was named, because every
//! per-layer metric is reported on every traced run:
//!
//! 1. each sim workload once untraced and once under `memnet profile`
//!    (the shipped, result-invisible profiler) — layer times, model
//!    counts, and their ratio, the profiling overhead;
//! 2. `bench-layers probes` — timed calls into the crates' public functions;
//! 3. a `serve-mix` session with a span per request, and the daemon's
//!    `stats` at its end;
//! 4. `memnet sweep --small --trace` for the run pool's schedule;
//! 5. two within-run engine ratios and the CLI's floor costs.

use crate::child::{self, Exit};
use crate::ctx::{ensure, Ctx, Ops};
use crate::serve;
use crate::sims::{ChildWorkload, Form, CHILD_WORKLOADS};
use bench_common::json::{self, Json};
use bench_common::spans::Spans;
use bench_common::stats::{median, percentile};
use std::process::Command;

const PASS: &str = "traced";

pub struct Layers {
    pub metrics: Vec<(String, f64)>,
    pub ops: Ops,
    /// Metrics reported as 0 because the program refused what they need.
    pub omitted: Vec<String>,
    pub detail: Json,
}

struct Pass<'a> {
    ctx: &'a Ctx,
    spans: &'a mut Spans,
    out: Layers,
}

impl Pass<'_> {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.out.metrics.push((name.into(), value));
    }

    /// Runs a child inside a span; one op, failed on a non-zero exit.
    fn child(
        &mut self,
        what: &str,
        workload: &str,
        cmd: &mut Command,
    ) -> Result<(Exit, String), String> {
        let span = self.spans.open(what, workload);
        let done = child::run(cmd, &self.ctx.out.join("traced.stdout"))
            .map_err(|e| format!("{what}: {e}"));
        self.spans.close(span);
        let (exit, text) = done?;
        self.check(
            workload,
            ensure(exit.ok, || format!("{what}: non-zero exit")),
        );
        Ok((exit, text))
    }

    fn check(&mut self, workload: &str, outcome: Result<(), String>) {
        self.out.ops.record(workload, outcome);
    }
}

fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Step 1 for one sim workload: untraced, then profiled. Returns the
/// untraced wall-clock in seconds.
fn profile(p: &mut Pass, w: &ChildWorkload) -> Result<f64, String> {
    let ctx = p.ctx;
    let form = w.measured_form(ctx);
    let (plain, plain_report) = p.child("run", w.name, &mut w.command(ctx, form))?;

    // `memnet profile` takes the flags of `memnet run`.
    let run = w.command(ctx, form);
    let (profile_path, report_path) = (
        ctx.out.join(format!("profile-{}.json", w.name)),
        ctx.out.join(format!("report-{}.json", w.name)),
    );
    let mut cmd = ctx.memnet();
    cmd.arg("profile")
        .args(run.get_args().skip(1))
        .arg("--out")
        .arg(&profile_path)
        .arg("--report")
        .arg(&report_path);
    let (profiled, _) = p.child("profile", w.name, &mut cmd)?;
    let (prof, report) = (read_json(&profile_path)?, read_json(&report_path)?);
    let report_text = std::fs::read_to_string(&report_path)
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    p.check(
        w.name,
        ensure(report_text.trim_end() == plain_report.trim_end(), || {
            "the profiled run's report differs from the plain run's".into()
        }),
    );

    let domain = |name: &str, field: &str| -> Result<f64, String> {
        prof.get("domains")
            .and_then(Json::as_arr)
            .and_then(|d| {
                d.iter()
                    .find(|d| d.get("name").and_then(Json::as_str) == Some(name))
            })
            .ok_or(format!("profile has no domain '{name}'"))?
            .num_at(&[field])
    };
    let ms = |name: &str| domain(name, "wall_ns").map(|ns| ns / 1e6);
    let hist = |name: &str, field: &str| prof.num_at(&["histograms", name, field]);
    let wall_ns = prof.num_at(&["wall_ns"])?;
    let attributed: f64 = prof
        .get("domains")
        .and_then(Json::as_arr)
        .map(|d| {
            d.iter()
                .filter_map(|d| d.get("wall_ns").and_then(Json::as_f64))
                .sum()
        })
        .unwrap_or(0.0);
    let routers: Vec<f64> = prof
        .at(&["heatmap", "routers"])
        .and_then(Json::as_arr)
        .map(|r| r.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let allocs = prof.num_at(&["alloc", "allocs"])?;

    let values = [
        ("noc.net_tick_ms", ms("net-tick")?),
        ("noc.net_tick_scopes", domain("net-tick", "ticks")?),
        (
            "noc.host_ns_per_flit_hop",
            prof.num_at(&["cost", "wall_ns_per_flit_hop"])?,
        ),
        ("noc.flit_hops", prof.num_at(&["cost", "flit_hops"])?),
        (
            "noc.utilization",
            routers.iter().sum::<f64>() / routers.len().max(1) as f64,
        ),
        (
            "noc.vc_occupancy_p99",
            hist("net.vc_occupancy_flits", "p99")?,
        ),
        (
            "noc.pkt_latency_cycles_p50",
            hist("net.pkt_latency_cycles", "p50")?,
        ),
        (
            "noc.pkt_latency_cycles_p99",
            hist("net.pkt_latency_cycles", "p99")?,
        ),
        ("gpu.core_tick_ms", ms("core-tick")?),
        ("gpu.core_tick_scopes", domain("core-tick", "ticks")?),
        ("gpu.l2_tick_ms", ms("l2-tick")?),
        (
            "gpu.host_ns_per_cta",
            prof.num_at(&["cost", "wall_ns_per_cta"])?,
        ),
        ("gpu.l1_hit_rate", report.num_at(&["l1_hit_rate"])?),
        ("gpu.l2_hit_rate", report.num_at(&["l2_hit_rate"])?),
        ("hmc.dram_tick_ms", ms("dram-tick")?),
        ("hmc.dram_tick_scopes", domain("dram-tick", "ticks")?),
        ("hmc.row_hit_rate", report.num_at(&["row_hit_rate"])?),
        ("hmc.vault_queue_p99", hist("hmc.vault_queue_depth", "p99")?),
        ("cpu.tick_ms", ms("cpu-tick")?),
        ("cpu.tick_scopes", domain("cpu-tick", "ticks")?),
        ("engine.calendar_advance_ms", ms("calendar-advance")?),
        ("engine.fast_forward_ms", ms("fast-forward")?),
        ("engine.timesteps", domain("calendar-advance", "ticks")?),
        ("core.driver_other_ms", (wall_ns - attributed) / 1e6),
        ("sim.kernel_ns", report.num_at(&["kernel_ns"])?),
        ("sim.memcpy_ns", report.num_at(&["memcpy_ns"])?),
        ("sim.total_ns", report.num_at(&["total_ns"])?),
        ("sim.energy_mj", report.num_at(&["energy_mj"])?),
        ("sim.avg_hops", report.num_at(&["avg_hops"])?),
        ("obs.allocs_per_run", allocs),
        ("obs.alloc_bytes", prof.num_at(&["alloc", "bytes"])?),
        (
            "obs.peak_live_bytes",
            prof.num_at(&["alloc", "peak_bytes"])?,
        ),
        (
            "obs.allocs_per_packet",
            allocs / hist("net.pkt_latency_cycles", "count")?.max(1.0),
        ),
        ("obs.prof_overhead_ratio", profiled.wall_s / plain.wall_s),
    ];
    for (name, value) in values {
        p.put(format!("{name}.{}", w.name), value);
    }
    // The profiler's own shares of wall-clock, for the README's baseline.
    eprintln!(
        "  {}: net-tick {:.1} %, core-tick {:.1} % of {:.2} s profiled ({:.2} s plain)",
        w.name,
        100.0 * domain("net-tick", "wall_ns")? / wall_ns,
        100.0 * domain("core-tick", "wall_ns")? / wall_ns,
        wall_ns / 1e9,
        plain.wall_s
    );
    Ok(plain.wall_s)
}

/// Step 2: the probes, whose spans join this run's trace.
fn probes(p: &mut Pass) -> Result<(), String> {
    let offset_ns = p.spans.now_ns();
    let mut cmd = p.ctx.layers();
    cmd.arg("probes");
    if p.ctx.smoke {
        cmd.arg("--smoke");
    }
    let (_, text) = p.child("probes", "layers", &mut cmd)?;
    let doc = json::parse(&text).map_err(|e| format!("bench-layers probes: {e}"))?;
    for (name, value) in doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("probes printed no metrics")?
    {
        p.put(
            name.as_str(),
            value
                .as_f64()
                .ok_or(format!("probe {name} is not a number"))?,
        );
    }
    p.spans.absorb(
        &Spans::from_json(doc.get("spans").unwrap_or(&Json::Null))?,
        offset_ns,
    );
    Ok(())
}

/// Step 3: the traced serve session.
fn serve_session(p: &mut Pass, inputs: &serve::Inputs) -> Result<Json, String> {
    let mut m = serve::run(p.ctx, inputs, p.spans, true, 1, &mut || Ok(()))?;
    let stat = |path: &[&str]| m.detail.num_at(path);
    let (hits, misses) = (
        stat(&["stats", "cache", "hits"])?,
        stat(&["stats", "cache", "misses"])?,
    );
    let values = [
        ("serve.hit_us_p99", percentile(&m.hit_us.concat(), 99.0)),
        ("serve.batch_cold_s", stat(&["batch_cold_s"])?),
        ("serve.zipf_s", stat(&["zipf_s"])?),
        ("serve.hit_loop_s", stat(&["hit_loop_s"])?),
        ("serve.hits", hits),
        ("serve.misses", misses),
        ("serve.evicts", stat(&["stats", "cache", "evicts"])?),
        ("serve.dedup", stat(&["stats", "cache", "dedup"])?),
        ("serve.busy_ms", stat(&["stats", "busy_ms"])?),
        ("serve.hit_ratio", hits / (hits + misses).max(1.0)),
    ];
    for (name, value) in values {
        p.put(name, value);
    }
    p.out.ops.attempted += m.ops.attempted;
    p.out.ops.failed += m.ops.failed;
    p.out
        .ops
        .failures
        .extend(std::mem::take(&mut m.ops.failures));
    Ok(Json::obj([
        ("wall_s", Json::Num(m.wall_s())),
        ("hit_us_p50", Json::Num(m.hit_us_p50())),
        ("cold_ms_p50", Json::Num(m.cold_ms_p50())),
        ("session", m.detail),
    ]))
}

/// Share of the pool's worker time spent inside jobs, rebuilt from the
/// `done` instants of a `sweep --trace` file: jobs start in submission
/// order, each on the worker that finished earliest.
fn pool_busy_ratio(trace: &Json, workers: usize) -> Option<f64> {
    let mut done: Vec<(u64, f64)> = trace
        .get("traceEvents")?
        .as_arr()?
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("done"))
        .filter_map(|e| {
            Some((
                e.at(&["args", "job"])?.as_f64()? as u64,
                e.get("ts")?.as_f64()?,
            ))
        })
        .collect();
    done.sort_by_key(|&(job, _)| job);
    let mut finish: Vec<f64> = done.iter().map(|&(_, ts)| ts).collect();
    finish.sort_by(f64::total_cmp);
    let makespan = *finish.last()?;
    let busy: f64 = done
        .iter()
        .enumerate()
        .map(|(i, &(_, ts))| {
            ts - if i < workers {
                0.0
            } else {
                finish[i - workers]
            }
        })
        .sum();
    (makespan > 0.0).then(|| busy / (workers as f64 * makespan))
}

/// Steps 4 and 5.
fn pool_engines_cli(p: &mut Pass, scan_event_s: f64) -> Result<(), String> {
    let ctx = p.ctx;
    let threads = bench_common::host::max_threads();

    let trace_path = ctx.out.join("pool-trace.json");
    let mut sweep = ctx.memnet();
    sweep
        .args(["sweep", "--small", "--jobs", &ctx.threads(), "--trace"])
        .arg(&trace_path);
    let (exit, _) = p.child("sweep --small", "sweep", &mut sweep)?;
    p.put("cli.sweep_small_s", exit.wall_s);
    let busy = pool_busy_ratio(&read_json(&trace_path)?, threads)
        .ok_or("the pool trace has no 'done' events")?;
    p.put("engine.pool_busy_ratio", busy);

    // Within-run ratios, reported and never gated. A program that refuses
    // the engine flag gets a 0 and an entry under "omitted", not a failure.
    let [kmn, scan, _] = &CHILD_WORKLOADS;
    let ratio =
        |p: &mut Pass, name: &str, w: &ChildWorkload, form: Form, extra: &[&str], base_s: f64| {
            let mut cmd = w.command(ctx, form);
            cmd.args(extra);
            let span = p.spans.open(name, w.name);
            let done = child::run(&mut cmd, &ctx.out.join("traced.stdout"));
            p.spans.close(span);
            match done {
                Ok((exit, _)) if exit.ok => p.put(name, exit.wall_s / base_s),
                _ => {
                    p.put(name, 0.0);
                    p.out.omitted.push(name.to_string());
                }
            }
        };
    let (event, _) = p.child("run --small", kmn.name, &mut kmn.command(ctx, Form::Tiny))?;
    let sim_threads = threads.min(2).to_string();
    ratio(
        p,
        "engine.par2_wall_ratio",
        kmn,
        Form::Tiny,
        &["--engine", "parallel", "--sim-threads", &sim_threads],
        event.wall_s,
    );
    ratio(
        p,
        "engine.cycle_wall_ratio",
        scan,
        scan.measured_form(ctx),
        &["--engine", "cycle"],
        scan_event_s,
    );

    let time = |p: &mut Pass, what: &str, args: &[&str], n: usize| -> Result<f64, String> {
        let walls = (0..n)
            .map(|_| {
                p.child(what, "cli", ctx.memnet().args(args))
                    .map(|(exit, _)| exit.wall_s)
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(median(&walls) * 1e3)
    };
    let v = time(p, "list", &["list"], 50)?;
    p.put("cli.startup_ms", v);
    let v = time(
        p,
        "run --small",
        &["run", "--workload", "KMN", "--small", "--json"],
        5,
    )?;
    p.put("cli.small_run_ms", v);
    Ok(())
}

pub fn run(ctx: &Ctx, spans: &mut Spans, inputs: &serve::Inputs) -> Result<Layers, String> {
    let mut p = Pass {
        ctx,
        spans,
        out: Layers {
            metrics: Vec::new(),
            ops: Ops::default(),
            omitted: Vec::new(),
            detail: Json::Null,
        },
    };
    let pass = p.spans.open("traced run", PASS);
    let [kmn, scan, _] = &CHILD_WORKLOADS;
    profile(&mut p, kmn)?;
    let scan_event_s = profile(&mut p, scan)?;
    probes(&mut p)?;
    let serve_detail = serve_session(&mut p, inputs)?;
    pool_engines_cli(&mut p, scan_event_s)?;
    p.spans.close(pass);
    p.out.detail = Json::obj([("serve-mix", serve_detail)]);
    Ok(p.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_busy_ratio_rebuilds_the_schedule() {
        // Two workers, four jobs: 0 and 1 start at 0; job 2 starts when the
        // first worker is free (t=2), job 3 at t=3. Busy = 2+3+4+3 = 12 of
        // 2 workers × 6.
        let event = |job: f64, ts: f64| {
            Json::obj([
                ("name", Json::from("done")),
                ("ts", Json::Num(ts)),
                ("args", Json::obj([("job", Json::Num(job))])),
            ])
        };
        let trace = Json::obj([(
            "traceEvents",
            Json::Arr(vec![
                event(1.0, 3.0),
                event(0.0, 2.0),
                Json::obj([("name", Json::from("thread_name"))]),
                event(2.0, 6.0),
                event(3.0, 6.0),
            ]),
        )]);
        assert_eq!(pool_busy_ratio(&trace, 2), Some(1.0));
        assert_eq!(
            pool_busy_ratio(&Json::obj([("traceEvents", Json::Arr(vec![]))]), 2),
            None
        );
    }
}

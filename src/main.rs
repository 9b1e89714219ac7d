//! `memnet` command-line interface.
//!
//! Runs one full-system simulation from command-line flags and prints the
//! report as a table or JSON. Examples:
//!
//! ```sh
//! memnet run --org umn --workload kmn
//! memnet run --org pcie --workload bp --gpus 2 --sms 8 --json
//! memnet run --org gmn --workload cg.s --topology dfbfly --routing ugal
//! memnet list
//! ```
#![forbid(unsafe_code)]

use memnet::common::{FaultEvent, FaultPlan};
use memnet::engine::{run_jobs_observed, PoolConfig, PoolObs};
use memnet::obs::{MetricsRegistry, ToJson, TraceEventKind, Tracer};
use memnet::serve::job::{
    load_model, parse_cta, parse_org, parse_placement, parse_routing, parse_topology,
    parse_workload,
};
use memnet::serve::{serve_stdio, JobSpec, ServeConfig, Server, TcpDaemon};
use memnet::sim::{
    plan_from_json, EngineMode, Organization, ProfileReport, SimBuilder, SimReport, SystemSnapshot,
};
use memnet::wdl;
use memnet::workloads::{Workload, WorkloadSpec};
use std::process::ExitCode;

/// Counting allocator for `memnet profile` (allocations/run, peak bytes).
/// A pass-through over the system allocator; the counters live outside
/// simulation state, so reports stay byte-identical with it installed.
#[cfg(feature = "count-alloc")]
#[global_allocator]
static ALLOC: memnet::obs::CountingAlloc = memnet::obs::CountingAlloc::new();

fn usage() -> ExitCode {
    eprintln!(
        "memnet — multi-GPU memory-network simulator (MICRO 2014 reproduction)

USAGE:
  memnet list                      list workloads and organizations
  memnet run [OPTIONS]             run one simulation
  memnet profile [OPTIONS]         run one simulation with the self-profiler
                                   and report where wall-clock time and
                                   allocations went (simulation results are
                                   byte-identical to `memnet run`)
  memnet sweep [--small] [--jobs N] [--trace FILE] [--workload-file F]...
                                   run every workload on every organization
                                   (in parallel across N worker threads;
                                   default: all cores) and print a
                                   Fig. 14-style table; duplicate cells are
                                   deduplicated by configuration fingerprint
                                   before they reach the pool; --trace
                                   writes the pool schedule (retries,
                                   panics) as a Chrome trace;
                                   each --workload-file adds a model row
                                   after the Table II rows
  memnet export [--dir DIR]        write every built-in workload as a
                                   memnet-wdl-v1 JSON model (default DIR .);
                                   `--dir tests/data` regenerates the
                                   golden files checked by CI
  memnet serve [--stdio | --port N] [--cache N] [--workers N] [--retries N]
                                   run the sim-as-a-service daemon:
                                   newline-delimited JSON-RPC (run / batch /
                                   stats / ping / shutdown) with a
                                   content-addressed result cache (default
                                   128 entries); --stdio (default) serves
                                   stdin→stdout, --port binds 127.0.0.1:N
                                   (0 picks a free port, printed to stderr)

OPTIONS:
  --org <ORG>          pcie | pcie-zc | cmn | cmn-zc | gmn | gmn-zc | umn | pcn   (default umn)
  --workload <W>       a Table II abbreviation, e.g. KMN, BP, CG.S               (default KMN)
  --workload-file <F>  load the workload from a memnet-wdl-v1 JSON model
                       instead of the built-in suite (see DESIGN.md, Workload
                       models; `memnet export` writes the built-ins in this
                       format); mutually exclusive with --workload/--small
  --gpus <N>           number of GPUs                                             (default 4)
  --sms <N>            SMs per GPU                                                (default 16)
  --topology <T>       smesh | storus | smesh2x | storus2x | sfbfly | dfbfly | ddfly
  --routing <R>        minimal | ugal
  --cta <P>            static | rr | stealing
  --placement <P>      random | round-robin | contiguous
  --overlay            enable the CPU overlay network (UMN)
  --small              use the tiny workload variant
  --seconds-budget <S> simulated-time budget per phase in ms (default 20)
  --json               print the report as JSON
  --faults <FILE>      inject a JSON fault plan (link cuts, BER degradation,
                       vault stalls, GPU loss — see DESIGN.md, Fault model)
  --chaos-seed <N>     inject a seeded random fault plan; the same seed
                       always produces the same failures
  --engine <E>         cycle | event — simulation engine (default event;
                       the MEMNET_ENGINE env var sets the fallback, and a
                       value there that names neither is an error)
  --sanitize           audit runtime invariants (credit/packet/CTA/byte
                       conservation, clock alignment) and report findings;
                       nonzero exit on any violation. MEMNET_SANITIZE=1
                       sets the fallback; MEMNET_SANITIZE=fatal panics
                       at the first dirty run instead
  --checkpoint <FILE>  write a full-state snapshot (JSON), taken at the
                       quiescent point after warmup (host work + H2D copy),
                       alongside the normal run; restore it with --restore
  --restore <FILE>     resume from a snapshot instead of re-simulating the
                       warmup prefix; the configuration must match the one
                       that took the snapshot (engine mode and observers
                       may differ) and the report is byte-identical to an
                       uncheckpointed run
  --trace <FILE>       write a Chrome trace (chrome://tracing / Perfetto)
  --trace-events <N>   tracer ring-buffer capacity in events (default 1M)
  --metrics-every <N>  snapshot metrics every N network cycles (with
                       --trace the epochs become counter tracks; alone
                       they print as JSON after the report)

PROFILE OPTIONS (memnet profile accepts every run option, plus):
  --out <FILE>         write the ProfileReport JSON
  --heatmap <FILE>     write the router/link utilization heatmap JSON
                       (render it with: cargo run --example traffic_heatmap
                       -- FILE)
  --report <FILE>      write the SimReport JSON — byte-identical to what
                       `memnet run --json` prints, so CI can assert that
                       profiling never perturbs simulation results
  --json               print the ProfileReport as JSON instead of a table"
    );
    ExitCode::FAILURE
}

fn print_table(r: &SimReport) {
    println!("workload         : {}", r.workload);
    println!("organization     : {}", r.org.name());
    println!("kernel time      : {:>14.1} ns", r.kernel_ns);
    println!("memcpy time      : {:>14.1} ns", r.memcpy_ns);
    println!("host time        : {:>14.1} ns", r.host_ns);
    println!("total time       : {:>14.1} ns", r.total_ns());
    println!("network energy   : {:>14.4} mJ", r.energy_mj);
    println!(
        "L1 / L2 hit rate : {:>6.1} % / {:.1} %",
        r.l1_hit_rate * 100.0,
        r.l2_hit_rate * 100.0
    );
    println!("packet latency   : {:>14.1} ns (avg)", r.avg_pkt_latency_ns);
    println!("hops per packet  : {:>14.2}", r.avg_hops);
    println!("DRAM row hits    : {:>13.1} %", r.row_hit_rate * 100.0);
    if r.passthrough > 0 {
        println!("overlay hops     : {:>14}", r.passthrough);
    }
    println!(
        "net utilization  : {:>13.1} %",
        r.channel_utilization * 100.0
    );
    for (i, g) in r.per_gpu.iter().enumerate() {
        println!(
            "  GPU{i}: {} CTAs, {} mem reqs, L1 {:.0} %, L2 {:.0} %",
            g.ctas_done,
            g.mem_reqs,
            g.l1_hit_rate * 100.0,
            g.l2_hit_rate * 100.0
        );
    }
    if r.faults_injected + r.faults_skipped > 0 {
        println!(
            "faults           : {:>14} injected ({} skipped)",
            r.faults_injected, r.faults_skipped
        );
        println!(
            "  recovery       : {} reroutes, {} retries, {} dead letters, {} failed requests",
            r.reroutes, r.retries, r.dead_letters, r.failed_requests
        );
        if r.lost_gpus > 0 {
            println!(
                "  degraded mode  : {} GPU(s) lost, {} CTAs rebalanced",
                r.lost_gpus, r.rebalanced_ctas
            );
        }
    }
    if let Some(s) = &r.sanitizer {
        if s.is_clean() {
            println!("sanitizer        : clean ({} checkpoints)", s.checks);
        } else {
            println!(
                "sanitizer        : {} violation(s) (+{} beyond cap), {} checkpoints",
                s.violations.len(),
                s.dropped,
                s.checks
            );
            for v in &s.violations {
                println!("  VIOLATION: {v}");
            }
        }
    }
    if r.timed_out {
        println!("WARNING: simulation hit its phase budget before finishing");
    }
}

fn print_json(r: &SimReport) {
    println!("{}", r.to_json_string());
}

/// A subcommand's outcome. `Err` is an early stop whose message is already
/// on stderr ([`fail`], or [`walk_flags`] above the usage text), so every
/// step that can stop a command is a `?`.
type Cmd = Result<ExitCode, ExitCode>;

/// Prints `msg` and yields the failing exit code, for `.map_err(..)?`.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

/// [`fail`] for a command line that makes no sense: the usage text follows.
fn misuse(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    usage()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") => {
            println!("workloads (Table II):");
            for w in Workload::table2() {
                let s = w.spec();
                println!("  {:<7} {}", s.abbr, s.name);
            }
            println!("  {:<7} vectorAdd (Fig. 7 microbenchmark)", "VECADD");
            println!("\norganizations (Table III + PCN):");
            for o in Organization::all_extended() {
                println!("  {}", o.name());
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run_cmd(&args[1..]),
        Some("profile") => profile_cmd(&args[1..]),
        Some("sweep") => sweep_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("export") => export_cmd(&args[1..]),
        _ => Err(usage()),
    };
    outcome.unwrap_or_else(|code| code)
}

/// The one flag cursor. Every subcommand reads its options through
/// [`walk_flags`], which hands this cursor, parked on each option in
/// turn, to the subcommand's `match` on [`Flags::flag`]: a switch is a
/// plain arm, an option with an argument takes it with [`Flags::value`] or
/// [`Flags::parsed`], and the fall-through arm is [`Flags::unknown`].
struct Flags<'a> {
    /// The option being read.
    flag: &'a str,
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    /// The argument of the current option.
    fn value(&mut self) -> Result<&'a str, String> {
        let v = self.rest.next().map(String::as_str);
        v.ok_or_else(|| format!("missing value for {}", self.flag))
    }

    /// The argument as converted by `parse`; `expects` says what a valid
    /// one looks like.
    fn parsed<T>(
        &mut self,
        expects: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let (flag, v) = (self.flag, self.value()?);
        parse(v).ok_or_else(|| format!("{flag} expects {expects}, got '{v}'"))
    }

    fn unknown(&self) -> Result<(), String> {
        Err(format!("unknown option {}", self.flag))
    }
}

/// Walks `args` once, calling `each` per option; an error is a [`misuse`].
fn walk_flags<'a>(
    args: &'a [String],
    mut each: impl FnMut(&mut Flags<'a>) -> Result<(), String>,
) -> Result<(), ExitCode> {
    let rest = args.iter();
    let mut flags = Flags { flag: "", rest };
    while let Some(flag) = flags.rest.next() {
        flags.flag = flag;
        each(&mut flags).map_err(misuse)?;
    }
    Ok(())
}

fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

fn positive<T: std::str::FromStr + PartialOrd + Default>(s: &str) -> Option<T> {
    num(s).filter(|n| *n > T::default())
}

/// `memnet export [--dir DIR]`: writes every built-in workload as a
/// `memnet-wdl-v1` model file. This is also the regeneration path for the
/// golden files under `tests/data/` (see EXPERIMENTS.md).
fn export_cmd(args: &[String]) -> Cmd {
    let mut dir = ".";
    walk_flags(args, |f| match f.flag {
        "--dir" => f.value().map(|d| dir = d),
        _ => f.unknown(),
    })?;
    std::fs::create_dir_all(dir).map_err(|e| fail(format_args!("cannot create {dir}: {e}")))?;
    let builtins = wdl::all_builtins();
    for w in &builtins {
        let spec = w.spec();
        let mut text = wdl::spec_to_json(&spec);
        text.push('\n');
        let path = format!("{dir}/{}", wdl::model_file_name(&spec.abbr));
        std::fs::write(&path, text)
            .map_err(|e| fail(format_args!("failed to write {path}: {e}")))?;
    }
    eprintln!("[wrote {} models to {dir}]", builtins.len());
    Ok(ExitCode::SUCCESS)
}

/// `memnet sweep` options, split from execution so flag handling (in
/// particular unknown-flag rejection) is unit-testable.
#[derive(Default)]
struct SweepOpts {
    small: bool,
    jobs: usize, // 0 = pool default (available parallelism)
    trace_file: Option<String>,
    /// Extra `memnet-wdl-v1` model files appended as sweep rows.
    workload_files: Vec<String>,
}

fn parse_sweep_opts(args: &[String]) -> Result<SweepOpts, ExitCode> {
    let mut opts = SweepOpts::default();
    walk_flags(args, |f| {
        match f.flag {
            "--small" => opts.small = true,
            "--workload-file" => opts.workload_files.push(f.value()?.to_string()),
            "--jobs" => opts.jobs = f.parsed("a positive integer", positive)?,
            "--trace" => opts.trace_file = Some(f.value()?.to_string()),
            _ => return f.unknown(),
        }
        Ok(())
    })?;
    Ok(opts)
}

/// Collapses a fingerprint list to its distinct values, first occurrence
/// first. Returns the distinct indices and, per input, the index into the
/// distinct list it maps to — the sweep runs only the distinct jobs and
/// fans the results back out.
fn dedup_by_fingerprint(fps: &[u64]) -> (Vec<usize>, Vec<usize>) {
    let mut unique: Vec<usize> = Vec::new();
    let mut slot_of = Vec::with_capacity(fps.len());
    for (i, &fp) in fps.iter().enumerate() {
        match unique.iter().position(|&u| fps[u] == fp) {
            Some(slot) => slot_of.push(slot),
            None => {
                slot_of.push(unique.len());
                unique.push(i);
            }
        }
    }
    (unique, slot_of)
}

/// One sweep cell's fully configured builder.
fn sweep_builder(spec: WorkloadSpec, org: Organization) -> SimBuilder {
    SimBuilder::new(org).workload(spec).phase_budget_ns(30e6)
}

fn sweep_cmd(args: &[String]) -> Cmd {
    let opts = parse_sweep_opts(args)?;

    // Table II rows first, then any runtime-loaded model rows.
    let mut rows: Vec<WorkloadSpec> = Workload::table2()
        .into_iter()
        .map(|w| if opts.small { w.spec_small() } else { w.spec() })
        .collect();
    for path in &opts.workload_files {
        rows.push(load_model(path).map_err(fail)?);
    }

    // Simulations run on the pool; the table prints afterwards in the
    // fixed workload × organization order, so output is deterministic
    // regardless of --jobs.
    let cells: Vec<(&WorkloadSpec, Organization)> = rows
        .iter()
        .flat_map(|s| {
            Organization::all_extended()
                .into_iter()
                .map(move |o| (s, o))
        })
        .collect();
    // Content-address every cell and run each distinct configuration once.
    let fps: Vec<u64> = cells
        .iter()
        .map(|&(s, org)| sweep_builder(s.clone(), org).fingerprint())
        .collect();
    let (unique, slot_of) = dedup_by_fingerprint(&fps);
    let deduplicated = cells.len() - unique.len();
    let sims: Vec<_> = unique
        .iter()
        .map(|&i| {
            let (s, org) = cells[i];
            let s = s.clone();
            move || sweep_builder(s.clone(), org).try_run()
        })
        .collect();
    let cfg = PoolConfig {
        workers: opts.jobs,
        ..PoolConfig::default()
    };
    let (outcomes, obs) = run_jobs_observed(&cfg, sims);
    if let Some(path) = &opts.trace_file {
        std::fs::write(path, pool_trace_json(&obs))
            .map_err(|e| fail(format_args!("failed to write pool trace {path}: {e}")))?;
        eprintln!(
            "[wrote pool trace: {path} ({} jobs, {} retries, {} panics)]",
            obs.stats.jobs, obs.stats.retries, obs.stats.panics
        );
    }
    let mut unique_results = Vec::with_capacity(unique.len());
    for (outcome, &i) in outcomes.into_iter().zip(&unique) {
        let (s, org) = cells[i];
        let cell = format_args!("sweep {}/{}", s.abbr, org.name());
        unique_results.push(match outcome {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => return Err(fail(format_args!("{cell} failed: {e}"))),
            Err(e) => return Err(fail(format_args!("{cell} worker failed: {e}"))),
        });
    }
    // Fan the distinct results back out to the full cell grid.
    let results: Vec<&SimReport> = slot_of.iter().map(|&s| &unique_results[s]).collect();

    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "", "PCIe", "PCIe-ZC", "CMN", "CMN-ZC", "GMN", "GMN-ZC", "UMN", "PCN"
    );
    let orgs = Organization::all_extended().len();
    for (row, s) in rows.iter().enumerate() {
        print!("{:<8}", s.abbr);
        for r in &results[row * orgs..(row + 1) * orgs] {
            print!(
                " {:>11.0}{}",
                r.total_ns(),
                if r.timed_out { "!" } else { " " }
            );
        }
        println!();
    }
    println!(
        "(total runtime in ns; '!' marks a timed-out phase; {deduplicated} of {} \
         job(s) deduplicated by configuration fingerprint)",
        cells.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn serve_cmd(args: &[String]) -> Cmd {
    let mut cfg = ServeConfig::default();
    let mut port: Option<u16> = None;
    let mut stdio = false;
    walk_flags(args, |f| {
        match f.flag {
            "--stdio" => stdio = true,
            "--port" => port = Some(f.parsed("a port number (0 picks a free port)", num)?),
            "--cache" => cfg.cache_capacity = f.parsed("a positive entry count", positive)?,
            "--workers" => cfg.workers = f.parsed("a thread count (0 = all cores)", num)?,
            "--retries" => cfg.retries = f.parsed("a count", num)?,
            _ => return f.unknown(),
        }
        Ok(())
    })?;
    if stdio && port.is_some() {
        return Err(misuse("--stdio and --port are mutually exclusive"));
    }
    let mut server = Server::new(&cfg);
    let outcome = match port {
        None => serve_stdio(&mut server),
        Some(p) => {
            let daemon = TcpDaemon::bind(p)
                .map_err(|e| fail(format_args!("memnet serve: cannot bind 127.0.0.1:{p}: {e}")))?;
            match daemon.local_addr() {
                Ok(addr) => eprintln!("[memnet serve: listening on {addr}]"),
                Err(e) => eprintln!("[memnet serve: listening (addr unavailable: {e})]"),
            }
            daemon.run(&mut server)
        }
    };
    outcome.map_err(|e| fail(format_args!("memnet serve: {e}")))?;
    Ok(ExitCode::SUCCESS)
}

/// Renders one pool run's schedule (retries, panic isolations)
/// as a Chrome trace: one instant per lifecycle event on the pool track,
/// plus `pool.*` counters from the aggregate stats. Pool timestamps are
/// wall-clock milliseconds since pool start, mapped onto the trace's
/// femtosecond axis as 1 ms : 1 ms.
fn pool_trace_json(obs: &PoolObs) -> String {
    let mut tracer = Tracer::new(obs.events.len().max(1));
    let mut last_fs = 0u64;
    for e in &obs.events {
        let at_fs = e.at_ms.saturating_mul(1_000_000_000_000); // ms → fs
        last_fs = last_fs.max(at_fs);
        tracer.emit_fs(
            at_fs,
            0,
            TraceEventKind::PoolJob {
                what: e.what,
                job: e.job as u64,
                attempt: e.attempt as u64,
            },
        );
    }
    let mut m = MetricsRegistry::new();
    m.add("pool.jobs", obs.stats.jobs as u64);
    m.add("pool.succeeded", obs.stats.succeeded as u64);
    m.add("pool.failed", obs.stats.failed as u64);
    m.add("pool.retries", obs.stats.retries);
    m.add("pool.panics", obs.stats.panics);
    m.snapshot(last_fs);
    tracer.to_chrome_json(Some(&m))
}

/// Everything `memnet run` and `memnet profile` share: the job — the same
/// [`JobSpec`] a serve request parses into, so defaults, range checks and
/// the chaos plan exist once — plus what only the command line has.
#[derive(Default)]
struct RunOpts {
    spec: JobSpec,
    /// Events of the `--faults` files.
    faults: Vec<FaultEvent>,
    json: bool,
    trace_file: Option<String>,
    /// Tracer ring capacity (`--trace-events`, default 1M).
    trace_events: Option<usize>,
    metrics_every: Option<u64>,
    /// Write a warmup-boundary snapshot here (`--checkpoint`).
    checkpoint: Option<String>,
    /// Resume from a snapshot here instead of simulating the warmup
    /// prefix (`--restore`).
    restore: Option<String>,
}

impl RunOpts {
    /// The job's builder with the command-line extras applied.
    fn builder(&self) -> SimBuilder {
        let mut b = self.spec.builder();
        if !self.faults.is_empty() {
            // File events first, then the chaos plan the spec installed.
            let mut plan = FaultPlan::new();
            for ev in self.faults.iter().chain(b.fault_plan().events()) {
                plan.push(ev.at_fs, ev.kind.clone());
            }
            b = b.faults(plan);
        }
        if self.trace_file.is_some() {
            b = b.trace(self.trace_events.unwrap_or(1_000_000));
        }
        if let Some(n) = self.metrics_every {
            b = b.metrics_every(n);
        }
        b
    }
}

/// Parses the run options; `extra` sees every option first and returns
/// whether it took it (`memnet profile` adds its output files this way).
fn parse_run_opts<'a>(
    args: &'a [String],
    mut extra: impl FnMut(&mut Flags<'a>) -> Result<bool, String>,
) -> Result<RunOpts, ExitCode> {
    let mut o = RunOpts::default();
    let mut workload_set = false;
    let mut model_file = None;
    let mut fault_files = Vec::new();
    walk_flags(args, |f| {
        let spec = &mut o.spec;
        if extra(f)? {
            return Ok(());
        }
        match f.flag {
            "--org" => spec.org = f.parsed("an organization", parse_org)?,
            "--workload" => {
                spec.workload = f.parsed("a workload abbreviation", parse_workload)?;
                workload_set = true;
            }
            "--workload-file" => model_file = Some(f.value()?),
            "--gpus" => spec.gpus = f.parsed("a count", num)?,
            "--sms" => spec.sms = f.parsed("a count", num)?,
            "--topology" => spec.topology = Some(f.parsed("a topology", parse_topology)?),
            "--routing" => spec.routing = f.parsed("minimal or ugal", parse_routing)?,
            "--cta" => spec.cta = f.parsed("static, rr or stealing", parse_cta)?,
            "--placement" => spec.placement = f.parsed("a placement policy", parse_placement)?,
            "--overlay" => spec.overlay = true,
            "--small" => spec.small = true,
            "--json" => o.json = true,
            "--sanitize" => spec.sanitize = true,
            "--seconds-budget" => spec.budget_ms = f.parsed("milliseconds", num)?,
            "--trace" => o.trace_file = Some(f.value()?.to_string()),
            "--trace-events" => o.trace_events = Some(f.parsed("a positive count", positive)?),
            "--metrics-every" => {
                o.metrics_every = Some(f.parsed("a positive cycle count", positive)?)
            }
            "--faults" => fault_files.push(f.value()?),
            "--chaos-seed" => spec.chaos_seed = Some(f.parsed("a seed", num)?),
            "--engine" => spec.engine = Some(f.parsed("cycle or event", EngineMode::parse)?),
            "--checkpoint" => o.checkpoint = Some(f.value()?.to_string()),
            "--restore" => o.restore = Some(f.value()?.to_string()),
            _ => return f.unknown(),
        }
        Ok(())
    })?;

    if model_file.is_some() && (workload_set || o.spec.small) {
        return Err(misuse(
            "--workload-file replaces the built-in suite; it cannot be combined with \
             --workload or --small",
        ));
    }
    if o.checkpoint.is_some() && o.restore.is_some() {
        return Err(misuse("--checkpoint and --restore are mutually exclusive"));
    }
    o.spec.validate().map_err(|(key, why)| {
        // The job names its parameters; the command line names its flags.
        let flag = if key == "budget_ms" {
            "seconds-budget"
        } else {
            key
        };
        misuse(format_args!("--{flag} {why}"))
    })?;
    // Files are read last, so a bad one is reported without the usage text.
    for path in fault_files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| fail(format_args!("cannot read fault plan {path}: {e}")))?;
        let plan =
            plan_from_json(&text).map_err(|e| fail(format_args!("bad fault plan {path}: {e}")))?;
        o.faults.extend_from_slice(plan.events());
    }
    o.spec.model = model_file.map(load_model).transpose().map_err(fail)?;
    Ok(o)
}

fn run_cmd(args: &[String]) -> Cmd {
    let opts = parse_run_opts(args, |_| Ok(false))?;
    let builder = opts.builder();
    let sim_failed = |e| fail(format_args!("memnet: {e}"));
    let r = if let Some(path) = &opts.restore {
        let text = std::fs::read_to_string(path)
            .map_err(|e| fail(format_args!("cannot read snapshot {path}: {e}")))?;
        let snap = SystemSnapshot::from_json(&text)
            .map_err(|e| fail(format_args!("bad snapshot {path}: {e}")))?;
        builder.try_run_restored(&snap).map_err(sim_failed)?
    } else if let Some(path) = &opts.checkpoint {
        // The snapshot remembers the flags that produced it, so a later
        // `--restore` failure can say what configuration to re-create.
        let meta = args.join(" ");
        let (r, snap) = builder.try_run_checkpointed(&meta).map_err(sim_failed)?;
        let mut text = snap.to_json_string();
        text.push('\n');
        std::fs::write(path, text)
            .map_err(|e| fail(format_args!("failed to write snapshot {path}: {e}")))?;
        eprintln!(
            "[wrote snapshot: {path} (taken at {} fs, fingerprint {:016x})]",
            snap.now_fs(),
            snap.fingerprint()
        );
        r
    } else {
        builder.try_run().map_err(sim_failed)?
    };
    if opts.json {
        print_json(&r);
    } else {
        print_table(&r);
    }
    write_trace(&r, opts.trace_file.as_deref())?;
    if !opts.json && opts.trace_file.is_none() {
        if let Some(m) = &r.metrics {
            println!("{}", m.to_json_pretty());
        }
    }
    Ok(exit_code(&r))
}

/// Writes the Chrome trace when `--trace` was given. If the tracer ring
/// overflowed, says so once — silent event loss makes a trace lie.
fn write_trace(r: &SimReport, path: Option<&str>) -> Result<(), ExitCode> {
    let Some(path) = path else { return Ok(()) };
    let trace = r.trace_json.as_deref().expect("tracing was enabled");
    std::fs::write(path, trace)
        .map_err(|e| fail(format_args!("failed to write trace {path}: {e}")))?;
    if r.trace_dropped > 0 {
        eprintln!(
            "[trace: dropped {} oldest event(s) — ring full; raise --trace-events]",
            r.trace_dropped
        );
    }
    eprintln!("[wrote trace: {path}]");
    Ok(())
}

fn exit_code(r: &SimReport) -> ExitCode {
    let dirty = r.sanitizer.as_ref().is_some_and(|s| !s.is_clean());
    if r.timed_out || dirty {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn profile_cmd(args: &[String]) -> Cmd {
    let (mut out, mut heatmap, mut report) = (None, None, None);
    let opts = parse_run_opts(args, |f| {
        let slot = match f.flag {
            "--out" => &mut out,
            "--heatmap" => &mut heatmap,
            "--report" => &mut report,
            _ => return Ok(false),
        };
        *slot = Some(f.value()?.to_string());
        Ok(true)
    })?;
    if opts.checkpoint.is_some() || opts.restore.is_some() {
        return Err(misuse(
            "memnet profile does not support --checkpoint/--restore",
        ));
    }
    let (r, prof) = opts
        .builder()
        .try_run_profiled()
        .map_err(|e| fail(format_args!("memnet: {e}")))?;
    if opts.json {
        print!("{}", prof.to_json_string());
    } else {
        print_table(&r);
        println!();
        print_profile(&prof);
    }
    // The report is exactly the bytes `memnet run --json` prints
    // (to_json_string plus println!'s newline), so CI can `cmp` the two.
    let write = |what: &str, path: &Option<String>, text: &dyn Fn() -> String| {
        let Some(path) = path else { return Ok(()) };
        std::fs::write(path, text())
            .map_err(|e| fail(format_args!("failed to write {what} {path}: {e}")))
    };
    write("report", &report, &|| r.to_json_string() + "\n")?;
    write("profile", &out, &|| prof.to_json_string())?;
    write("heatmap", &heatmap, &|| prof.heatmap.to_json_string())?;
    write_trace(&r, opts.trace_file.as_deref())?;
    Ok(exit_code(&r))
}

fn print_profile(p: &ProfileReport) {
    println!("engine           : {}", p.engine);
    println!("wall time        : {:>14.3} ms", p.wall_ns as f64 / 1e6);
    let accounted: u64 = p.domains.iter().map(|d| d.wall_ns).sum();
    println!(
        "  {:<17} {:>12} {:>12} {:>7}",
        "category", "wall ms", "scopes", "share"
    );
    for d in &p.domains {
        let share = if p.wall_ns > 0 {
            100.0 * d.wall_ns as f64 / p.wall_ns as f64
        } else {
            0.0
        };
        println!(
            "  {:<17} {:>12.3} {:>12} {:>6.1}%",
            d.name,
            d.wall_ns as f64 / 1e6,
            d.ticks,
            share
        );
    }
    if p.wall_ns > accounted {
        println!(
            "  {:<17} {:>12.3} {:>12} {:>6.1}%",
            "(driver/other)",
            (p.wall_ns - accounted) as f64 / 1e6,
            "-",
            100.0 * (p.wall_ns - accounted) as f64 / p.wall_ns as f64
        );
    }
    if !p.phases.is_empty() {
        println!("phases:");
        for m in &p.phases {
            println!(
                "  {:<17} {:>12.3} ms {:>12} allocs {:>14} bytes",
                m.name,
                m.wall_ns as f64 / 1e6,
                m.allocs,
                m.alloc_bytes
            );
        }
    }
    if p.alloc.installed {
        println!(
            "allocations      : {} calls, {} bytes total, {} peak live",
            p.alloc.allocs, p.alloc.bytes, p.alloc.peak_bytes
        );
    } else {
        println!("allocations      : not counted (count-alloc feature is off)");
    }
    if !p.hists.is_empty() {
        println!("histograms:");
        for h in &p.hists {
            println!(
                "  {:<26} n={:<10} p50={:<8} p90={:<8} p99={:<8} max={}",
                h.name, h.snap.count, h.snap.p50, h.snap.p90, h.snap.p99, h.snap.max
            );
        }
    }
    println!(
        "cost             : {} net cycles, {} flit-hops, {} CTAs",
        p.net_cycles, p.flit_hops, p.ctas_done
    );
    if let Some(v) = p.wall_ns_per_flit_hop() {
        println!("  wall ns/flit-hop : {v:.1}");
    }
    if let Some(v) = p.wall_ns_per_cta() {
        println!("  wall ns/CTA      : {v:.1}");
    }
    if p.trace_dropped > 0 {
        println!("trace drops      : {}", p.trace_dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn run_opts(args: &[&str]) -> Result<RunOpts, ExitCode> {
        parse_run_opts(&argv(args), |_| Ok(false))
    }

    #[test]
    fn run_rejects_unknown_flags_and_bad_values() {
        assert!(run_opts(&["--warp", "9"]).is_err());
        assert!(run_opts(&["--gpus"]).is_err(), "missing value");
        assert!(run_opts(&["--gpus", "many"]).is_err());
        assert!(run_opts(&["--org", "nvlink"]).is_err());
        assert!(run_opts(&["--engine", "quantum"]).is_err());
        assert!(run_opts(&["--engine", "parallel"]).is_err());
        assert!(run_opts(&["--sim-threads", "4"]).is_err());
        assert!(run_opts(&["--sms", "10000000"]).is_err());
        assert!(run_opts(&["--checkpoint", "a.json", "--restore", "b.json"]).is_err());
        assert!(run_opts(&["--gpus", "2", "--small"]).is_ok());
        assert!(run_opts(&["--checkpoint", "a.json"]).is_ok());
    }

    #[test]
    fn cli_flags_and_serve_params_lower_onto_the_same_job() {
        let plan = std::env::temp_dir().join("memnet-cli-test-faults.json");
        let event = r#"{"events":[{"at_fs":5,"kind":"gpu-loss","gpu":1}]}"#;
        std::fs::write(&plan, event).expect("tmp write");
        let line = |flags: &str| run_opts(&flags.split(' ').collect::<Vec<_>>());
        let job = |params: &str| {
            JobSpec::from_json(&memnet::obs::parse(params).expect("test params parse"))
        };
        let chaos = "--chaos-seed 7 --gpus 2";
        let both = format!("{chaos} --faults {}", plan.display());
        for (flags, params) in [
            ("--json", "{}"),
            (
                "--workload vecadd --small --gpus 2 --sms 2",
                r#"{"workload":"vecadd","small":true,"gpus":2,"sms":2}"#,
            ),
            (
                "--org GMN-ZC --topology dfbfly --routing UGAL",
                r#"{"org":"gmn-zc","topology":"dfbfly","routing":"ugal"}"#,
            ),
            (
                "--cta stealing --placement round-robin --overlay",
                r#"{"cta":"stealing","placement":"round-robin","overlay":true}"#,
            ),
            (
                "--seconds-budget 5.5 --engine cycle --sanitize",
                r#"{"budget_ms":5.5,"engine":"cycle","sanitize":true}"#,
            ),
            (chaos, r#"{"chaos_seed":7,"gpus":2}"#),
            // A fault file rides on top of the job; the job is the same.
            (both.as_str(), r#"{"chaos_seed":7,"gpus":2}"#),
        ] {
            let cli = line(flags).unwrap_or_else(|_| panic!("{flags} must parse"));
            let served = job(params).expect("valid params").fingerprint();
            assert_eq!(cli.spec.fingerprint(), served, "{flags}");
            let same_run = cli.builder().fingerprint() == served;
            assert_eq!(same_run, !flags.contains("--faults"), "{flags}");
        }
        // --faults with --chaos-seed: the file's events first, then the
        // very plan the job alone installs.
        let both = line(&both).expect("parsed above").builder();
        let chaos = line(chaos).expect("parsed above").builder();
        let (both, chaos) = (both.fault_plan().events(), chaos.fault_plan().events());
        assert_eq!(both[0].at_fs, 5);
        assert_eq!(&both[1..], chaos);
        let _ = std::fs::remove_file(plan);

        // Values no run can use are errors on both sides, not a 20 ms
        // timeout (`--sms 0`) or a 0.7 ns one (`--seconds-budget -1`).
        for (flags, params) in [
            ("--sms 0", r#"{"sms":0}"#),
            ("--gpus 0", r#"{"gpus":0}"#),
            ("--gpus 7000", r#"{"gpus":7000}"#),
            ("--seconds-budget -1", r#"{"budget_ms":-1}"#),
            ("--seconds-budget nan", r#"{"budget_ms":null}"#),
            ("--seconds-budget inf", r#"{"budget_ms":1e999}"#),
        ] {
            assert!(line(flags).is_err(), "{flags}");
            assert!(job(params).is_err(), "{params}");
        }
    }

    #[test]
    fn sweep_rejects_unknown_flags_and_bad_values() {
        assert!(parse_sweep_opts(&argv(&["--gpus", "2"])).is_err());
        assert!(parse_sweep_opts(&argv(&["--jobs", "0"])).is_err());
        assert!(
            parse_sweep_opts(&argv(&["--trace"])).is_err(),
            "missing value"
        );
        assert!(
            parse_sweep_opts(&argv(&["--workload-file"])).is_err(),
            "missing value"
        );
        let opts = parse_sweep_opts(&argv(&["--small", "--jobs", "3"])).expect("valid flags");
        assert!(opts.small);
        assert_eq!(opts.jobs, 3);
        assert!(opts.trace_file.is_none());
        let opts = parse_sweep_opts(&argv(&[
            "--workload-file",
            "a.json",
            "--workload-file",
            "b.json",
        ]))
        .expect("repeatable flag");
        assert_eq!(opts.workload_files, vec!["a.json", "b.json"]);
    }

    #[test]
    fn every_crate_inherits_the_determinism_lints() {
        // A member without `[lints] workspace = true`, or a simulation
        // crate root without its `deny` line, would skip DESIGN §9a's
        // rules silently; and §9a must name exactly the lints declared.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let read = |path: std::path::PathBuf| std::fs::read_to_string(path).expect("readable");
        let inherits = |toml: &str| toml.contains("\n[lints]\nworkspace = true\n");
        let manifest = read(root.join("Cargo.toml"));
        assert!(
            inherits(&manifest),
            "the root package must inherit the lints"
        );
        for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
            let dir = entry.expect("dir entry").path();
            let lacks = "lacks `[lints] workspace = true`";
            assert!(
                inherits(&read(dir.join("Cargo.toml"))),
                "{} {lacks}",
                dir.display()
            );
        }
        const DENY: &str =
            "#![cfg_attr(not(test), deny(clippy::expect_used, clippy::cast_possible_truncation))]";
        for c in [
            "common",
            "core",
            "cpu",
            "engine",
            "gpu",
            "hmc",
            "noc",
            "obs",
            "workloads",
        ] {
            let lib = read(root.join(format!("crates/{c}/src/lib.rs")));
            assert!(
                lib.lines().any(|l| l == DENY),
                "crates/{c}/src/lib.rs lacks {DENY}"
            );
        }
        let table = manifest.split("[workspace.lints.clippy]\n").nth(1);
        let mut declared: Vec<&str> = (table.expect("a clippy lint table").lines())
            .take_while(|l| !l.starts_with('['))
            .filter_map(|l| Some(l.split_once(" = ")?.0))
            .chain(
                DENY.split("clippy::")
                    .skip(1)
                    .map(|l| l.trim_end_matches(['(', ')', ']', ',', ' '])),
            )
            .collect();
        let design = include_str!("../DESIGN.md");
        let start = design.find("### 9a.").expect("DESIGN.md has §9a");
        let end = start + design[start..].find("\n### 9b.").expect("§9b follows §9a");
        let mut listed: Vec<&str> = design[start..end]
            .lines()
            .filter_map(|l| l.strip_prefix("* **`clippy::")?.split_once("`**"))
            .map(|(lint, _)| lint)
            .collect();
        declared.sort_unstable();
        listed.sort_unstable();
        assert_eq!(listed, declared);
    }

    #[test]
    fn workload_file_conflicts_with_the_builtin_selectors() {
        // Write a valid model, then check flag interactions around it.
        let dir = std::env::temp_dir();
        let path = dir.join("memnet-cli-test-model.json");
        let path = path.to_str().expect("utf-8 temp path");
        std::fs::write(path, wdl::spec_to_json(&Workload::Bp.spec_small())).expect("tmp write");
        assert!(run_opts(&["--workload-file", path]).is_ok());
        assert!(run_opts(&["--workload-file", path, "--workload", "kmn"]).is_err());
        assert!(run_opts(&["--workload-file", path, "--small"]).is_err());
        assert!(run_opts(&["--workload-file"]).is_err(), "missing value");
        assert!(
            run_opts(&["--workload-file", "/nonexistent/model.json"]).is_err(),
            "unreadable file"
        );
        std::fs::write(path, "{}").expect("tmp write");
        assert!(
            run_opts(&["--workload-file", path]).is_err(),
            "invalid model"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_loaded_model_drives_the_builder_like_its_builtin_twin() {
        let spec = Workload::Kmn.spec_small();
        let json = wdl::spec_to_json(&spec);
        let loaded = wdl::spec_from_json(&json).expect("valid model");
        let a = SimBuilder::new(Organization::Umn)
            .workload(spec)
            .fingerprint();
        let b = SimBuilder::new(Organization::Umn)
            .workload(loaded)
            .fingerprint();
        assert_eq!(a, b, "same model must content-address identically");
    }

    #[test]
    fn dedup_runs_each_fingerprint_once_and_fans_back_out() {
        let (unique, slot_of) = dedup_by_fingerprint(&[7, 9, 7, 7, 3, 9]);
        assert_eq!(unique, vec![0, 1, 4], "first occurrences, in order");
        assert_eq!(slot_of, vec![0, 1, 0, 0, 2, 1]);
        let (unique, slot_of) = dedup_by_fingerprint(&[]);
        assert!(unique.is_empty() && slot_of.is_empty());
    }

    #[test]
    fn sweep_cells_are_already_distinct() {
        // The stock sweep grid has no duplicate configurations, so its
        // summary should report zero deduplicated jobs; duplicates only
        // appear when cells coincide (exercised synthetically above).
        let fps: Vec<u64> = Workload::table2()
            .into_iter()
            .flat_map(|w| {
                Organization::all_extended()
                    .into_iter()
                    .map(move |o| sweep_builder(w.spec_small(), o).fingerprint())
            })
            .collect();
        let (unique, _) = dedup_by_fingerprint(&fps);
        assert_eq!(unique.len(), fps.len());
    }
}

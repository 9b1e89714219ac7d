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

use memnet::common::time::ns_to_fs;
use memnet::common::FaultPlan;
use memnet::engine::{run_jobs_observed, PoolConfig, PoolObs};
use memnet::noc::RoutingPolicy;
use memnet::obs::{MetricSink, MetricsRegistry, TraceEventKind, Tracer};
use memnet::serve::job::{
    parse_cta, parse_engine, parse_org, parse_placement, parse_routing, parse_topology,
    parse_workload,
};
use memnet::serve::{serve_stdio, ServeConfig, Server, TcpDaemon};
use memnet::sim::{
    plan_from_json, CtaPolicy, EngineMode, Organization, PlacementPolicy, ProfileReport,
    SanitizeMode, SimBuilder, SimReport, SystemSnapshot,
};
use memnet::wdl;
use memnet::workloads::{Workload, WorkloadSpec};
use std::process::ExitCode;

/// Counting allocator for `memnet profile` (allocations/run, peak bytes).
/// A pass-through over the system allocator; the counters live outside
/// simulation state, so reports stay byte-identical with it installed.
#[cfg(feature = "count-alloc")]
#[global_allocator]
// memnet-lint: allow(static-state, the global_allocator hook is a static by language rule; stateless pass-through)
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
                                   timeouts, panics) as a Chrome trace;
                                   each --workload-file adds a model row
                                   after the Table II rows
  memnet export [--dir DIR]        write every built-in workload as a
                                   memnet-wdl-v1 JSON model (default DIR .);
                                   `--dir tests/data` regenerates the
                                   golden files checked by CI
  memnet lint [--root PATH] [--json]
                                   run the determinism/concurrency-soundness
                                   lint over the workspace sources: unsafe
                                   outside the allowlist, unjustified
                                   Relaxed/SeqCst orderings, statics in sim
                                   crates, wall-clock/HashMap/thread use, and
                                   malformed suppressions; --json prints a
                                   machine-readable report; exit 0 clean,
                                   1 violations, 2 i/o error
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
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
            ExitCode::SUCCESS
        }
        Some("run") => run_cmd(&args[1..]),
        Some("lint") => lint_cmd(&args[1..]),
        Some("profile") => profile_cmd(&args[1..]),
        Some("sweep") => sweep_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("export") => export_cmd(&args[1..]),
        _ => usage(),
    }
}

/// `memnet lint` options, split from execution for unit testing.
struct LintOpts {
    root: std::path::PathBuf,
    json: bool,
}

fn parse_lint_opts(args: &[String]) -> Result<LintOpts, ExitCode> {
    // The binary is built from the workspace root package, so its manifest
    // dir IS the workspace root — the natural default scan target.
    let mut opts = LintOpts {
        root: std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        json: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--root" => match it.next() {
                Some(p) => opts.root = std::path::PathBuf::from(p),
                None => {
                    eprintln!("missing value for --root");
                    return Err(usage());
                }
            },
            _ => {
                eprintln!("unknown option {a}");
                return Err(usage());
            }
        }
    }
    Ok(opts)
}

/// `memnet lint [--root PATH] [--json]`: the concurrency-soundness and
/// determinism lint, in-process.
fn lint_cmd(args: &[String]) -> ExitCode {
    let opts = match parse_lint_opts(args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    match memnet_lint::scan_workspace(&opts.root) {
        Err(e) => {
            eprintln!(
                "memnet lint: i/o error scanning {}: {e}",
                opts.root.display()
            );
            ExitCode::from(2)
        }
        Ok(res) => {
            if opts.json {
                println!("{}", res.to_json_string());
            } else if res.violations.is_empty() {
                println!(
                    "memnet lint: {} files clean ({} rules)",
                    res.files,
                    memnet_lint::RULES.len()
                );
            } else {
                for v in &res.violations {
                    println!("{v}");
                }
                eprintln!(
                    "memnet lint: {} violation(s) in {} files scanned",
                    res.violations.len(),
                    res.files
                );
            }
            if res.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// `memnet export [--dir DIR]`: writes every built-in workload as a
/// `memnet-wdl-v1` model file. This is also the regeneration path for the
/// golden files under `tests/data/` (see EXPERIMENTS.md).
fn export_cmd(args: &[String]) -> ExitCode {
    let mut dir = String::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => match it.next() {
                Some(d) => dir = d.clone(),
                None => {
                    eprintln!("missing value for --dir");
                    return usage();
                }
            },
            _ => {
                eprintln!("unknown option {a}");
                return usage();
            }
        }
    }
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {dir}: {e}");
        return ExitCode::FAILURE;
    }
    let builtins = wdl::all_builtins();
    for w in &builtins {
        let spec = w.spec();
        let mut text = wdl::spec_to_json(&spec);
        text.push('\n');
        let path = format!("{dir}/{}", wdl::model_file_name(&spec.abbr));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("[wrote {} models to {dir}]", builtins.len());
    ExitCode::SUCCESS
}

/// `memnet sweep` options, split from execution so flag handling (in
/// particular unknown-flag rejection) is unit-testable.
struct SweepOpts {
    small: bool,
    jobs: usize, // 0 = pool default (available parallelism)
    trace_file: Option<String>,
    /// Extra `memnet-wdl-v1` model files appended as sweep rows.
    workload_files: Vec<String>,
}

fn parse_sweep_opts(args: &[String]) -> Result<SweepOpts, ExitCode> {
    let mut opts = SweepOpts {
        small: false,
        jobs: 0,
        trace_file: None,
        workload_files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--small" => opts.small = true,
            "--workload-file" => match it.next() {
                Some(f) => opts.workload_files.push(f.clone()),
                None => {
                    eprintln!("missing value for --workload-file");
                    return Err(usage());
                }
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.jobs = n,
                _ => {
                    eprintln!("--jobs expects a positive integer");
                    return Err(usage());
                }
            },
            "--trace" => match it.next() {
                Some(f) => opts.trace_file = Some(f.clone()),
                None => {
                    eprintln!("missing value for --trace");
                    return Err(usage());
                }
            },
            _ => {
                eprintln!("unknown option {a}");
                return Err(usage());
            }
        }
    }
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

fn sweep_cmd(args: &[String]) -> ExitCode {
    let opts = match parse_sweep_opts(args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let SweepOpts {
        small,
        jobs,
        trace_file,
        workload_files,
    } = opts;

    // Table II rows first, then any runtime-loaded model rows.
    let mut rows: Vec<WorkloadSpec> = Workload::table2()
        .into_iter()
        .map(|w| if small { w.spec_small() } else { w.spec() })
        .collect();
    for path in &workload_files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read workload model {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match wdl::spec_from_json(&text) {
            Ok(spec) => rows.push(spec),
            Err(e) => {
                eprintln!("bad workload model {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
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
        workers: jobs,
        ..PoolConfig::default()
    };
    let (outcomes, obs) = run_jobs_observed(&cfg, sims);
    if let Some(path) = &trace_file {
        if let Err(e) = std::fs::write(path, pool_trace_json(&obs)) {
            eprintln!("failed to write pool trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[wrote pool trace: {path} ({} jobs, {} retries, {} timeouts, {} panics)]",
            obs.stats.jobs, obs.stats.retries, obs.stats.timeouts, obs.stats.panics
        );
    }
    let mut unique_results = Vec::with_capacity(unique.len());
    for (outcome, &i) in outcomes.into_iter().zip(&unique) {
        let (s, org) = cells[i];
        match outcome {
            Ok(Ok(r)) => unique_results.push(r),
            Ok(Err(e)) => {
                eprintln!("sweep {}/{} failed: {e}", s.abbr, org.name());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("sweep {}/{} worker failed: {e}", s.abbr, org.name());
                return ExitCode::FAILURE;
            }
        }
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
    ExitCode::SUCCESS
}

fn serve_cmd(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut port: Option<u16> = None;
    let mut stdio = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdio" => stdio = true,
            "--port" => match it.next().and_then(|v| v.parse().ok()) {
                Some(p) => port = Some(p),
                None => {
                    eprintln!("--port expects a port number (0 picks a free port)");
                    return usage();
                }
            },
            "--cache" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => cfg.cache_capacity = n,
                _ => {
                    eprintln!("--cache expects a positive entry count");
                    return usage();
                }
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.workers = n,
                None => {
                    eprintln!("--workers expects a thread count (0 = all cores)");
                    return usage();
                }
            },
            "--retries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.retries = n,
                None => {
                    eprintln!("--retries expects a count");
                    return usage();
                }
            },
            _ => {
                eprintln!("unknown option {a}");
                return usage();
            }
        }
    }
    if stdio && port.is_some() {
        eprintln!("--stdio and --port are mutually exclusive");
        return usage();
    }
    let mut server = Server::new(&cfg);
    let outcome = match port {
        None => serve_stdio(&mut server),
        Some(p) => match TcpDaemon::bind(p) {
            Ok(daemon) => {
                match daemon.local_addr() {
                    Ok(addr) => eprintln!("[memnet serve: listening on {addr}]"),
                    Err(e) => eprintln!("[memnet serve: listening (addr unavailable: {e})]"),
                }
                daemon.run(&mut server)
            }
            Err(e) => {
                eprintln!("memnet serve: cannot bind 127.0.0.1:{p}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if let Err(e) = outcome {
        eprintln!("memnet serve: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Renders one pool run's schedule (retries, timeouts, panic isolations)
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
    m.add("pool.timeouts", obs.stats.timeouts);
    m.snapshot(last_fs);
    tracer.to_chrome_json(Some(&m))
}

/// Everything `memnet run` and `memnet profile` share: the fully
/// configured builder plus the presentation flags.
struct RunOpts {
    builder: SimBuilder,
    json: bool,
    trace_file: Option<String>,
    /// Write a warmup-boundary snapshot here (`--checkpoint`).
    checkpoint: Option<String>,
    /// Resume from a snapshot here instead of simulating the warmup
    /// prefix (`--restore`).
    restore: Option<String>,
}

fn parse_run_opts(args: &[String]) -> Result<RunOpts, ExitCode> {
    let mut org = Organization::Umn;
    let mut workload = Workload::Kmn;
    let mut gpus = 4u32;
    let mut sms = 16u32;
    let mut topology = None;
    let mut routing = RoutingPolicy::Minimal;
    let mut cta = CtaPolicy::StaticChunk;
    let mut placement = PlacementPolicy::Random;
    let mut overlay = false;
    let mut small = false;
    let mut json = false;
    let mut budget_ms = 20.0f64;
    let mut trace_file: Option<String> = None;
    let mut trace_events = 1_000_000usize;
    let mut metrics_every: Option<u64> = None;
    let mut faults = FaultPlan::new();
    let mut chaos_seed: Option<u64> = None;
    let mut engine: Option<EngineMode> = None;
    let mut sanitize = false;
    let mut checkpoint: Option<String> = None;
    let mut restore: Option<String> = None;
    let mut workload_set = false;
    let mut model: Option<WorkloadSpec> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Option<String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("missing value for {name}");
            }
            v.cloned()
        };
        match a.as_str() {
            "--org" => match value("--org").and_then(|v| parse_org(&v)) {
                Some(o) => org = o,
                None => return Err(usage()),
            },
            "--workload" => match value("--workload").and_then(|v| parse_workload(&v)) {
                Some(w) => {
                    workload = w;
                    workload_set = true;
                }
                None => return Err(usage()),
            },
            "--workload-file" => match value("--workload-file") {
                Some(path) => {
                    let text = match std::fs::read_to_string(&path) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("cannot read workload model {path}: {e}");
                            return Err(ExitCode::FAILURE);
                        }
                    };
                    match wdl::spec_from_json(&text) {
                        Ok(spec) => model = Some(spec),
                        Err(e) => {
                            eprintln!("bad workload model {path}: {e}");
                            return Err(ExitCode::FAILURE);
                        }
                    }
                }
                None => return Err(usage()),
            },
            "--gpus" => match value("--gpus").and_then(|v| v.parse().ok()) {
                Some(n) => gpus = n,
                None => return Err(usage()),
            },
            "--sms" => match value("--sms").and_then(|v| v.parse().ok()) {
                Some(n) => sms = n,
                None => return Err(usage()),
            },
            "--topology" => match value("--topology").and_then(|v| parse_topology(&v)) {
                Some(t) => topology = Some(t),
                None => return Err(usage()),
            },
            "--routing" => match value("--routing").and_then(|v| parse_routing(&v)) {
                Some(r) => routing = r,
                None => return Err(usage()),
            },
            "--cta" => match value("--cta").and_then(|v| parse_cta(&v)) {
                Some(p) => cta = p,
                None => return Err(usage()),
            },
            "--placement" => match value("--placement").and_then(|v| parse_placement(&v)) {
                Some(p) => placement = p,
                None => return Err(usage()),
            },
            "--overlay" => overlay = true,
            "--small" => small = true,
            "--json" => json = true,
            "--sanitize" => sanitize = true,
            "--seconds-budget" => match value("--seconds-budget").and_then(|v| v.parse().ok()) {
                Some(ms) => budget_ms = ms,
                None => return Err(usage()),
            },
            "--trace" => match value("--trace") {
                Some(f) => trace_file = Some(f),
                None => return Err(usage()),
            },
            "--trace-events" => match value("--trace-events").and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => trace_events = n,
                _ => return Err(usage()),
            },
            "--metrics-every" => match value("--metrics-every").and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => metrics_every = Some(n),
                _ => return Err(usage()),
            },
            "--faults" => match value("--faults") {
                Some(path) => {
                    let text = match std::fs::read_to_string(&path) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("cannot read fault plan {path}: {e}");
                            return Err(ExitCode::FAILURE);
                        }
                    };
                    match plan_from_json(&text) {
                        Ok(plan) => {
                            for ev in plan.events() {
                                faults.push(ev.at_fs, ev.kind.clone());
                            }
                        }
                        Err(e) => {
                            eprintln!("bad fault plan {path}: {e}");
                            return Err(ExitCode::FAILURE);
                        }
                    }
                }
                None => return Err(usage()),
            },
            "--chaos-seed" => match value("--chaos-seed").and_then(|v| v.parse().ok()) {
                Some(n) => chaos_seed = Some(n),
                None => return Err(usage()),
            },
            "--engine" => match value("--engine").and_then(|v| parse_engine(&v)) {
                Some(mode) => engine = Some(mode),
                None => return Err(usage()),
            },
            "--checkpoint" => match value("--checkpoint") {
                Some(f) => checkpoint = Some(f),
                None => return Err(usage()),
            },
            "--restore" => match value("--restore") {
                Some(f) => restore = Some(f),
                None => return Err(usage()),
            },
            _ => {
                eprintln!("unknown option {a}");
                return Err(usage());
            }
        }
    }

    let spec = if let Some(spec) = model {
        if workload_set || small {
            eprintln!("--workload-file replaces the built-in suite; it cannot be combined with --workload or --small");
            return Err(usage());
        }
        spec
    } else if small {
        workload.spec_small()
    } else {
        workload.spec()
    };
    let mut b = SimBuilder::new(org)
        .gpus(gpus)
        .sms_per_gpu(sms)
        .workload(spec)
        .cta_policy(cta)
        .placement(placement)
        .overlay(overlay)
        .routing(routing)
        .phase_budget_ns(budget_ms * 1e6);
    if let Some(t) = topology {
        b = b.topology(t);
    }
    if trace_file.is_some() {
        b = b.trace(trace_events);
    }
    if let Some(n) = metrics_every {
        b = b.metrics_every(n);
    }
    if let Some(seed) = chaos_seed {
        // Seeded chaos: a dozen failures spread over the first couple of
        // simulated microseconds, early enough to land while even the
        // --small workloads are still in flight.
        let plan = FaultPlan::random(seed, 12, gpus as usize, ns_to_fs(2_000.0));
        for ev in plan.events() {
            faults.push(ev.at_fs, ev.kind.clone());
        }
    }
    if !faults.is_empty() {
        b = b.faults(faults);
    }
    if let Some(mode) = engine {
        b = b.engine(mode);
    }
    if sanitize {
        b = b.sanitize(SanitizeMode::Record);
    }
    if checkpoint.is_some() && restore.is_some() {
        eprintln!("--checkpoint and --restore are mutually exclusive");
        return Err(usage());
    }
    Ok(RunOpts {
        builder: b,
        json,
        trace_file,
        checkpoint,
        restore,
    })
}

fn run_cmd(args: &[String]) -> ExitCode {
    let opts = match parse_run_opts(args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let r = if let Some(path) = &opts.restore {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read snapshot {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let snap = match SystemSnapshot::from_json(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bad snapshot {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match opts.builder.try_run_restored(&snap) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("memnet: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(path) = &opts.checkpoint {
        // The snapshot remembers the flags that produced it, so a later
        // `--restore` failure can say what configuration to re-create.
        let meta = args.join(" ");
        let (r, snap) = match opts.builder.try_run_checkpointed(&meta) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("memnet: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut text = snap.to_json_string();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write snapshot {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[wrote snapshot: {path} (taken at {} fs, fingerprint {:016x})]",
            snap.now_fs(),
            snap.fingerprint()
        );
        r
    } else {
        match opts.builder.try_run() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("memnet: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if opts.json {
        print_json(&r);
    } else {
        print_table(&r);
    }
    if write_trace(&r, opts.trace_file.as_deref()).is_err() {
        return ExitCode::FAILURE;
    }
    if !opts.json && opts.trace_file.is_none() {
        if let Some(m) = &r.metrics_json {
            println!("{m}");
        }
    }
    exit_code(&r)
}

/// Writes the Chrome trace when `--trace` was given. If the tracer ring
/// overflowed, says so once — silent event loss makes a trace lie.
fn write_trace(r: &SimReport, path: Option<&str>) -> Result<(), ()> {
    let Some(path) = path else { return Ok(()) };
    let trace = r.trace_json.as_deref().expect("tracing was enabled");
    if let Err(e) = std::fs::write(path, trace) {
        eprintln!("failed to write trace {path}: {e}");
        return Err(());
    }
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

fn profile_cmd(args: &[String]) -> ExitCode {
    let mut out: Option<String> = None;
    let mut heatmap: Option<String> = None;
    let mut report: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Option<String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("missing value for {name}");
            }
            v.cloned()
        };
        match a.as_str() {
            "--out" => match value("--out") {
                Some(f) => out = Some(f),
                None => return usage(),
            },
            "--heatmap" => match value("--heatmap") {
                Some(f) => heatmap = Some(f),
                None => return usage(),
            },
            "--report" => match value("--report") {
                Some(f) => report = Some(f),
                None => return usage(),
            },
            _ => rest.push(a.clone()),
        }
    }
    let opts = match parse_run_opts(&rest) {
        Ok(o) => o,
        Err(code) => return code,
    };
    if opts.checkpoint.is_some() || opts.restore.is_some() {
        eprintln!("memnet profile does not support --checkpoint/--restore");
        return usage();
    }
    let json = opts.json;
    let (r, prof) = match opts.builder.profile(true).try_run_profiled() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("memnet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prof = prof.expect("profiling was enabled");
    if json {
        print!("{}", prof.to_json_string());
    } else {
        print_table(&r);
        println!();
        print_profile(&prof);
    }
    if let Some(path) = &report {
        // Exactly the bytes `memnet run --json` prints (to_json_string
        // plus println!'s newline), so CI can `cmp` the two documents.
        let mut text = r.to_json_string();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write report {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, prof.to_json_string()) {
            eprintln!("failed to write profile {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &heatmap {
        if let Err(e) = std::fs::write(path, prof.heatmap.to_json_string()) {
            eprintln!("failed to write heatmap {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if write_trace(&r, opts.trace_file.as_deref()).is_err() {
        return ExitCode::FAILURE;
    }
    exit_code(&r)
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

    #[test]
    fn org_parsing_covers_all_names() {
        // The parsers are shared with memnet-serve (`serve::job`); this
        // pins the CLI-visible vocabulary from the binary's side too.
        for o in Organization::all_extended() {
            let parsed = parse_org(&o.name().to_ascii_lowercase());
            assert_eq!(parsed, Some(o), "{}", o.name());
        }
        assert_eq!(parse_org("nvlink"), None);
    }

    #[test]
    fn workload_parsing_accepts_table2_abbreviations() {
        for w in Workload::table2() {
            assert_eq!(parse_workload(w.abbr()), Some(w));
            assert_eq!(parse_workload(&w.abbr().to_ascii_lowercase()), Some(w));
        }
        assert_eq!(parse_workload("VECADD"), Some(Workload::VecAdd));
        assert_eq!(parse_workload("nope"), None);
    }

    #[test]
    fn topology_parsing() {
        assert!(parse_topology("sfbfly").is_some());
        assert!(parse_topology("smesh2x").is_some());
        assert!(parse_topology("ddfly").is_some());
        assert!(parse_topology("hypercube").is_none());
    }

    #[test]
    fn run_rejects_unknown_flags_and_bad_values() {
        assert!(parse_run_opts(&argv(&["--warp", "9"])).is_err());
        assert!(parse_run_opts(&argv(&["--gpus"])).is_err(), "missing value");
        assert!(parse_run_opts(&argv(&["--gpus", "many"])).is_err());
        assert!(parse_run_opts(&argv(&["--org", "nvlink"])).is_err());
        assert!(parse_run_opts(&argv(&["--engine", "quantum"])).is_err());
        assert!(parse_run_opts(&argv(&["--engine", "parallel"])).is_err());
        assert!(parse_run_opts(&argv(&["--sim-threads", "4"])).is_err());
        assert!(parse_run_opts(&argv(&["--checkpoint", "a.json", "--restore", "b.json"])).is_err());
        assert!(parse_run_opts(&argv(&["--gpus", "2", "--small"])).is_ok());
        assert!(parse_run_opts(&argv(&["--checkpoint", "a.json"])).is_ok());
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
    fn lint_flag_parsing() {
        let opts = parse_lint_opts(&argv(&[])).expect("defaults are valid");
        assert!(!opts.json);
        assert!(
            opts.root.join("Cargo.toml").is_file(),
            "default root must be the workspace root"
        );
        let opts =
            parse_lint_opts(&argv(&["--root", "/tmp/elsewhere", "--json"])).expect("valid flags");
        assert!(opts.json);
        assert_eq!(opts.root, std::path::Path::new("/tmp/elsewhere"));
        assert!(
            parse_lint_opts(&argv(&["--root"])).is_err(),
            "missing value"
        );
        assert!(parse_lint_opts(&argv(&["--fix"])).is_err(), "unknown flag");
    }

    #[test]
    fn lint_subcommand_finds_this_workspace_clean() {
        // The tree this test builds from must come back clean through the
        // subcommand's in-process path.
        let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let res = memnet_lint::scan_workspace(&root).expect("scan own workspace");
        assert!(
            res.violations.is_empty(),
            "workspace must be lint-clean: {:?}",
            res.violations
        );
        assert!(res.files > 50, "scan should cover the whole workspace");
        // The JSON rendering is well-formed enough for CI to parse the
        // headline counts back out.
        let json = res.to_json_string();
        assert!(json.contains("\"violations\": []"), "clean report: {json}");
    }

    #[test]
    fn workload_file_conflicts_with_the_builtin_selectors() {
        // Write a valid model, then check flag interactions around it.
        let dir = std::env::temp_dir();
        let path = dir.join("memnet-cli-test-model.json");
        let path = path.to_str().expect("utf-8 temp path");
        std::fs::write(path, wdl::spec_to_json(&Workload::Bp.spec_small())).expect("tmp write");
        assert!(parse_run_opts(&argv(&["--workload-file", path])).is_ok());
        assert!(parse_run_opts(&argv(&["--workload-file", path, "--workload", "kmn"])).is_err());
        assert!(parse_run_opts(&argv(&["--workload-file", path, "--small"])).is_err());
        assert!(
            parse_run_opts(&argv(&["--workload-file"])).is_err(),
            "missing value"
        );
        assert!(
            parse_run_opts(&argv(&["--workload-file", "/nonexistent/model.json"])).is_err(),
            "unreadable file"
        );
        std::fs::write(path, "{}").expect("tmp write");
        assert!(
            parse_run_opts(&argv(&["--workload-file", path])).is_err(),
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

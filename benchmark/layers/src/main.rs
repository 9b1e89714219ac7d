//! `bench-layers`: the part of the benchmark that links the memnet crates.
//!
//! ```text
//! bench-layers noc-saturated --seed N [--warmup C] [--measure C]
//!     one load point on the 8-cluster sFBFLY; the `noc-saturated`
//!     workload's child process (prints one JSON object)
//! bench-layers small-models --dir DIR
//!     the `small` variant of every built-in as a memnet-wdl-v1 model
//!     (`memnet export` writes only the full-size ones), for serve-mix's
//!     inline-model requests
//! bench-layers probes [--smoke]
//!     the per-layer probes; prints {"metrics":{..},"spans":[..]}
//! ```
//!
//! Every public function of the crates this binary calls is listed under
//! "Probe surface" in `benchmark/README.md`; renaming one needs a
//! benchmark change first.

mod probes;

use bench_common::json::Json;
use memnet_noc::topo::{build_clusters, Clusters, SlicedKind, TopologyKind};
use memnet_noc::traffic::run_load_point;
use memnet_noc::{Network, NetworkBuilder, NocParams, Pattern};
use std::process::ExitCode;

/// The reference fabric: 8 GPU clusters × 4 HMCs, sliced flattened
/// butterfly, 8 channels per device (the `--gpus 8 --topology sfbfly`
/// memory network without the devices around it).
pub fn sfbfly8() -> (Network, Clusters) {
    let mut b = NetworkBuilder::new(NocParams::default());
    let clusters = build_clusters(
        &mut b,
        8,
        4,
        8,
        TopologyKind::Sliced {
            kind: SlicedKind::Fbfly,
            double: false,
        },
    );
    (b.build(), clusters)
}

/// One uniform-random load point on a fresh [`sfbfly8`]: GPUs inject,
/// HMCs eject. Returns the point, the flit-hops it cost and the network
/// cycles it took (warm-up, measurement and drain).
pub fn load_point(
    offered: f64,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> (memnet_noc::LoadPoint, u64, u64) {
    let (mut net, clusters) = sfbfly8();
    let dests = clusters.hmc_eps_flat();
    let point = run_load_point(
        &mut net,
        &clusters.device_eps,
        &dests,
        Pattern::Uniform,
        offered,
        warmup,
        measure,
        seed,
    );
    (point, net.stats().flit_hops, net.cycle())
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("{name} expects a value")),
    }
}

fn noc_saturated(args: &[String]) -> Result<(), String> {
    let seed = flag(args, "--seed", 1u64)?;
    let warmup = flag(args, "--warmup", 100_000u64)?;
    let measure = flag(args, "--measure", 1_000_000u64)?;
    let (point, flit_hops, cycles) = load_point(0.8, warmup, measure, seed);
    let out = Json::obj([
        ("offered", Json::Num(point.offered)),
        ("accepted", Json::Num(point.accepted)),
        ("latency_mean", Json::Num(point.latency.mean())),
        ("packets", Json::Num(point.latency.count() as f64)),
        ("saturated", Json::Bool(point.saturated)),
        ("flit_hops", Json::Num(flit_hops as f64)),
        ("cycles", Json::Num(cycles as f64)),
    ]);
    println!("{}", out.write());
    Ok(())
}

fn small_models(args: &[String]) -> Result<(), String> {
    let dir = std::path::PathBuf::from(flag(args, "--dir", String::new())?);
    if dir.as_os_str().is_empty() {
        return Err("small-models needs --dir DIR".into());
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for w in memnet_wdl::all_builtins() {
        let path = dir.join(memnet_wdl::model_file_name(w.abbr()));
        std::fs::write(&path, memnet_wdl::spec_to_json(&w.spec_small()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("noc-saturated") => noc_saturated(rest),
        Some("small-models") => small_models(rest),
        Some("probes") => {
            println!(
                "{}",
                probes::run(rest.iter().any(|a| a == "--smoke")).write()
            );
            Ok(())
        }
        _ => Err("usage: bench-layers noc-saturated|small-models|probes [options]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench-layers: {e}");
            ExitCode::from(2)
        }
    }
}

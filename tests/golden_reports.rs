//! Exact-bytes pins: the one oracle for "same report".
//!
//! Each row of [`cases`] is a small configuration whose output is hashed
//! (FNV-1a, `fnv1a64`) and held to the value committed in
//! `tests/data/golden_reports.txt`, once per engine. Both engines against
//! one committed hash says they agree with each other, and also catches
//! what comparing them to each other cannot: a rewrite of the `Network`,
//! `Gpu` or `Vault` they share that shifts both equally.
//!
//! A report row hashes the compact `SimReport` JSON, the fields that
//! document leaves out (traffic matrix, per-GPU digests, routing counters,
//! channel utilization) and the trace and metrics streams when the row
//! switched them on. To pin a new configuration, add a row to [`cases`]
//! and re-bless on the commit *before* the change it is to guard; the
//! bless must add that row's line and move no other. If a hash moves,
//! either the change broke byte-identity (fix it) or it deliberately
//! changed the model: then re-bless with
//!
//! ```sh
//! cargo test --release --test golden_reports -- --ignored bless
//! ```
//!
//! and say in CHANGES.md why behaviour moved.
//!
//! The rows after the reports ([`net_cases`]) pin the standalone network
//! under `run_load_point`, which no full-system row saturates. The last
//! rows ([`op_rows`]) pin each built-in kernel's op streams directly.

use memnet::common::time::ns_to_fs;
use memnet::common::{FaultKind, FaultPlan, LinkTag};
use memnet::gpu::kernel::{CtaOp, KernelModel};
use memnet::noc::topo::{build_clusters, SlicedKind, TopologyKind};
use memnet::noc::traffic::run_load_point;
use memnet::noc::{NetworkBuilder, NocParams, Pattern, RoutingPolicy};
use memnet::obs::ToJson;
use memnet::serve::job::parse_topology;
use memnet::sim::{
    fnv1a64, CtaPolicy, EngineMode, Organization, SanitizeMode, SimBuilder, SimReport,
};
use memnet::wdl::fuzz::WorkloadFuzzer;
use memnet::workloads::{Workload, WorkloadSpec};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_reports.txt");

/// What a case runs and which bytes of the result it pins.
enum Pin {
    /// The whole report of a straight run, streams included.
    Report,
    /// The report of a run restored from its own pre-kernel checkpoint:
    /// every component reads its snapshot record back mid-run.
    Resumed,
    /// The Chrome trace stream.
    Trace,
    /// The metrics-epoch stream.
    Metrics,
    /// The pre-kernel snapshot document, always taken under the
    /// event-driven engine: its `cpu.cycle` counts the CPU domain's ticks,
    /// which differ between the engines by design (DESIGN §11c).
    Snapshot,
}

fn small(org: Organization, w: Workload) -> SimBuilder {
    rig(org, w.spec_small())
}

fn rig(org: Organization, spec: WorkloadSpec) -> SimBuilder {
    SimBuilder::new(org).gpus(2).sms_per_gpu(2).workload(spec)
}

/// Eight single-SM GPUs: the reference run's fabric at test size.
fn eight(topology: TopologyKind) -> SimBuilder {
    SimBuilder::new(Organization::Umn)
        .gpus(8)
        .sms_per_gpu(1)
        .workload(Workload::VecAdd.spec_small())
        .topology(topology)
}

/// A ×64 BER degrade early in the kernel, then a cut of a neighbouring
/// link while heads are queued on it (the run reports 1 reroute and
/// 2 205 retries).
fn link_faults() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(
        ns_to_fs(200.0),
        FaultKind::LinkDegrade {
            class: LinkTag::HmcHmc,
            ordinal: 1,
            factor: 64,
        },
    );
    plan.push(
        ns_to_fs(3_000.0),
        FaultKind::LinkDown {
            class: LinkTag::HmcHmc,
            ordinal: 2,
        },
    );
    plan
}

/// Loses a GPU mid-kernel: resident CTAs are rebalanced (32) and
/// in-flight replies fail (20), so `Gpu::fail` runs on live state.
fn gpu_loss() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(ns_to_fs(500.0), FaultKind::GpuLoss { gpu: 1 });
    plan
}

/// A link cut, a vault stall and a GPU loss 20 ns apart, early enough to
/// land in the memcpy phase where there is one: faults are pinned to owner
/// clock edges, so the event-driven engine must wake parked domains there.
fn three_faults() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(
        ns_to_fs(20.0),
        FaultKind::LinkDown {
            class: LinkTag::HmcHmc,
            ordinal: 0,
        },
    );
    plan.push(
        ns_to_fs(40.0),
        FaultKind::VaultStall {
            hmc: 0,
            vault: 3,
            stall_tcks: 2_000,
        },
    );
    plan.push(ns_to_fs(60.0), FaultKind::GpuLoss { gpu: 1 });
    plan
}

/// The pinned cases, in file order.
fn cases() -> Vec<(String, Pin, SimBuilder)> {
    use Organization::*;
    let topology = |name: &str| parse_topology(name).expect("a topology name");
    // CG.S computes on the host between kernels; shrunk so the CPU
    // traffic the overlay carries stays test-sized.
    let mut cg = Workload::CgS.spec_small();
    let mut k = (*cg.kernel).clone();
    k.ctas = 8;
    k.iters = 2;
    cg.kernel = std::sync::Arc::new(k);
    let mut rows = vec![
        ("umn-kmn", Pin::Report, small(Umn, Workload::Kmn)),
        ("umn8-sfbfly", Pin::Report, eight(topology("sfbfly"))),
        ("umn8-dfbfly", Pin::Report, eight(topology("dfbfly"))),
        ("pcie-scan", Pin::Report, small(Pcie, Workload::Scan)),
        ("cmn-bp", Pin::Report, small(Cmn, Workload::Bp)),
        ("gmn-srad", Pin::Report, small(Gmn, Workload::Srad)),
        ("pcn-vecadd", Pin::Report, small(Pcn, Workload::VecAdd)),
        ("pciezc-scan", Pin::Report, small(PcieZc, Workload::Scan)),
        ("cmnzc-bp", Pin::Report, small(CmnZc, Workload::Bp)),
        ("gmnzc-srad", Pin::Report, small(GmnZc, Workload::Srad)),
        (
            "umn4-ugal",
            Pin::Report,
            small(Umn, Workload::Bfs)
                .gpus(4)
                .routing(RoutingPolicy::Ugal),
        ),
        (
            "umn-overlay-cg",
            Pin::Report,
            rig(Umn, cg.clone()).overlay(true),
        ),
        (
            "umn-stealing",
            Pin::Report,
            small(Umn, Workload::Bp).cta_policy(CtaPolicy::Stealing),
        ),
        (
            "umn-link-cut-degrade64",
            Pin::Report,
            small(Umn, Workload::VecAdd).faults(link_faults()),
        ),
        (
            "umn-gpu-loss",
            Pin::Report,
            small(Umn, Workload::VecAdd).faults(gpu_loss()),
        ),
        ("umn-fuzz2", Pin::Report, rig(Umn, WorkloadFuzzer::spec(2))),
        (
            "pcie-fuzz5",
            Pin::Report,
            rig(Pcie, WorkloadFuzzer::spec(5)),
        ),
        // Same configuration as the case above, so the same hash.
        (
            "pcie-fuzz5-resumed",
            Pin::Resumed,
            rig(Pcie, WorkloadFuzzer::spec(5)),
        ),
        (
            "umn-trace",
            Pin::Trace,
            small(Umn, Workload::VecAdd).trace(1 << 16),
        ),
        (
            "pcie-metrics",
            Pin::Metrics,
            small(Pcie, Workload::VecAdd).metrics_every(500),
        ),
    ]
    .into_iter()
    .map(|(name, pin, b)| (name.to_string(), pin, b))
    .collect::<Vec<_>>();

    // The engine-equivalence matrix: where fast-forward has the most to
    // skip. Four of its cells are rows above (umn-kmn, pcie-scan,
    // pcn-vecadd, umn-stealing) and are not repeated.
    let key = |org: Organization, what: &str| {
        format!("{}-{what}", org.name().replace('-', "")).to_lowercase()
    };
    let mut report = |name: String, b: SimBuilder| rows.push((name, Pin::Report, b));
    // Every organization, with a memcpy phase where it has one.
    for org in Organization::all_extended() {
        if org != Pcn {
            report(key(org, "vecadd"), small(org, Workload::VecAdd));
        }
    }
    // Table II on PCIe (DMA, network and DRAM run while the GPU domains
    // park) and on UMN (the all-shared path).
    for w in Workload::table2() {
        for org in [Pcie, Umn] {
            if (org, w) != (Umn, Workload::Kmn) && (org, w) != (Pcie, Workload::Scan) {
                report(key(org, w.abbr()), small(org, w));
            }
        }
    }
    // Pure host compute between kernels parks every domain but the CPU.
    for org in [Pcie, Umn] {
        report(key(org, "cg-shrunk"), rig(org, cg.clone()));
    }
    for name in ["smesh", "storus2x", "dfbfly"] {
        for org in [Gmn, Umn] {
            report(
                key(org, name),
                small(org, Workload::VecAdd).topology(topology(name)),
            );
        }
    }
    // Same events, same order, same epoch numbering in both engines.
    let streams = |b: SimBuilder| b.trace(1 << 16).metrics_every(500);
    for org in [Pcie, Umn] {
        report(
            key(org, "trace-metrics"),
            streams(small(org, Workload::VecAdd)),
        );
    }
    for org in [Umn, Gmn, Pcie] {
        report(
            key(org, "three-faults"),
            small(org, Workload::VecAdd).faults(three_faults()),
        );
    }
    // A seeded chaos plan, with the streams that record its injections.
    let chaos = FaultPlan::random(0xC0FFEE, 8, 2, ns_to_fs(500.0));
    report(
        key(Umn, "chaos-c0ffee"),
        streams(small(Umn, Workload::Bp).faults(chaos)),
    );
    // The snapshot document itself: with a sanitizer block; with a link
    // down, a vault stalled and a GPU lost before the boundary; with the
    // DMA counters of a memcpy; with a warm CPU, whose host-pre phase is
    // CG.S's host-post (512 reads over 32 KB), so its counters and cache
    // ways are non-zero. The sanitizer is set on each row, so
    // `MEMNET_SANITIZE` cannot add or remove that block.
    let off = |b: SimBuilder| b.sanitize(SanitizeMode::Off);
    let mut warm = Workload::CgS.spec_small();
    warm.host_pre = warm.host_post;
    for (name, b) in [
        (
            "snap-gmn-vecadd-sanitized",
            small(Gmn, Workload::VecAdd).sanitize(SanitizeMode::Record),
        ),
        (
            "snap-gmn-three-faults",
            off(small(Gmn, Workload::VecAdd).faults(three_faults())),
        ),
        ("snap-pcie-scan", off(small(Pcie, Workload::Scan))),
        ("snap-gmn-warm-cpu", off(rig(Gmn, warm))),
    ] {
        rows.push((name.to_string(), Pin::Snapshot, b));
    }
    rows
}

/// The compact JSON, every report field it does not serialize, then the
/// trace and metrics streams of a run that recorded them. The sanitizer's
/// findings are left out so the pins hold when `MEMNET_SANITIZE` arms it
/// for the whole suite; a dirty run is that mode's own failure.
fn report_bytes(mut r: SimReport) -> String {
    r.sanitizer = None;
    let mut s = r.to_json_compact();
    write!(
        s,
        "\n{:?}\n{:?}\n{} {} {:?}",
        r.traffic, r.per_gpu, r.passthrough, r.nonminimal, r.channel_utilization
    )
    .expect("writing to a String");
    let metrics = r.metrics.map(|m| m.to_json_pretty());
    for stream in [r.trace_json, metrics].into_iter().flatten() {
        s.push_str(&stream);
    }
    s
}

fn hash_case(pin: &Pin, b: SimBuilder, mode: EngineMode) -> u64 {
    let b = b.engine(mode);
    let bytes = match pin {
        Pin::Report => report_bytes(b.run()),
        Pin::Resumed => {
            let (_, snap) = b
                .clone()
                .try_run_checkpointed("golden")
                .expect("checkpoint");
            report_bytes(b.try_run_restored(&snap).expect("restore"))
        }
        Pin::Trace => b.run().trace_json.expect("trace enabled"),
        Pin::Metrics => b.run().metrics.expect("metrics enabled").to_json_pretty(),
        Pin::Snapshot => {
            let (_, snap) = b
                .engine(EngineMode::EventDriven)
                .try_run_checkpointed("golden")
                .expect("checkpoint");
            snap.to_json_string()
        }
    };
    fnv1a64(bytes.as_bytes())
}

/// The noc-saturated workload's fabric (8 clusters × 4 HMCs, sFBFLY, GPUs
/// inject, HMCs eject) at test size: name, routing, pattern, offered load.
/// One standalone load point: name, routing, pattern, offered load, and
/// the ×factor BER degrade put on the first HMC–HMC link before it runs
/// (1 = clean).
type NetCase = (&'static str, RoutingPolicy, Pattern, f64, u32);

fn net_cases() -> [NetCase; 6] {
    use {Pattern::*, RoutingPolicy::*};
    [
        ("net-min-uniform-0.8", Minimal, Uniform, 0.8, 1),
        ("net-ugal-uniform-0.8", Ugal, Uniform, 0.8, 1),
        ("net-min-hotspot-0.5", Minimal, Hotspot, 0.5, 1),
        ("net-min-transpose-0.8", Minimal, Transpose, 0.8, 1),
        ("net-ugal-hotspot-0.5", Ugal, Hotspot, 0.5, 1),
        // ×8 serializes a 144-byte packet for 72 cycles on the 16 B/cycle
        // channel: the channel stays busy longer than the 64-cycle horizon
        // a waiting port sleeps through.
        ("net-min-uniform-0.8-degraded", Minimal, Uniform, 0.8, 8),
    ]
}

/// One load point, then everything the network reports about it.
fn hash_net(policy: RoutingPolicy, pattern: Pattern, load: f64, degrade: u32) -> u64 {
    let mut b = NetworkBuilder::new(NocParams::default());
    let kind = TopologyKind::Sliced {
        kind: SlicedKind::Fbfly,
        double: false,
    };
    let c = build_clusters(&mut b, 8, 4, 8, kind);
    b.routing(policy);
    let mut net = b.build();
    if degrade > 1 {
        let li = net
            .resolve_link(LinkTag::HmcHmc, 0)
            .expect("sFBFLY has HMC–HMC links");
        net.degrade_link(li, degrade);
    }
    let hmc = c.hmc_eps_flat();
    let point = run_load_point(&mut net, &c.device_eps, &hmc, pattern, load, 200, 1000, 1);
    let bytes = format!(
        "{point:?}\n{:?}\n{}\n{:?}\n{:?}\n{}",
        net.stats(),
        net.energy_mj(),
        net.link_utilization(),
        net.router_utilization(),
        net.cycle()
    );
    fnv1a64(bytes.as_bytes())
}

/// Each built-in workload's small kernel: the op streams of its first and
/// last CTA, every op's kind, compute cycles and accesses, hashed.
fn op_rows() -> Vec<(String, u64)> {
    let mut builtins = Workload::table2().to_vec();
    builtins.push(Workload::VecAdd);
    builtins
        .into_iter()
        .map(|w| {
            let k = w.spec_small().kernel;
            let mut ops = String::new();
            for cta in [0, k.ctas - 1] {
                writeln!(ops, "cta {cta}").expect("writing to a String");
                let (mut cur, mut accesses) = (k.cursor(cta), Vec::new());
                while let Some(op) = k.next_op(&mut cur, &mut accesses) {
                    match op {
                        CtaOp::Compute(c) => writeln!(ops, "c {c}"),
                        CtaOp::Mem => {
                            ops.push('m');
                            for a in accesses.drain(..) {
                                write!(ops, " {:?} {:#x} {}", a.kind, a.addr, a.bytes)
                                    .expect("writing to a String");
                            }
                            writeln!(ops)
                        }
                    }
                    .expect("writing to a String");
                }
            }
            let name = format!("ops-{}", w.abbr().to_lowercase());
            (name, fnv1a64(ops.as_bytes()))
        })
        .collect()
}

/// The committed `name hash` lines: the report rows, the network rows,
/// then the op-stream rows.
fn golden() -> Vec<(String, String)> {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/data/golden_reports.txt");
    let want: Vec<(String, String)> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| l.split_once(' ').expect("`name hash` line"))
        .map(|(name, hash)| (name.to_string(), hash.to_string()))
        .collect();
    let names = cases().into_iter().map(|c| c.0);
    assert_eq!(
        want.iter().map(|w| w.0.clone()).collect::<Vec<_>>(),
        names
            .chain(net_cases().map(|c| c.0.to_string()))
            .chain(op_rows().into_iter().map(|r| r.0))
            .collect::<Vec<_>>(),
        "golden file and case list disagree; re-bless"
    );
    want
}

/// Holds each `(name, hash)` to the committed line in the same position.
fn held(what: &str, got: Vec<(String, u64)>, want: &[(String, String)]) {
    let mut moved = Vec::new();
    for ((name, got), (_, hash)) in got.into_iter().zip(want) {
        let got = format!("{got:016x}");
        if got != *hash {
            moved.push(format!("{name}: golden {hash}, got {got}"));
        }
    }
    assert!(
        moved.is_empty(),
        "{what}: output bytes moved:\n{}",
        moved.join("\n")
    );
}

fn check(mode: EngineMode) {
    let got = cases()
        .into_iter()
        .map(|(name, pin, b)| (name, hash_case(&pin, b, mode)))
        .collect();
    held(mode.name(), got, &golden());
}

#[test]
fn cycle_stepped_matches_golden() {
    check(EngineMode::CycleStepped);
}

#[test]
fn event_driven_matches_golden() {
    check(EngineMode::EventDriven);
}

#[test]
fn network_matches_golden() {
    let got = net_cases()
        .into_iter()
        .map(|(name, policy, pattern, load, degrade)| {
            (name.to_string(), hash_net(policy, pattern, load, degrade))
        })
        .collect();
    held("network", got, &golden()[cases().len()..]);
}

#[test]
fn op_streams_match_golden() {
    let skip = cases().len() + net_cases().len();
    held("op streams", op_rows(), &golden()[skip..]);
}

/// Regenerates the golden file from the cycle-stepped reference engine.
#[test]
#[ignore = "rewrites tests/data/golden_reports.txt; run only for a deliberate model change"]
fn bless() {
    let mut out = String::from(
        "# FNV-1a of each golden_reports case. Regenerate only for a deliberate model change:\n\
         # cargo test --release --test golden_reports -- --ignored bless\n",
    );
    for (name, pin, b) in cases() {
        let h = hash_case(&pin, b, EngineMode::CycleStepped);
        writeln!(out, "{name} {h:016x}").expect("writing to a String");
    }
    for (name, policy, pattern, load, degrade) in net_cases() {
        let h = hash_net(policy, pattern, load, degrade);
        writeln!(out, "{name} {h:016x}").expect("writing to a String");
    }
    for (name, h) in op_rows() {
        writeln!(out, "{name} {h:016x}").expect("writing to a String");
    }
    std::fs::write(GOLDEN, out).expect("write golden file");
}

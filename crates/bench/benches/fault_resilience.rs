//! Organization resilience under a fixed fault plan (PR 4 artifact).
//!
//! Two questions, answered with the same deterministic fault plans:
//!
//! 1. **Topology resilience.** GMN with an inter-cluster HMC-HMC link cut
//!    mid-run: the sliced flattened butterfly (sFBFLY) has path diversity
//!    between every cluster pair, so reroute over surviving minimal paths
//!    should hold the slowdown under 2×. The distributor-based fabric
//!    (dFBFLY) concentrates inter-cluster traffic, so the same cut is
//!    allowed to hurt more.
//! 2. **SKE degraded mode.** A PCIe baseline loses a whole GPU mid-kernel:
//!    the run must *complete* via CTA rebalancing onto the survivors
//!    instead of hanging, and the slowdown is reported.
//!
//! Results go to `target/experiments/fault_resilience.json`. With
//! `MEMNET_CHECK=1` the target acts as a CI guard instead: quick small
//! runs, exit non-zero if sFBFLY exceeds the 2× bound or the PCIe
//! GPU-loss run fails to complete.

use memnet_common::faults::{FaultKind, LinkTag};
use memnet_common::time::ns_to_fs;
use memnet_common::FaultPlan;
use memnet_core::{Organization, SimBuilder, SimReport};
use memnet_noc::topo::{SlicedKind, TopologyKind};
use memnet_obs::JsonWriter;
use memnet_workloads::Workload;

const SFBFLY: TopologyKind = TopologyKind::Sliced {
    kind: SlicedKind::Fbfly,
    double: false,
};
const DFBFLY: TopologyKind = TopologyKind::DistributorFbfly;

/// One inter-cluster trunk goes down at `at_ns` and stays down.
fn link_cut_plan(at_ns: f64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(
        ns_to_fs(at_ns),
        FaultKind::LinkDown {
            class: LinkTag::HmcHmc,
            ordinal: 0,
        },
    );
    plan
}

/// GPU 1 dies at `at_ns`.
fn gpu_loss_plan(at_ns: f64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(ns_to_fs(at_ns), FaultKind::GpuLoss { gpu: 1 });
    plan
}

fn builder(org: Organization, topo: TopologyKind, small: bool) -> SimBuilder {
    let spec = if small {
        Workload::Kmn.spec_small()
    } else {
        memnet_bench::spec_for(Workload::Kmn)
    };
    SimBuilder::new(org)
        .topology(topo)
        .workload(spec)
        .phase_budget_ns(20_000_000.0)
}

struct TopoResult {
    name: &'static str,
    clean: SimReport,
    cut: SimReport,
    cut_at_ns: f64,
}

impl TopoResult {
    fn slowdown(&self) -> f64 {
        self.cut.kernel_ns / self.clean.kernel_ns
    }
}

fn run_topo(name: &'static str, topo: TopologyKind, small: bool) -> TopoResult {
    let clean = builder(Organization::Gmn, topo, small).run();
    assert!(!clean.timed_out, "{name} clean run timed out");
    // Cut halfway through the clean run: simulated time is continuous
    // across phases, so this lands mid-kernel with traffic in flight.
    let cut_at_ns = clean.total_ns() * 0.5;
    let cut = builder(Organization::Gmn, topo, small)
        .faults(link_cut_plan(cut_at_ns))
        .run();
    assert!(!cut.timed_out, "{name} link-cut run timed out");
    assert!(cut.faults_injected >= 1, "{name}: the cut never landed");
    TopoResult {
        name,
        clean,
        cut,
        cut_at_ns,
    }
}

fn run_gpu_loss(small: bool) -> (SimReport, SimReport, f64) {
    let clean = builder(Organization::Pcie, SFBFLY, small).run();
    assert!(!clean.timed_out, "PCIe clean run timed out");
    // The loss must land while the victim holds CTAs, i.e. inside the
    // kernel window (PCIe copies H2D first). Probe a few fractions of the
    // clean runtime and keep the first that actually orphans work; the
    // probe order is fixed, so the artifact stays deterministic.
    for frac in [0.5, 0.4, 0.6, 0.3, 0.7, 0.2, 0.8] {
        let at_ns = clean.total_ns() * frac;
        let lost = builder(Organization::Pcie, SFBFLY, small)
            .faults(gpu_loss_plan(at_ns))
            .run();
        if lost.lost_gpus == 1 && lost.rebalanced_ctas > 0 {
            return (clean, lost, at_ns);
        }
    }
    panic!("no probe fraction landed the GPU loss inside the kernel window");
}

fn main() {
    let check = std::env::var("MEMNET_CHECK").is_ok_and(|v| v == "1");
    let small = check || memnet_bench::fast_mode();
    memnet_bench::header("Fault resilience: link cuts and GPU loss under a fixed plan");

    let sf = run_topo("sFBFLY", SFBFLY, small);
    let df = run_topo("dFBFLY", DFBFLY, small);
    println!("  GMN, one inter-cluster HMC-HMC link cut mid-run:");
    for r in [&sf, &df] {
        println!(
            "    {:<7} cut at {:>8.1} ns   clean {:>10.1} ns   cut {:>10.1} ns   slowdown {}   ({} reroutes, {} dead letters)",
            r.name,
            r.cut_at_ns,
            r.clean.kernel_ns,
            r.cut.kernel_ns,
            memnet_bench::ratio(r.cut.kernel_ns, r.clean.kernel_ns),
            r.cut.reroutes,
            r.cut.dead_letters,
        );
    }

    let (pcie_clean, pcie_lost, lost_at_ns) = run_gpu_loss(small);
    let pcie_slowdown = pcie_lost.kernel_ns / pcie_clean.kernel_ns;
    println!("  PCIe, GPU 1 lost at t = {lost_at_ns:.1} ns (SKE degraded mode):");
    println!(
        "    clean {:>10.1} ns   degraded {:>10.1} ns   slowdown {:.2}x   ({} CTAs rebalanced, completed: {})",
        pcie_clean.kernel_ns,
        pcie_lost.kernel_ns,
        pcie_slowdown,
        pcie_lost.rebalanced_ctas,
        !pcie_lost.timed_out,
    );

    if check {
        let mut fail = false;
        if sf.slowdown() >= 2.0 {
            eprintln!(
                "FAIL: sFBFLY must sustain one inter-cluster link cut with < 2x slowdown (got {:.2}x)",
                sf.slowdown()
            );
            fail = true;
        }
        if pcie_lost.timed_out || pcie_lost.lost_gpus != 1 || pcie_lost.rebalanced_ctas == 0 {
            eprintln!("FAIL: PCIe with a lost GPU must complete via SKE rebalancing");
            fail = true;
        }
        if fail {
            std::process::exit(1);
        }
        println!("  OK: sFBFLY under the 2x bound; PCIe completed degraded");
        return;
    }

    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field("bench", "fault_resilience");
    w.field("workload", "KMN");
    w.field("small", &small);
    w.key("link_cut");
    w.begin_object();
    for r in [&sf, &df] {
        w.key(r.name);
        w.begin_object();
        w.field("cut_at_ns", &r.cut_at_ns);
        w.field("clean_kernel_ns", &r.clean.kernel_ns);
        w.field("cut_kernel_ns", &r.cut.kernel_ns);
        w.field("slowdown", &r.slowdown());
        w.field("reroutes", &r.cut.reroutes);
        w.field("dead_letters", &r.cut.dead_letters);
        w.field("failed_requests", &r.cut.failed_requests);
        w.end_object();
    }
    w.end_object();
    w.key("gpu_loss");
    w.begin_object();
    w.field("org", "PCIe");
    w.field("lost_at_ns", &lost_at_ns);
    w.field("clean_kernel_ns", &pcie_clean.kernel_ns);
    w.field("degraded_kernel_ns", &pcie_lost.kernel_ns);
    w.field("slowdown", &pcie_slowdown);
    w.field("rebalanced_ctas", &pcie_lost.rebalanced_ctas);
    w.field("completed", &!pcie_lost.timed_out);
    w.end_object();
    w.end_object();

    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("target/experiments");
    std::fs::create_dir_all(&path).expect("create experiments dir");
    path.push("fault_resilience.json");
    std::fs::write(&path, w.finish() + "\n").expect("write fault_resilience.json");
    println!("[wrote {}]", path.display());
}

//! Organization resilience under a fixed fault plan.
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

use crate::{ensure, sliced, Size};
use memnet_common::faults::{FaultKind, LinkTag};
use memnet_common::time::ns_to_fs;
use memnet_common::FaultPlan;
use memnet_core::Organization;
use memnet_noc::topo::{SlicedKind, TopologyKind};
use memnet_obs::{JsonWriter, ToJson};
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    /// One fabric's link-cut run against its clean twin.
    pub struct LinkCut {
        pub cut_at_ns: f64,
        pub clean_kernel_ns: f64,
        pub cut_kernel_ns: f64,
        pub slowdown: f64,
        pub reroutes: u64,
        pub dead_letters: u64,
        pub failed_requests: u64,
    }
}

memnet_obs::to_json_struct! {
    /// The PCIe run that loses GPU 1 against its clean twin.
    pub struct GpuLoss {
        pub org: &'static str,
        pub lost_at_ns: f64,
        pub clean_kernel_ns: f64,
        pub degraded_kernel_ns: f64,
        pub slowdown: f64,
        pub rebalanced_ctas: u64,
        pub completed: bool,
    }
}

/// Both experiments on KMN.
pub struct Resilience {
    /// Whether the runs used the small input.
    pub small: bool,
    /// sFBFLY's cut, then dFBFLY's.
    pub link_cut: [(&'static str, LinkCut); 2],
    /// The SKE degraded-mode run.
    pub gpu_loss: GpuLoss,
}

impl ToJson for Resilience {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("bench", "fault_resilience");
        w.field("workload", "KMN");
        w.field("small", &self.small);
        w.key("link_cut");
        w.begin_object();
        for (name, cut) in &self.link_cut {
            w.field(name, cut);
        }
        w.end_object();
        w.field("gpu_loss", &self.gpu_loss);
        w.end_object();
    }
}

const FABRICS: [(&str, TopologyKind); 2] = [
    ("sFBFLY", sliced(SlicedKind::Fbfly, false)),
    ("dFBFLY", TopologyKind::DistributorFbfly),
];

/// A plan with the one fault `kind` at `at_ns`.
fn plan(at_ns: f64, kind: &FaultKind) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(ns_to_fs(at_ns), kind.clone());
    plan
}

/// Cuts one inter-cluster trunk halfway through each fabric's clean run,
/// and loses GPU 1 inside the PCIe kernel window.
pub fn run(size: Size) -> Resilience {
    // GMN on each fabric, then the PCIe baseline on sFBFLY.
    let org = |i: usize| [Organization::Gmn, Organization::Gmn, Organization::Pcie][i];
    let topo = |i: usize| FABRICS[i % 2].1;
    let builder = |i: usize| size.builder(org(i), Workload::Kmn).topology(topo(i));
    let clean = crate::grid([3], |[i]| builder(i));
    // Cut halfway through the clean run: simulated time is continuous
    // across phases, so this lands mid-kernel with traffic in flight.
    let cut_at = |i: usize| clean[[i]].total_ns() * 0.5;
    let trunk = FaultKind::LinkDown {
        class: LinkTag::HmcHmc,
        ordinal: 0,
    };
    let cut = crate::grid([2], |[i]| builder(i).faults(plan(cut_at(i), &trunk)));
    let link_cut = [0, 1].map(|i| {
        let (name, clean, cut) = (FABRICS[i].0, &clean[[i]], &cut[[i]]);
        assert!(cut.faults_injected >= 1, "{name}: the cut never landed");
        let cut = LinkCut {
            cut_at_ns: cut_at(i),
            clean_kernel_ns: clean.kernel_ns,
            cut_kernel_ns: cut.kernel_ns,
            slowdown: cut.kernel_ns / clean.kernel_ns,
            reroutes: cut.reroutes,
            dead_letters: cut.dead_letters,
            failed_requests: cut.failed_requests,
        };
        (name, cut)
    });
    // The loss must land while the victim holds CTAs, i.e. inside the
    // kernel window (PCIe copies H2D first). Probe a few fractions of the
    // clean runtime and keep the first that actually orphans work; the
    // probe order is fixed, so the artifact stays deterministic.
    let pcie = &clean[[2]];
    let loss = FaultKind::GpuLoss { gpu: 1 };
    let (lost_at_ns, lost) = [0.5, 0.4, 0.6, 0.3, 0.7, 0.2, 0.8]
        .into_iter()
        .map(|frac| pcie.total_ns() * frac)
        .map(|at_ns| (at_ns, builder(2).faults(plan(at_ns, &loss)).run()))
        .find(|(_, lost)| lost.lost_gpus == 1 && lost.rebalanced_ctas > 0)
        .expect("no probe fraction landed the GPU loss inside the kernel window");
    let gpu_loss = GpuLoss {
        org: "PCIe",
        lost_at_ns,
        clean_kernel_ns: pcie.kernel_ns,
        degraded_kernel_ns: lost.kernel_ns,
        slowdown: lost.kernel_ns / pcie.kernel_ns,
        rebalanced_ctas: lost.rebalanced_ctas,
        completed: !lost.timed_out,
    };
    Resilience {
        small: size.small(),
        link_cut,
        gpu_loss,
    }
}

/// Prints both experiments as the artifact shows them.
pub fn print(r: &Resilience) {
    crate::header("Fault resilience: link cuts and GPU loss under a fixed plan");
    println!("{}", r.to_json_pretty());
}

/// The two guards: sFBFLY sustains the cut under 2×, and the PCIe run
/// that loses a GPU completes through SKE rebalancing. The run keeps only
/// a probe whose loss landed (one lost GPU, rebalanced CTAs).
pub fn check(r: &Resilience, _size: Size) -> Result<(), String> {
    let sf = r.link_cut[0].1.slowdown;
    ensure!(sf < 2.0, "sFBFLY cut slowdown {sf:.2}x");
    let g = &r.gpu_loss;
    ensure!(g.completed && g.rebalanced_ctas > 0, "PCIe GPU loss");
    Ok(())
}

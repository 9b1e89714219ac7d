//! Cross-crate integration tests: full systems built from every layer of
//! the stack (workload model → GPU/CPU → SKE runtime → network → HMC),
//! exercised through the public `memnet` facade.

use memnet::noc::topo::{SlicedKind, TopologyKind};
use memnet::noc::RoutingPolicy;
use memnet::sim::{CtaPolicy, Organization, SimBuilder};
use memnet::workloads::Workload;

fn tiny(org: Organization, w: Workload) -> SimBuilder {
    SimBuilder::new(org)
        .gpus(2)
        .sms_per_gpu(2)
        .workload(w.spec_small())
}

#[test]
fn every_org_runs_every_cpu_flavor_workload() {
    // One GPU-only and one CPU-assisted workload across all organizations.
    for w in [Workload::Scan, Workload::CgS] {
        for org in Organization::all() {
            let r = tiny(org, w).run();
            assert!(!r.timed_out, "{} on {} timed out", w.abbr(), org.name());
            assert!(r.kernel_ns > 0.0, "{} on {}", w.abbr(), org.name());
            if org == Organization::Umn {
                assert_eq!(r.memcpy_ns, 0.0);
            }
            if w == Workload::CgS {
                assert!(
                    r.host_ns > 0.0,
                    "CG.S computes on the host ({})",
                    org.name()
                );
            }
        }
    }
}

#[test]
fn all_workloads_complete_on_umn() {
    for w in Workload::table2() {
        let r = tiny(Organization::Umn, w).run();
        assert!(!r.timed_out, "{} timed out", w.abbr());
        assert!(r.traffic.total() > 0, "{} generated no traffic", w.abbr());
        assert!(r.energy_mj > 0.0);
    }
}

#[test]
fn memory_network_beats_pcie_for_bandwidth_bound_kernels() {
    let pcie = tiny(Organization::Pcie, Workload::Bp).run();
    let gmn = tiny(Organization::Gmn, Workload::Bp).run();
    let umn = tiny(Organization::Umn, Workload::Bp).run();
    assert!(gmn.kernel_ns < pcie.kernel_ns, "GMN must beat PCIe kernels");
    assert!(
        umn.total_ns() < pcie.total_ns(),
        "UMN must beat PCIe totals"
    );
    assert!(umn.total_ns() < gmn.total_ns(), "UMN removes GMN's memcpy");
}

#[test]
fn gmn_zc_equals_pcie_zc() {
    // Under zero-copy the GPU memory network is never used, so the two
    // configurations are the same system (paper, Section VI-B).
    let a = tiny(Organization::GmnZc, Workload::Kmn).run();
    let b = tiny(Organization::PcieZc, Workload::Kmn).run();
    let rel = (a.kernel_ns - b.kernel_ns).abs() / b.kernel_ns;
    assert!(
        rel < 0.05,
        "GMN-ZC {} vs PCIe-ZC {} differ by {:.1}%",
        a.kernel_ns,
        b.kernel_ns,
        rel * 100.0
    );
}

#[test]
fn all_topologies_complete_the_same_kernel() {
    for t in [
        TopologyKind::Sliced {
            kind: SlicedKind::Mesh,
            double: false,
        },
        TopologyKind::Sliced {
            kind: SlicedKind::Torus,
            double: true,
        },
        TopologyKind::Sliced {
            kind: SlicedKind::Fbfly,
            double: false,
        },
        TopologyKind::DistributorFbfly,
        TopologyKind::DistributorDfly,
    ] {
        let r = SimBuilder::new(Organization::Gmn)
            .gpus(4)
            .sms_per_gpu(2)
            .topology(t)
            .workload(Workload::Kmn.spec_small())
            .run();
        assert!(!r.timed_out, "{} timed out", t.name());
        assert!(r.kernel_ns > 0.0);
    }
}

#[test]
fn ugal_routing_completes_and_uses_nonminimal_paths_under_imbalance() {
    let r = SimBuilder::new(Organization::Gmn)
        .gpus(4)
        .sms_per_gpu(2)
        .topology(TopologyKind::DistributorFbfly)
        .routing(RoutingPolicy::Ugal)
        .workload(Workload::CgS.spec_small())
        .run();
    assert!(!r.timed_out);
    assert!(r.kernel_ns > 0.0);
}

#[test]
fn cta_policies_agree_on_work_done() {
    // Different schedules, same kernel: all CTAs must execute exactly once,
    // so total traffic is similar and the run completes either way.
    let base = tiny(Organization::Umn, Workload::Srad)
        .cta_policy(CtaPolicy::StaticChunk)
        .run();
    let rr = tiny(Organization::Umn, Workload::Srad)
        .cta_policy(CtaPolicy::RoundRobin)
        .run();
    let steal = tiny(Organization::Umn, Workload::Srad)
        .cta_policy(CtaPolicy::Stealing)
        .run();
    for r in [&base, &rr, &steal] {
        assert!(!r.timed_out);
    }
    // Same CTAs, same per-CTA streams ⇒ identical *issued* access counts;
    // network traffic differs only through cache behavior.
    let lo = base
        .traffic
        .total()
        .min(rr.traffic.total())
        .min(steal.traffic.total()) as f64;
    let hi = base
        .traffic
        .total()
        .max(rr.traffic.total())
        .max(steal.traffic.total()) as f64;
    assert!(
        hi / lo < 2.0,
        "traffic should be in the same ballpark: {lo} vs {hi}"
    );
}

#[test]
fn reports_are_deterministic_across_runs() {
    let a = tiny(Organization::Cmn, Workload::Bfs).run();
    let b = tiny(Organization::Cmn, Workload::Bfs).run();
    assert_eq!(a, b);
}

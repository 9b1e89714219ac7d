//! Deterministic chaos: seeded random fault plans against the full system.
//!
//! [`FaultPlan::random`] turns a seed into a failure schedule (link cuts
//! and heals, BER degradation, vault stalls, GPU losses — always sparing
//! one GPU). These tests sweep seeds across a workload × organization
//! matrix and assert the three chaos invariants:
//!
//! 1. **No lost packets.** Every injected request completes or is
//!    accounted as failed through the fail-fast recovery path, so the run
//!    finishes instead of hanging (`!timed_out`, `kernel_ns > 0`).
//! 2. **Totals balance.** Every plan event is either applied
//!    (`faults_injected`) or skipped because its link class has no
//!    population (`faults_skipped`); GPU losses never exceed the
//!    generator's spare-one guarantee.
//! 3. **Same seed ⇒ byte-identical report**, under either engine mode and
//!    across engine modes (the debug rendering compares every field,
//!    floats included).

use memnet::common::time::ns_to_fs;
use memnet::common::{FaultKind, FaultPlan};
use memnet::sim::{CtaPolicy, EngineMode, Organization, SanitizeMode, SimBuilder, SimReport};
use memnet::workloads::Workload;

const GPUS: usize = 2;
const HORIZON_NS: f64 = 200.0;
const EVENTS: usize = 6;

fn chaos_builder(org: Organization, w: Workload, seed: u64) -> SimBuilder {
    SimBuilder::new(org)
        .gpus(GPUS as u32)
        .sms_per_gpu(2)
        .workload(w.spec_small())
        .faults(FaultPlan::random(seed, EVENTS, GPUS, ns_to_fs(HORIZON_NS)))
        .sanitize(SanitizeMode::Record)
}

/// The chaos invariants every faulted run must satisfy.
fn assert_invariants(r: &SimReport, seed: u64, label: &str) {
    let plan = FaultPlan::random(seed, EVENTS, GPUS, ns_to_fs(HORIZON_NS));
    assert!(
        !r.timed_out,
        "{label}: chaos run hung — a request was lost rather than failed"
    );
    assert!(r.kernel_ns > 0.0, "{label}: kernel never ran");
    assert!(
        r.faults_injected + r.faults_skipped <= plan.events().len() as u64,
        "{label}: more faults accounted than planned ({} + {} > {})",
        r.faults_injected,
        r.faults_skipped,
        plan.events().len()
    );
    assert!(
        (r.lost_gpus as usize) < GPUS,
        "{label}: generator must spare one GPU, lost {}",
        r.lost_gpus
    );
    if r.lost_gpus == 0 {
        assert_eq!(
            r.rebalanced_ctas, 0,
            "{label}: CTAs rebalanced without a GPU loss"
        );
    }
    // Retired work must have landed somewhere: the per-GPU digests of the
    // survivors account for every CTA the kernel phase completed.
    let total_ctas: u64 = r.per_gpu.iter().map(|g| g.ctas_done).sum();
    assert!(total_ctas > 0, "{label}: no CTAs retired anywhere");
    // The runtime sanitizer audits credit/packet/CTA/byte conservation at
    // every phase boundary; faults must never leak resources.
    let san = r
        .sanitizer
        .as_ref()
        .expect("chaos runs enable the sanitizer");
    assert!(san.checks > 0, "{label}: sanitizer never checked anything");
    assert!(
        san.is_clean(),
        "{label}: sanitizer violations under chaos: {:?}",
        san.violations
    );
}

#[test]
fn seeded_chaos_matrix_completes_with_balanced_accounting() {
    for seed in [1u64, 2, 3] {
        for org in [Organization::Pcie, Organization::Gmn, Organization::Umn] {
            // Alternate the workload with the seed so the matrix covers
            // both a streaming and a cache-heavy kernel without doubling
            // the run count.
            let w = if seed % 2 == 1 {
                Workload::VecAdd
            } else {
                Workload::Bp
            };
            let label = format!("seed {seed}/{}/{}", org.name(), w.abbr());
            let cycle = chaos_builder(org, w, seed)
                .engine(EngineMode::CycleStepped)
                .run();
            assert_invariants(&cycle, seed, &label);
            let event = chaos_builder(org, w, seed)
                .engine(EngineMode::EventDriven)
                .run();
            assert_invariants(&event, seed, &label);
            assert_eq!(cycle, event, "{label}: engine modes disagree under chaos");
        }
    }
}

#[test]
fn same_seed_is_byte_identical_and_different_seed_is_not() {
    let run = || chaos_builder(Organization::Umn, Workload::VecAdd, 77).run();
    assert_eq!(run(), run(), "same seed must reproduce the exact report");

    let plan_a = FaultPlan::random(77, EVENTS, GPUS, ns_to_fs(HORIZON_NS));
    let plan_b = FaultPlan::random(78, EVENTS, GPUS, ns_to_fs(HORIZON_NS));
    assert_ne!(plan_a, plan_b, "seeds must actually steer the plan");
}

#[test]
fn chaos_with_stealing_policy_holds_the_invariants() {
    // Work stealing moves CTAs dynamically, the hardest case for the
    // degraded-mode rebalancer (dead thieves must be skipped).
    for seed in [5u64, 11] {
        let r = chaos_builder(Organization::Gmn, Workload::Bp, seed)
            .cta_policy(CtaPolicy::Stealing)
            .run();
        assert_invariants(&r, seed, &format!("stealing seed {seed}"));
    }
}

#[test]
fn forced_gpu_loss_rebalances_under_chaos_load() {
    // A random plan plus a guaranteed mid-kernel GPU loss: survivors must
    // absorb the orphaned CTAs and the run must still finish.
    let mut plan = FaultPlan::random(9, 4, GPUS, ns_to_fs(HORIZON_NS));
    plan.push(ns_to_fs(40.0), FaultKind::GpuLoss { gpu: 0 });
    let r = SimBuilder::new(Organization::Umn)
        .gpus(GPUS as u32)
        .sms_per_gpu(2)
        .workload(Workload::VecAdd.spec_small())
        .faults(plan)
        .sanitize(SanitizeMode::Record)
        .run();
    assert!(!r.timed_out, "run hung after forced GPU loss");
    let san = r.sanitizer.as_ref().expect("sanitizer enabled");
    assert!(
        san.is_clean(),
        "GPU loss leaked resources: {:?}",
        san.violations
    );
    assert_eq!(r.lost_gpus, 1, "exactly the forced loss lands");
    assert!(
        r.rebalanced_ctas > 0,
        "orphaned CTAs must move to the survivor"
    );
}

#[test]
fn fuzzed_models_hold_the_chaos_invariants_across_engines() {
    // The runtime workload surface meets the fault injector: a fuzzed
    // model (loaded through the DSL, exactly as --workload-file would)
    // under a seeded fault plan must satisfy every chaos invariant and
    // stay bit-identical across engine modes.
    use memnet::wdl::{self, fuzz::WorkloadFuzzer};
    for seed in [3u64, 8, 21] {
        let spec = wdl::spec_from_json(&wdl::spec_to_json(&WorkloadFuzzer::spec(seed)))
            .expect("fuzzed model reloads");
        let label = format!("fuzz {}/faults {seed}", spec.abbr);
        let build = |org| {
            SimBuilder::new(org)
                .gpus(GPUS as u32)
                .sms_per_gpu(2)
                .workload(spec.clone())
                .faults(FaultPlan::random(seed, EVENTS, GPUS, ns_to_fs(HORIZON_NS)))
                .sanitize(SanitizeMode::Record)
        };
        for org in [Organization::Pcie, Organization::Umn] {
            let cycle = build(org).engine(EngineMode::CycleStepped).run();
            assert_invariants(&cycle, seed, &format!("{label}/{}", org.name()));
            let event = build(org).engine(EngineMode::EventDriven).run();
            assert_eq!(
                cycle,
                event,
                "{label}/{}: event engine diverged",
                org.name()
            );
        }
    }
}

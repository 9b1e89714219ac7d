//! Bit-identity across the two engine modes.
//!
//! The event-driven engine (idle fast-forward) must be observationally
//! indistinguishable from the cycle-stepped reference loop: same-seed
//! runs produce bit-identical [`SimReport`]s — every float compared with
//! `==`, no tolerances — and, when tracing/metrics/sanitizing are on,
//! byte-identical trace, metrics and sanitizer payloads. Anything less
//! means a parked domain woke on the wrong edge or a skipped counter
//! drifted.

use memnet::noc::topo::{SlicedKind, TopologyKind};
use memnet::sim::{CtaPolicy, EngineMode, Organization, SimBuilder, SimReport};
use memnet::workloads::Workload;

/// Every engine mode, reference first.
const ALL_MODES: [EngineMode; 2] = [EngineMode::CycleStepped, EngineMode::EventDriven];

/// Runs the same builder under both engine modes, reference first.
fn run_both(b: SimBuilder) -> [SimReport; 2] {
    let cycle = b.clone().engine(EngineMode::CycleStepped).run();
    let event = b.engine(EngineMode::EventDriven).run();
    [cycle, event]
}

/// Field-by-field equality, floats compared exactly.
fn assert_identical(cycle: &SimReport, event: &SimReport, label: &str) {
    assert_eq!(cycle.workload, event.workload, "{label}: workload");
    assert_eq!(cycle.memcpy_ns, event.memcpy_ns, "{label}: memcpy_ns");
    assert_eq!(cycle.kernel_ns, event.kernel_ns, "{label}: kernel_ns");
    assert_eq!(cycle.host_ns, event.host_ns, "{label}: host_ns");
    assert_eq!(cycle.energy_mj, event.energy_mj, "{label}: energy_mj");
    assert_eq!(cycle.l1_hit_rate, event.l1_hit_rate, "{label}: l1_hit_rate");
    assert_eq!(cycle.l2_hit_rate, event.l2_hit_rate, "{label}: l2_hit_rate");
    assert_eq!(
        cycle.avg_pkt_latency_ns, event.avg_pkt_latency_ns,
        "{label}: avg_pkt_latency_ns"
    );
    assert_eq!(cycle.avg_hops, event.avg_hops, "{label}: avg_hops");
    assert_eq!(
        cycle.row_hit_rate, event.row_hit_rate,
        "{label}: row_hit_rate"
    );
    assert_eq!(cycle.traffic, event.traffic, "{label}: traffic matrix");
    assert_eq!(cycle.passthrough, event.passthrough, "{label}: passthrough");
    assert_eq!(cycle.nonminimal, event.nonminimal, "{label}: nonminimal");
    assert_eq!(cycle.timed_out, event.timed_out, "{label}: timed_out");
    assert_eq!(
        cycle.faults_injected, event.faults_injected,
        "{label}: faults_injected"
    );
    assert_eq!(
        cycle.faults_skipped, event.faults_skipped,
        "{label}: faults_skipped"
    );
    assert_eq!(cycle.reroutes, event.reroutes, "{label}: reroutes");
    assert_eq!(cycle.retries, event.retries, "{label}: retries");
    assert_eq!(
        cycle.dead_letters, event.dead_letters,
        "{label}: dead_letters"
    );
    assert_eq!(
        cycle.failed_requests, event.failed_requests,
        "{label}: failed_requests"
    );
    assert_eq!(
        cycle.rebalanced_ctas, event.rebalanced_ctas,
        "{label}: rebalanced_ctas"
    );
    assert_eq!(cycle.lost_gpus, event.lost_gpus, "{label}: lost_gpus");
    assert_eq!(cycle.sanitizer, event.sanitizer, "{label}: sanitizer");
    assert_eq!(
        cycle.channel_utilization, event.channel_utilization,
        "{label}: channel_utilization"
    );
    assert_eq!(cycle.per_gpu.len(), event.per_gpu.len(), "{label}: per_gpu");
    for (i, (c, e)) in cycle.per_gpu.iter().zip(&event.per_gpu).enumerate() {
        assert_eq!(c.l1_hit_rate, e.l1_hit_rate, "{label}: gpu{i} l1");
        assert_eq!(c.l2_hit_rate, e.l2_hit_rate, "{label}: gpu{i} l2");
        assert_eq!(c.ctas_done, e.ctas_done, "{label}: gpu{i} ctas_done");
        assert_eq!(c.mem_reqs, e.mem_reqs, "{label}: gpu{i} mem_reqs");
    }
}

fn small(org: Organization, w: Workload) -> SimBuilder {
    SimBuilder::new(org)
        .gpus(2)
        .sms_per_gpu(2)
        .workload(w.spec_small())
}

#[test]
fn every_organization_is_bit_identical() {
    // The tier-1 matrix: all eight organizations (Table III + PCN), each
    // with a memcpy phase where applicable — the idle-heavy stretch where
    // fast-forward does the most work and has the most room to go wrong.
    for org in Organization::all_extended() {
        let r = run_both(small(org, Workload::VecAdd));
        assert!(
            !r[0].timed_out,
            "{} cycle-stepped run timed out",
            org.name()
        );
        assert_identical(&r[0], &r[1], org.name());
    }
}

#[test]
fn table2_workloads_on_pcie_and_umn_are_bit_identical() {
    // PCIe exercises memcpy phases (DMA + network + DRAM while the GPU
    // domains park); UMN exercises the all-shared path.
    for w in Workload::table2() {
        for org in [Organization::Pcie, Organization::Umn] {
            let r = run_both(small(org, w));
            assert_identical(&r[0], &r[1], &format!("{}/{}", w.abbr(), org.name()));
        }
    }
}

#[test]
fn host_phase_workload_is_bit_identical() {
    // CG.S computes on the host between kernels: during pure host compute
    // every domain except the CPU parks, the deepest fast-forward case.
    let shrink = |mut spec: memnet::workloads::WorkloadSpec| {
        spec.kernel = std::sync::Arc::new({
            let mut k = (*spec.kernel).clone();
            k.ctas = 8;
            k.iters = 2;
            k
        });
        spec
    };
    for org in [Organization::Pcie, Organization::Umn] {
        let b = SimBuilder::new(org)
            .gpus(2)
            .sms_per_gpu(2)
            .workload(shrink(Workload::CgS.spec_small()));
        let r = run_both(b);
        assert!(r[0].host_ns > 0.0, "CG.S must compute on the host");
        assert_identical(&r[0], &r[1], &format!("CG.S/{}", org.name()));
    }
}

#[test]
fn alternate_topologies_are_bit_identical() {
    for (name, topo) in [
        (
            "smesh",
            TopologyKind::Sliced {
                kind: SlicedKind::Mesh,
                double: false,
            },
        ),
        (
            "storus2x",
            TopologyKind::Sliced {
                kind: SlicedKind::Torus,
                double: true,
            },
        ),
        ("dfbfly", TopologyKind::DistributorFbfly),
    ] {
        for org in [Organization::Gmn, Organization::Umn] {
            let b = small(org, Workload::VecAdd).topology(topo);
            let r = run_both(b);
            assert_identical(&r[0], &r[1], &format!("{}/{}", org.name(), name));
        }
    }
}

#[test]
fn stealing_policy_and_co_kernels_are_bit_identical() {
    let steal = small(Organization::Umn, Workload::Bp).cta_policy(CtaPolicy::Stealing);
    let r = run_both(steal);
    assert_identical(&r[0], &r[1], "stealing");

    let co = small(Organization::Umn, Workload::Cp).co_workload(Workload::Scan.spec_small());
    let r = run_both(co);
    assert_identical(&r[0], &r[1], "co-kernels");
}

#[test]
fn trace_and_metrics_streams_are_byte_identical() {
    // With tracing and periodic metrics on, the full observability
    // payloads must match byte for byte: same events, same order, same
    // epoch numbering.
    for org in [Organization::Pcie, Organization::Umn] {
        let b = small(org, Workload::VecAdd)
            .trace(1 << 16)
            .metrics_every(500);
        let r = run_both(b);
        assert_identical(&r[0], &r[1], &format!("traced/{}", org.name()));
        assert_eq!(
            r[0].trace_json,
            r[1].trace_json,
            "{}: trace streams differ",
            org.name()
        );
        assert_eq!(
            r[0].metrics_json,
            r[1].metrics_json,
            "{}: metrics streams differ",
            org.name()
        );
    }
}

#[test]
fn fault_plans_are_bit_identical_across_engines() {
    // Acceptance criterion: an identical fault plan plus seed must yield
    // bit-identical reports from both engines. Faults are pinned to owner
    // clock edges, so the event-driven engine must wake parked domains
    // exactly there — any drift shows up as differing counters here.
    use memnet::common::time::ns_to_fs;
    use memnet::common::{FaultKind, FaultPlan, LinkClass};

    let mut plan = FaultPlan::new();
    plan.push(
        ns_to_fs(20.0),
        FaultKind::LinkDown {
            class: LinkClass::HmcHmc,
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
    for org in [Organization::Umn, Organization::Gmn, Organization::Pcie] {
        let r = run_both(small(org, Workload::VecAdd).faults(plan.clone()));
        assert!(!r[0].timed_out, "{}: faulted run timed out", org.name());
        assert!(r[0].faults_injected > 0, "{}: plan never fired", org.name());
        assert_identical(&r[0], &r[1], &format!("faulted/{}", org.name()));
    }

    // Seeded chaos plans must agree too, including the trace/metrics
    // streams that record the injections.
    let chaos = FaultPlan::random(0xC0FFEE, 8, 2, ns_to_fs(500.0));
    let b = small(Organization::Umn, Workload::Bp)
        .faults(chaos)
        .trace(1 << 16)
        .metrics_every(500);
    let r = run_both(b);
    assert_identical(&r[0], &r[1], "chaos/umn");
    assert_eq!(
        r[0].trace_json, r[1].trace_json,
        "chaos trace streams differ"
    );
    assert_eq!(
        r[0].metrics_json, r[1].metrics_json,
        "chaos metrics streams differ"
    );
}

#[test]
fn checkpoint_restore_is_bit_identical_in_all_modes() {
    // Acceptance criterion for the snapshot subsystem: a run that
    // checkpoints at the pre-kernel boundary, and a second run restored
    // from that checkpoint, must both be bit-identical to a straight run
    // — under either engine. PCIe gives the prefix real work (host-pre
    // compute plus H2D memcpy) so the snapshot carries warm caches, DMA
    // counters and network state, not just zeroes.
    for mode in ALL_MODES {
        let b = || small(Organization::Pcie, Workload::Bp).engine(mode);
        let straight = b().run();
        let (checkpointed, snap) = b()
            .try_run_checkpointed("equivalence-test")
            .expect("checkpoint");
        assert_identical(&straight, &checkpointed, "checkpointed-vs-straight");
        assert!(snap.now_fs() > 0, "PCIe prefix must take simulated time");
        let restored = b().try_run_restored(&snap).expect("restore");
        assert_identical(&straight, &restored, "restored-vs-straight");

        // And through the JSON round trip, which is how the CLI and the
        // serve daemon move snapshots between processes.
        let revived = memnet::sim::SystemSnapshot::from_json(&snap.to_json_string())
            .expect("snapshot JSON round trip");
        let restored2 = b().try_run_restored(&revived).expect("restore from JSON");
        assert_identical(&straight, &restored2, "json-restored-vs-straight");
    }
}

#[test]
fn snapshots_restore_across_engine_modes() {
    // The fingerprint deliberately excludes the engine mode: snapshots
    // capture physics, not scheduling. A checkpoint taken under either
    // engine must replay bit-identically under the other one.
    let b = |mode| small(Organization::Umn, Workload::VecAdd).engine(mode);
    let straight = b(EngineMode::CycleStepped).run();
    for snap_mode in ALL_MODES {
        let (_, snap) = b(snap_mode)
            .try_run_checkpointed("cross-engine")
            .expect("checkpoint");
        for restore_mode in ALL_MODES {
            if restore_mode == snap_mode {
                continue;
            }
            let restored = b(restore_mode).try_run_restored(&snap).expect("restore");
            assert_identical(
                &straight,
                &restored,
                &format!("{}-from-{}-snap", restore_mode.name(), snap_mode.name()),
            );
        }
    }
}

#[test]
fn fault_plan_straddling_the_snapshot_point_is_bit_identical() {
    // The hard case: a fault plan whose edges straddle the checkpoint.
    // Faults resolved before the boundary are baked into the snapshot
    // (downed link, injected counters) and must NOT re-fire on restore;
    // faults after it must still fire exactly once, on the same clock
    // edge. Any double-injection or lost edge shows up as a counter or
    // traffic diff against the straight run.
    use memnet::common::time::ns_to_fs;
    use memnet::common::{FaultKind, FaultPlan, LinkClass};

    // GMN/VecAdd-small puts the pre-kernel boundary around 40.5 µs (end
    // of the H2D memcpy): the link failure lands mid-copy, the vault
    // stall and GPU loss after the kernel starts, on opposite sides of
    // the checkpoint — which the asserts below pin down.
    let mut plan = FaultPlan::new();
    plan.push(
        ns_to_fs(5_000.0),
        FaultKind::LinkDown {
            class: LinkClass::HmcHmc,
            ordinal: 0,
        },
    );
    plan.push(
        ns_to_fs(45_000.0),
        FaultKind::VaultStall {
            hmc: 0,
            vault: 3,
            stall_tcks: 2_000,
        },
    );
    plan.push(ns_to_fs(48_000.0), FaultKind::GpuLoss { gpu: 1 });
    for mode in ALL_MODES {
        let b = || {
            small(Organization::Gmn, Workload::VecAdd)
                .engine(mode)
                .faults(plan.clone())
        };
        let straight = b().run();
        assert_eq!(straight.faults_injected, 3, "whole plan must fire");
        let (_, snap) = b().try_run_checkpointed("straddle").expect("checkpoint");
        assert!(
            snap.now_fs() > ns_to_fs(5_000.0),
            "first fault must land before the snapshot point for this \
             test to exercise the straddle (boundary at {} fs)",
            snap.now_fs()
        );
        assert!(
            snap.now_fs() < ns_to_fs(45_000.0),
            "later faults must land after the snapshot point \
             (boundary at {} fs)",
            snap.now_fs()
        );
        let restored = b().try_run_restored(&snap).expect("restore");
        assert_identical(&straight, &restored, "straddled-faults-restored");
    }
}

#[test]
fn sanitizer_reports_are_clean_and_bit_identical() {
    // With the runtime invariant sanitizer recording, both engines must
    // produce a present, clean, and byte-identical report — fast-forward
    // must neither trip a conservation check nor shift the cycle at which
    // any check runs.
    use memnet::sim::SanitizeMode;
    for org in [Organization::Umn, Organization::Pcie] {
        let r = run_both(small(org, Workload::VecAdd).sanitize(SanitizeMode::Record));
        for (rep, mode) in r.iter().zip(ALL_MODES) {
            let san = rep
                .sanitizer
                .as_ref()
                .unwrap_or_else(|| panic!("{}/{}: no sanitizer report", org.name(), mode.name()));
            assert!(
                san.is_clean(),
                "{}/{}: sanitizer violations: {:?}",
                org.name(),
                mode.name(),
                san.violations
            );
            assert!(san.checks > 0, "{}: sanitizer never ran", org.name());
        }
        assert_identical(&r[0], &r[1], &format!("sanitized/{}", org.name()));
    }
}

#[test]
fn snapshot_refuses_mismatched_configuration() {
    use memnet::sim::SimError;
    let (_, snap) = small(Organization::Pcie, Workload::VecAdd)
        .try_run_checkpointed("fp-test")
        .expect("checkpoint");
    assert_eq!(snap.meta(), "fp-test");
    // Different organization → different fingerprint → typed refusal.
    let err = small(Organization::Umn, Workload::VecAdd)
        .try_run_restored(&snap)
        .expect_err("mismatched configuration must not restore");
    assert!(matches!(err, SimError::Snapshot(_)), "{err}");
    assert!(err.to_string().contains("fingerprint"));
    // Same organization, different seed — also a different fingerprint.
    let mut cfg = memnet::common::SystemConfig::scaled();
    cfg.seed ^= 0xDEAD_BEEF;
    let err = small(Organization::Pcie, Workload::VecAdd)
        .config(cfg)
        .try_run_restored(&snap)
        .expect_err("different seed must not restore");
    assert!(matches!(err, SimError::Snapshot(_)), "{err}");
}

#[test]
fn builder_errors_are_typed_not_panics() {
    use memnet::sim::SimError;
    let err = SimBuilder::new(Organization::Umn)
        .try_run()
        .expect_err("no workload set");
    assert_eq!(err, SimError::MissingWorkload);

    let err = SimBuilder::new(Organization::Umn)
        .gpus(0)
        .workload(Workload::VecAdd.spec_small())
        .try_run()
        .expect_err("zero GPUs is invalid");
    assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    assert!(err.to_string().contains("invalid system configuration"));

    // MEMNET_ENGINE, parsed from strings (the test binary is
    // multi-threaded, so the variable itself is never set here): unset or
    // empty is the default, a known name selects, and anything else —
    // such as the removed parallel engine — is refused by name rather
    // than quietly testing the default engine.
    assert_eq!(EngineMode::from_env_value(""), Ok(EngineMode::EventDriven));
    assert_eq!(
        EngineMode::from_env_value("cycle-stepped"),
        Ok(EngineMode::CycleStepped)
    );
    assert_eq!(
        EngineMode::from_env_value("event"),
        Ok(EngineMode::EventDriven)
    );
    for stale in ["parallel", "cycle_stepped", "evnt"] {
        let err = EngineMode::from_env_value(stale).expect_err("not an engine name");
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("MEMNET_ENGINE") && msg.contains(stale) && msg.contains("cycle-stepped"),
            "names the variable, the value and the accepted spellings: {msg}"
        );
    }
}

//! What a golden pin cannot say about the two engine modes.
//!
//! That the event-driven engine (idle fast-forward) is observationally
//! indistinguishable from the cycle-stepped reference loop is held by
//! `golden_reports`, which checks every row against one committed hash in
//! both. Left here: snapshots taken and restored within and across the
//! engines, the sanitizer's own report (the pins blank it), and the typed
//! errors. Two reports agree when `a == b`: every field, floats exact.

use memnet::obs::JsonValue;
use memnet::sim::{EngineMode, Organization, SimBuilder};
use memnet::workloads::Workload;

/// Every engine mode, reference first.
const ALL_MODES: [EngineMode; 2] = [EngineMode::CycleStepped, EngineMode::EventDriven];

fn small(org: Organization, w: Workload) -> SimBuilder {
    SimBuilder::new(org)
        .gpus(2)
        .sms_per_gpu(2)
        .workload(w.spec_small())
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
        assert_eq!(straight, checkpointed, "checkpointed-vs-straight");
        assert!(snap.now_fs() > 0, "PCIe prefix must take simulated time");
        let restored = b().try_run_restored(&snap).expect("restore");
        assert_eq!(straight, restored, "restored-vs-straight");

        // And through the JSON round trip, which is how the CLI moves a
        // snapshot between processes (`--checkpoint`, then `--restore`).
        let revived = memnet::sim::SystemSnapshot::from_json(&snap.to_json_string())
            .expect("snapshot JSON round trip");
        let restored2 = b().try_run_restored(&revived).expect("restore from JSON");
        assert_eq!(straight, restored2, "json-restored-vs-straight");
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
            assert_eq!(
                straight,
                restored,
                "{}-from-{}-snap",
                restore_mode.name(),
                snap_mode.name()
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
    use memnet::common::{FaultKind, FaultPlan, LinkTag};

    // GMN/VecAdd-small puts the pre-kernel boundary around 40.5 µs (end
    // of the H2D memcpy): the link failure lands mid-copy, the vault
    // stall and GPU loss after the kernel starts, on opposite sides of
    // the checkpoint — which the asserts below pin down.
    let mut plan = FaultPlan::new();
    plan.push(
        ns_to_fs(5_000.0),
        FaultKind::LinkDown {
            class: LinkTag::HmcHmc,
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
        assert_eq!(straight, restored, "straddled-faults-restored");
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
        let b = small(org, Workload::VecAdd).sanitize(SanitizeMode::Record);
        let r = ALL_MODES.map(|mode| b.clone().engine(mode).run());
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
        assert_eq!(r[0], r[1], "sanitized/{}", org.name());
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

/// The version 1 form of a cache record: a dense `ways` array of `[tag,
/// valid, lru]` rows, one per way, in place of the touched ways' `[index,
/// tag, valid, lru]` rows.
fn dense_cache_record(record: &mut JsonValue, ways: u64) {
    let JsonValue::Object(members) = record else {
        panic!("a cache record is an object");
    };
    let (key, value) = &mut members[0];
    assert_eq!(key, "rows", "version 2 lists a cache's rows first");
    let Some(rows) = value.as_array() else {
        panic!("rows is an array");
    };
    let zero = JsonValue::String("0".into());
    let mut dense = vec![zero; 3 * ways as usize];
    for row in rows.chunks_exact(4) {
        let index: usize = row[0]
            .as_str()
            .and_then(|s| s.parse().ok())
            .expect("an index");
        dense[3 * index..3 * index + 3].clone_from_slice(&row[1..]);
    }
    (*key, *value) = ("ways".into(), JsonValue::Array(dense));
}

#[test]
fn a_version_1_snapshot_restores_like_its_version_2_original() {
    use memnet::common::SystemConfig;
    use memnet::obs::{parse, ToJson};
    use memnet::sim::SystemSnapshot;
    // A warm CPU, so the CPU caches hold rows at the boundary.
    let mut warm = Workload::CgS.spec_small();
    warm.host_pre = warm.host_post;
    let b = || small(Organization::Gmn, Workload::CgS).workload(warm.clone());
    let (straight, snap) = b().try_run_checkpointed("v1").expect("checkpoint");
    let v2 = b().try_run_restored(&snap).expect("restore version 2");
    assert_eq!(straight, v2);

    let mut doc = parse(&snap.to_json_string()).expect("a snapshot parses");
    let JsonValue::Object(members) = &mut doc else {
        panic!("a snapshot is an object");
    };
    let cfg = SystemConfig::scaled();
    let ways = |c: &memnet::common::config::CacheConfig| c.sets() * u64::from(c.assoc);
    for (key, value) in members.iter_mut() {
        match (key.as_str(), value) {
            ("memnet_snapshot", v) => *v = JsonValue::String("1".into()),
            ("gpus", JsonValue::Array(gpus)) => {
                for gpu in gpus {
                    let JsonValue::Object(g) = gpu else {
                        panic!("a GPU record is an object");
                    };
                    let l2 = g.iter_mut().find(|m| m.0 == "l2").expect("an L2");
                    dense_cache_record(&mut l2.1, ways(&cfg.gpu.l2));
                }
            }
            ("cpu", JsonValue::Object(cpu)) => {
                for (level, record) in cpu.iter_mut() {
                    match level.as_str() {
                        "l1" => dense_cache_record(record, ways(&cfg.cpu.l1)),
                        "l2" => dense_cache_record(record, ways(&cfg.cpu.l2)),
                        _ => {}
                    }
                }
            }
            // Version 1's network record carries its event count after
            // the cycle.
            ("net", JsonValue::Object(net)) => {
                net.insert(1, ("seq".into(), JsonValue::String("4242".into())))
            }
            _ => {}
        }
    }
    let v1 = SystemSnapshot::from_json(&doc.to_json()).expect("a version 1 header");
    let restored = b().try_run_restored(&v1).expect("restore version 1");
    assert_eq!(restored, v2);
}

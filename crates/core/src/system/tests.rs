use super::{Organization, SimBuilder, SimError, SimReport};
use crate::ske::CtaPolicy;
use memnet_common::SystemConfig;
use memnet_obs::json::{JsonValue, ToJson};
use memnet_workloads::Workload;

/// The test machine: two GPUs of two SMs each.
fn rig(org: Organization) -> SimBuilder {
    SimBuilder::new(org).gpus(2).sms_per_gpu(2)
}

fn small(org: Organization) -> SimReport {
    rig(org).workload(Workload::VecAdd.spec_small()).run()
}

#[test]
fn umn_runs_and_reports() {
    let r = small(Organization::Umn);
    assert!(!r.timed_out, "UMN run must finish");
    assert!(r.kernel_ns > 0.0);
    assert_eq!(r.memcpy_ns, 0.0, "UMN never copies");
    assert!(r.energy_mj > 0.0);
    assert!(r.traffic.total() > 0);
}

#[test]
fn pcie_has_memcpy_time() {
    let r = small(Organization::Pcie);
    assert!(!r.timed_out);
    assert!(r.memcpy_ns > 0.0, "PCIe org stages data");
    assert!(r.kernel_ns > 0.0);
}

#[test]
fn zero_copy_orgs_skip_memcpy() {
    for org in [
        Organization::PcieZc,
        Organization::CmnZc,
        Organization::GmnZc,
    ] {
        let r = small(org);
        assert!(!r.timed_out, "{} must finish", org.name());
        assert_eq!(r.memcpy_ns, 0.0, "{}", org.name());
    }
}

#[test]
fn all_organizations_complete() {
    for org in Organization::all() {
        let r = small(org);
        assert!(!r.timed_out, "{} timed out", org.name());
        assert!(r.kernel_ns > 0.0, "{}", org.name());
    }
}

#[test]
fn umn_beats_pcie_on_total_runtime() {
    // The headline Fig. 14 result, on a tiny configuration.
    let pcie = small(Organization::Pcie);
    let umn = small(Organization::Umn);
    assert!(
        umn.total_ns() < pcie.total_ns(),
        "UMN {:.0} ns should beat PCIe {:.0} ns",
        umn.total_ns(),
        pcie.total_ns()
    );
}

#[test]
fn pcn_beats_pcie_but_not_umn() {
    let pcie = small(Organization::Pcie);
    let pcn = small(Organization::Pcn);
    let umn = small(Organization::Umn);
    assert!(!pcn.timed_out);
    assert!(
        pcn.memcpy_ns > 0.0,
        "PCN stages data like the PCIe baseline"
    );
    assert!(
        pcn.total_ns() < pcie.total_ns(),
        "NVLink-class links beat PCIe"
    );
    assert!(umn.total_ns() < pcn.total_ns(), "memory-centric still wins");
}

#[test]
fn contiguous_placement_concentrates_traffic() {
    use crate::memory::PlacementPolicy;
    let run = |p: PlacementPolicy| {
        rig(Organization::Umn)
            .placement(p)
            .workload(Workload::Kmn.spec_small())
            .run()
    };
    let random = run(PlacementPolicy::Random);
    let contig = run(PlacementPolicy::Contiguous);
    assert!(!random.timed_out && !contig.timed_out);
    // Contiguous placement leaves whole clusters cold, so the hottest
    // HMC's share of total traffic rises.
    let hot_share = |r: &SimReport| {
        let cols = r.traffic.column_totals();
        *cols.iter().max().expect("cols") as f64 / r.traffic.total().max(1) as f64
    };
    assert!(
        hot_share(&contig) > hot_share(&random),
        "first-fit placement must concentrate traffic: {} vs {}",
        hot_share(&contig),
        hot_share(&random)
    );
}

#[test]
fn deterministic_replay() {
    let a = small(Organization::Gmn);
    let b = small(Organization::Gmn);
    assert_eq!(a.kernel_ns, b.kernel_ns);
    assert_eq!(a.memcpy_ns, b.memcpy_ns);
    assert_eq!(a.traffic.total(), b.traffic.total());
}

#[test]
fn fig7_data_restriction_works() {
    // Data on cluster 0 only vs spread over both: the traffic matrix
    // must reflect the restriction.
    let r = rig(Organization::Gmn)
        .workload(Workload::VecAdd.spec_small())
        .data_clusters(vec![0])
        .active_gpus(1)
        .run();
    assert!(!r.timed_out);
    let cols = r.traffic.column_totals();
    let local: u64 = cols[0..4].iter().sum();
    let remote_gpu: u64 = cols[4..8].iter().sum();
    assert!(local > 0);
    assert_eq!(
        remote_gpu, 0,
        "no pages on cluster 1 ⇒ no kernel traffic there"
    );
}

#[test]
fn cpu_workload_runs_host_phases() {
    let mut spec = Workload::CgS.spec_small();
    spec.kernel = std::sync::Arc::new({
        let mut k = (*spec.kernel).clone();
        k.ctas = 8;
        k.iters = 2;
        k
    });
    let r = rig(Organization::Umn).workload(spec).run();
    assert!(!r.timed_out);
    assert!(r.host_ns > 0.0, "CG.S computes on the host");
}

#[test]
fn stealing_policy_completes() {
    let r = rig(Organization::Umn)
        .cta_policy(CtaPolicy::Stealing)
        .workload(Workload::Bp.spec_small())
        .run();
    assert!(!r.timed_out);
    assert!(r.kernel_ns > 0.0);
}

#[test]
fn tracing_and_metrics_capture_the_run() {
    let r = rig(Organization::Umn)
        .trace(1 << 16)
        .metrics_every(1000)
        .workload(Workload::VecAdd.spec_small())
        .run();
    assert!(!r.timed_out);
    let trace = r.trace_json.expect("trace enabled");
    for needle in [
        "packet-inject",
        "packet-hop",
        "packet-eject",
        "vault-service",
        "cta-launch",
        "\"kernel\"",
    ] {
        assert!(trace.contains(needle), "trace must mention {needle}");
    }
    let metrics = r.metrics.expect("metrics enabled").to_json_pretty();
    assert!(metrics.contains("net.flits_injected"));
    assert!(metrics.contains("occupancy"));
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let plain = small(Organization::Umn);
    let traced = rig(Organization::Umn)
        .trace(4096)
        .metrics_every(500)
        .workload(Workload::VecAdd.spec_small())
        .run();
    assert_eq!(plain.kernel_ns, traced.kernel_ns, "observer effect");
    assert_eq!(plain.traffic.total(), traced.traffic.total());
}

#[test]
fn untraced_report_has_no_observability_payloads() {
    let r = small(Organization::Umn);
    assert!(r.trace_json.is_none());
    assert!(r.metrics.is_none());
}

#[test]
fn gpu_loss_rebalances_ctas_onto_survivor() {
    use memnet_common::faults::{FaultKind, FaultPlan};
    let mut plan = FaultPlan::new();
    plan.push(1, FaultKind::GpuLoss { gpu: 1 });
    let r = rig(Organization::Umn)
        .faults(plan)
        .workload(Workload::VecAdd.spec_small())
        .run();
    assert!(!r.timed_out, "degraded run must complete, not hang");
    assert_eq!(r.lost_gpus, 1);
    assert_eq!(r.faults_injected, 1);
    assert!(r.rebalanced_ctas > 0, "GPU 1's CTAs must move to GPU 0");
    let clean = small(Organization::Umn);
    assert!(
        r.per_gpu[0].ctas_done > clean.per_gpu[0].ctas_done,
        "survivor must absorb the lost GPU's work"
    );
    assert!(
        r.kernel_ns > clean.kernel_ns,
        "one GPU doing all the work is slower"
    );
}

#[test]
fn gpu_loss_with_stealing_policy_completes() {
    use memnet_common::faults::{FaultKind, FaultPlan};
    let mut plan = FaultPlan::new();
    plan.push(1, FaultKind::GpuLoss { gpu: 0 });
    let r = rig(Organization::Umn)
        .cta_policy(CtaPolicy::Stealing)
        .faults(plan)
        .workload(Workload::VecAdd.spec_small())
        .run();
    assert!(!r.timed_out);
    assert_eq!(r.lost_gpus, 1);
    assert!(r.rebalanced_ctas > 0);
}

#[test]
fn pcie_with_lost_gpu_completes_via_rebalancing() {
    use memnet_common::faults::{FaultKind, FaultPlan};
    let mut plan = FaultPlan::new();
    plan.push(
        memnet_common::time::ns_to_fs(50.0),
        FaultKind::GpuLoss { gpu: 1 },
    );
    let r = rig(Organization::Pcie)
        .faults(plan)
        .workload(Workload::VecAdd.spec_small())
        .run();
    assert!(!r.timed_out, "PCIe + lost GPU must complete, not hang");
    assert_eq!(r.lost_gpus, 1);
    assert!(r.kernel_ns > 0.0);
}

#[test]
fn stalled_vaults_slow_the_kernel_without_losing_requests() {
    use memnet_common::faults::{FaultKind, FaultPlan};
    let mut plan = FaultPlan::new();
    let vaults = SystemConfig::scaled().hmc.vaults;
    for v in 0..u64::from(vaults) {
        plan.push(
            1,
            FaultKind::VaultStall {
                hmc: 0,
                vault: v,
                stall_tcks: 50_000,
            },
        );
    }
    let r = rig(Organization::Umn)
        .faults(plan)
        .workload(Workload::VecAdd.spec_small())
        .run();
    let clean = small(Organization::Umn);
    assert!(!r.timed_out);
    assert_eq!(r.faults_injected, u64::from(vaults));
    assert_eq!(r.failed_requests, 0, "stalls delay, never drop");
    assert!(
        r.kernel_ns > clean.kernel_ns,
        "frozen cube must slow the kernel: {} vs {}",
        r.kernel_ns,
        clean.kernel_ns
    );
}

#[test]
fn link_cut_mid_kernel_completes_deterministically() {
    use memnet_common::faults::{FaultKind, FaultPlan, LinkTag};
    let run = || {
        let mut plan = FaultPlan::new();
        plan.push(
            memnet_common::time::ns_to_fs(20.0),
            FaultKind::LinkDown {
                class: LinkTag::HmcHmc,
                ordinal: 0,
            },
        );
        rig(Organization::Umn)
            .faults(plan)
            .workload(Workload::VecAdd.spec_small())
            .run()
    };
    let a = run();
    let b = run();
    assert!(!a.timed_out, "cut network must still complete");
    assert_eq!(a.faults_injected, 1);
    assert_eq!(a.kernel_ns, b.kernel_ns, "fault runs stay deterministic");
    assert_eq!(a.failed_requests, b.failed_requests);
    assert_eq!(a.reroutes, b.reroutes);
}

#[test]
fn absent_link_classes_are_skipped_not_applied() {
    use memnet_common::faults::{FaultKind, FaultPlan, LinkTag};
    let mut plan = FaultPlan::new();
    plan.push(
        1,
        FaultKind::LinkDown {
            class: LinkTag::Pcie,
            ordinal: 0,
        },
    );
    // UMN has no PCIe links: the event is dropped, counted, harmless.
    let r = rig(Organization::Umn)
        .faults(plan)
        .workload(Workload::VecAdd.spec_small())
        .run();
    assert!(!r.timed_out);
    assert_eq!(r.faults_injected, 0);
    assert_eq!(r.faults_skipped, 1);
}

#[test]
fn fault_trace_records_the_injection() {
    use memnet_common::faults::{FaultKind, FaultPlan};
    let mut plan = FaultPlan::new();
    plan.push(1, FaultKind::GpuLoss { gpu: 1 });
    let r = rig(Organization::Umn)
        .trace(1 << 16)
        .metrics_every(1000)
        .faults(plan)
        .workload(Workload::VecAdd.spec_small())
        .run();
    let trace = r.trace_json.expect("trace enabled");
    assert!(trace.contains("gpu-loss"), "fault instant in the trace");
    let metrics = r.metrics.expect("metrics enabled").to_json_pretty();
    assert!(metrics.contains("faults.injected"));
    assert!(metrics.contains("ske.rebalanced_ctas"));
}

#[test]
fn overlay_umn_uses_passthrough_for_cpu_traffic() {
    let mut spec = Workload::CgS.spec_small();
    spec.kernel = std::sync::Arc::new({
        let mut k = (*spec.kernel).clone();
        k.ctas = 8;
        k.iters = 2;
        k
    });
    let r = SimBuilder::new(Organization::Umn)
        .gpus(3)
        .sms_per_gpu(2)
        .overlay(true)
        .workload(spec)
        .run();
    assert!(!r.timed_out);
    assert!(
        r.passthrough > 0,
        "CPU packets should take pass-through hops"
    );
}

/// The member at `path` (`.`-separated keys and indices) of a document.
fn member<'a>(doc: &'a mut JsonValue, path: &str) -> &'a mut JsonValue {
    path.split('.').fold(doc, |v, step| match v {
        JsonValue::Object(ms) => &mut ms.iter_mut().find(|m| m.0 == step).expect("a key").1,
        JsonValue::Array(xs) => &mut xs[step.parse::<usize>().expect("an index")],
        _ => panic!("'{step}' inside a scalar"),
    })
}

#[test]
fn damaged_snapshots_are_refused_by_field() {
    enum Edit<'a> {
        /// Drops this many trailing elements.
        Cut(usize),
        /// Replaces the value with this string.
        Set(&'a str),
        /// Appends this string to an array.
        Push(&'static str),
        /// Adds a member holding an empty array to an object.
        Add(&'static str),
        /// Removes a member from an object.
        Remove(&'static str),
    }
    use Edit::{Add, Cut, Push, Remove, Set};
    const LIMIT: &str = "9007199254740992";
    // A warm CPU: host-pre is CG.S's host-post, so the CPU caches hold
    // rows at the boundary. No GPU has run a kernel there, so their L2s
    // hold none.
    let mut warm = Workload::CgS.spec_small();
    warm.host_pre = warm.host_post;
    let builder = || rig(Organization::Gmn).workload(warm.clone());
    let (report, snap) = builder().try_run_checkpointed("").expect("checkpoint");
    let restored = builder().try_run_restored(&snap).expect("intact restore");
    assert_eq!(restored, report);
    let array = |path: &str| {
        let mut doc = snap.doc.clone();
        match member(&mut doc, path) {
            JsonValue::Array(xs) => xs.clone(),
            v => panic!("{path}: {v:?} is not an array"),
        }
    };
    let len = |path: &str| array(path).len();
    for rows in ["cpu.l1.rows", "cpu.l2.rows"] {
        assert!(len(rows) >= 8, "{rows} holds two rows");
    }
    let first_l1_way = array("cpu.l1.rows")[0]
        .as_str()
        .expect("a string")
        .to_string();
    let last = len("net.channels") / 5 - 1;
    let (last_up, last_channel) = (
        format!("net.channels.{}", 5 * last),
        format!("'net.channels[{last}]'"),
    );
    let hmc = len("hmcs") - 1;
    let vault = len(&format!("hmcs.{hmc}.vaults")) - 1;
    let (last_banks, last_vault) = (
        format!("hmcs.{hmc}.vaults.{vault}.banks"),
        format!("'hmcs[{hmc}].vaults[{vault}].banks'"),
    );
    // Each damage is refused by the record's owner — the driver or the
    // component — and named by its full path.
    let damages = [
        ("'clocks'", "clocks", Cut(1)),
        ("'gpus'", "gpus", Cut(1)),
        ("'hmcs'", "hmcs", Cut(1)),
        ("'traffic'", "traffic", Cut(1)),
        ("'gpus[1].l2.rows'", "gpus.1.l2.rows", Push("0")),
        ("'hmcs[0].vaults[2].banks'", "hmcs.0.vaults.2.banks", Cut(5)),
        ("'net.free_pids'", "net.free_pids", Cut(1)),
        ("'clocks[0]'", "clocks.0", Set("1")),
        ("'hmcs[0].stalled_until'", "hmcs.0.stalled_until", Cut(1)),
        ("'net.link_up'", "net.link_up", Cut(1)),
        ("'net.channels'", "net.channels", Cut(5)),
        // Channel states no run reaches: a free wire, a link's channel
        // down while its link is up, and a down endpoint channel.
        ("'net.channels[0]'", "net.channels.1", Set("0")),
        ("'net.channels[1]'", "net.channels.5", Set("0")),
        (last_channel.as_str(), last_up.as_str(), Set("0")),
        // Cache rows: a 3-cell row, a way past the geometry, a way that
        // repeats the one before, both encodings at once, and neither.
        ("'cpu.l1.rows'", "cpu.l1.rows", Cut(1)),
        ("'cpu.l1.rows[0]'", "cpu.l1.rows.0", Set(LIMIT)),
        ("'cpu.l1.rows[4]'", "cpu.l1.rows.4", Set(&first_l1_way)),
        ("'cpu.l1'", "cpu.l1", Add("ways")),
        ("'gpus[0].l2'", "gpus.0.l2", Remove("rows")),
        // Records read after their siblings were taken: the L2 after the
        // L1, the last vault of the last cube after every other vault.
        ("'cpu.l2.rows'", "cpu.l2.rows", Cut(1)),
        (last_vault.as_str(), last_banks.as_str(), Cut(5)),
        ("'memory.next_seq'", "memory.next_seq", Cut(1)),
        ("'hmcs[0].stalls'", "hmcs.0.stalls", Set("x")),
        (
            "'hmcs[0].vaults[0].banks[0]'",
            "hmcs.0.vaults.0.banks.0",
            Set("-1"),
        ),
        // Counts the owners hold to their clocks, their idle state and
        // their address space.
        ("'gpus[0].core_cycle'", "gpus.0.core_cycle", Set("1")),
        ("'net.cycle'", "net.cycle", Set("1")),
        ("'cpu.compute_until'", "cpu.compute_until", Set(LIMIT)),
        ("'memory.next_seq[0]'", "memory.next_seq.0", Set(LIMIT)),
    ];
    for (field, path, edit) in damages {
        let mut bad = snap.clone();
        match (member(&mut bad.doc, path), edit) {
            (JsonValue::Array(xs), Cut(n)) => xs.truncate(xs.len() - n),
            (v, Set(s)) => *v = JsonValue::String(s.into()),
            (JsonValue::Array(xs), Push(s)) => xs.push(JsonValue::String(s.into())),
            (JsonValue::Object(ms), Add(key)) => ms.push((key.into(), JsonValue::Array(vec![]))),
            (JsonValue::Object(ms), Remove(key)) => ms.retain(|m| m.0 != key),
            (v, _) => panic!("{path}: {v:?} cannot take this edit"),
        }
        match builder().try_run_restored(&bad) {
            Err(SimError::Snapshot(why)) => assert!(why.contains(field), "{field}: {why}"),
            other => panic!("{field}: expected a snapshot error, got {other:?}"),
        }
    }
}

//! Golden-value regression tests.
//!
//! The simulator is deterministic, so key outputs for fixed configurations
//! are stable across runs and platforms. These tests pin *relationships*
//! and coarse magnitudes (not exact cycle counts, which legitimately move
//! when models are improved) so that accidental behavioral regressions—
//! a broken clock ratio, a dropped backpressure path, a routing change —
//! get caught immediately.

use memnet::sim::{EngineMode, Organization, SanitizeMode, SimBuilder, SimReport};
use memnet::workloads::Workload;

fn run(org: Organization, w: Workload) -> SimReport {
    SimBuilder::new(org)
        .gpus(2)
        .sms_per_gpu(2)
        .workload(w.spec_small())
        .run()
}

#[test]
fn vecadd_umn_magnitudes() {
    let r = run(Organization::Umn, Workload::VecAdd);
    assert!(!r.timed_out);
    // A few thousand ns at this scale — catch 10× regressions either way.
    assert!(
        (500.0..50_000.0).contains(&r.kernel_ns),
        "kernel {}",
        r.kernel_ns
    );
    // VECADD issues 2 reads + 1 write per phase; traffic is within sane
    // bounds for the small footprint (~1.5 MB touched, wire overheads in).
    let mb = r.traffic.total() as f64 / 1e6;
    assert!((0.01..20.0).contains(&mb), "traffic {mb} MB");
}

#[test]
fn pcie_memcpy_bandwidth_is_near_link_rate() {
    let r = run(Organization::Pcie, Workload::Scan);
    assert!(!r.timed_out);
    let spec = Workload::Scan.spec_small();
    let bytes = (spec.h2d_bytes + spec.d2h_bytes) as f64;
    let gbs = bytes / r.memcpy_ns; // bytes per ns == GB/s
                                   // Must be below the 15.75 GB/s PCIe link but within 4× of it
                                   // (protocol overheads, DMA window, round trips).
    assert!(
        gbs < 15.75,
        "memcpy cannot beat the PCIe link: {gbs:.2} GB/s"
    );
    assert!(
        gbs > 15.75 / 4.0,
        "memcpy far below link rate: {gbs:.2} GB/s"
    );
}

#[test]
fn network_latency_is_physically_plausible() {
    let r = run(Organization::Umn, Workload::Kmn);
    // Minimum: pipeline + SerDes + serialization ≈ >8 ns for one hop.
    assert!(
        r.avg_pkt_latency_ns > 8.0,
        "latency {}",
        r.avg_pkt_latency_ns
    );
    assert!(
        r.avg_pkt_latency_ns < 2_000.0,
        "latency {}",
        r.avg_pkt_latency_ns
    );
    // 4 HMCs per cluster × 3 clusters: 1–4 router-to-router hops typical.
    assert!((1.0..4.0).contains(&r.avg_hops), "hops {}", r.avg_hops);
}

#[test]
fn dram_row_hits_exist_for_streaming() {
    let r = run(Organization::Umn, Workload::Scan);
    assert!(
        r.row_hit_rate > 0.01,
        "streaming should produce row hits: {}",
        r.row_hit_rate
    );
}

#[test]
fn energy_scales_with_runtime_and_traffic() {
    let short = run(Organization::Umn, Workload::VecAdd);
    let long = run(Organization::Pcie, Workload::VecAdd);
    // The PCIe run takes much longer wall-clock (memcpy), so idle energy
    // alone must make it costlier.
    assert!(long.energy_mj > short.energy_mj);
}

#[test]
fn cta_work_is_balanced_across_gpus_with_static_chunking() {
    let r = run(Organization::Umn, Workload::Kmn);
    let done: Vec<u64> = r.per_gpu.iter().map(|g| g.ctas_done).collect();
    let total: u64 = done.iter().sum();
    assert_eq!(total as u32, Workload::Kmn.spec_small().kernel.ctas);
    let max = *done.iter().max().expect("gpus");
    let min = *done.iter().min().expect("gpus");
    assert!(max - min <= 1, "static chunks must be near-equal: {done:?}");
}

#[test]
fn channel_utilization_is_a_fraction() {
    let r = run(Organization::Gmn, Workload::Bp);
    assert!((0.0..=1.0).contains(&r.channel_utilization));
    assert!(
        r.channel_utilization > 0.0,
        "a running kernel must use channels"
    );
}

#[test]
fn double_run_reports_are_byte_identical_json() {
    // The strongest determinism smoke: build two fresh Systems from the
    // same seed and demand byte-identical serialized reports — floats,
    // sanitizer findings and all — under each engine mode, and then across
    // the two modes. Any nondeterminism (hash-order iteration, wall-clock
    // leakage, engine-variant sanitizer counts) shows up as a diff here.
    let run = |mode: EngineMode| -> String {
        SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
            .workload(Workload::Kmn.spec_small())
            .engine(mode)
            .sanitize(SanitizeMode::Fatal)
            .run()
            .to_json_string()
    };
    for mode in [EngineMode::CycleStepped, EngineMode::EventDriven] {
        let a = run(mode);
        let b = run(mode);
        assert_eq!(a, b, "same-seed double run diverged under {mode:?}");
    }
    assert_eq!(
        run(EngineMode::CycleStepped),
        run(EngineMode::EventDriven),
        "engine modes must serialize identically"
    );
}

#[test]
fn exact_determinism_pin() {
    // Full bit-stability for one configuration; if this fails without an
    // intentional model change, something became nondeterministic.
    let a = run(Organization::Umn, Workload::Bfs);
    let b = run(Organization::Umn, Workload::Bfs);
    assert_eq!(a, b);
}

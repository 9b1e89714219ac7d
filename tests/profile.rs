//! Profiling is observation-only: a run with the self-profiler enabled
//! must leave the `SimReport` byte-identical in every engine mode, while
//! the separate `ProfileReport` accounts where the run's wall clock,
//! allocations and network capacity went.

use memnet::obs::JsonValue;
use memnet::sim::{EngineMode, Organization, SimBuilder};
use memnet::workloads::Workload;

fn base() -> SimBuilder {
    SimBuilder::new(Organization::Pcie)
        .gpus(2)
        .sms_per_gpu(4)
        .workload(Workload::Scan.spec_small())
}

#[test]
fn profiling_never_changes_the_report_in_either_engine_mode() {
    for mode in [EngineMode::CycleStepped, EngineMode::EventDriven] {
        let plain = base().engine(mode).run();
        let (r, _) = base()
            .engine(mode)
            .try_run_profiled()
            .expect("profiled run failed");
        assert_eq!(r, plain, "{} report changed under profiling", mode.name());
    }
}

#[test]
fn profile_report_attributes_the_run_wall_clock() {
    let (_, p) = base().try_run_profiled().expect("run failed");
    assert!(p.wall_ns > 0, "a run takes nonzero wall time");
    let names: Vec<&str> = p.domains.iter().map(|d| d.name).collect();
    for n in [
        "core-tick",
        "l2-tick",
        "cpu-tick",
        "net-tick",
        "dram-tick",
        "calendar-advance",
        "fast-forward",
    ] {
        assert!(names.contains(&n), "missing profiler category {n}");
    }
    let accounted: u64 = p.domains.iter().map(|d| d.wall_ns).sum();
    assert!(
        accounted <= p.wall_ns,
        "scoped categories ({accounted} ns) cannot exceed total wall time ({} ns)",
        p.wall_ns
    );
    assert!(
        p.domains.iter().any(|d| d.wall_ns > 0 && d.ticks > 0),
        "at least one category must have run"
    );
    assert!(!p.phases.is_empty(), "phase marks recorded");
    assert!(p.flit_hops > 0, "SCAN moves traffic");
    assert!(p.ctas_done > 0, "SCAN retires CTAs");
    assert!(p.wall_ns_per_flit_hop().is_some());
    assert!(p.wall_ns_per_cta().is_some());
    assert!(
        p.hists
            .iter()
            .any(|h| h.name == "net.pkt_latency_cycles" && h.snap.count > 0),
        "latency histogram populated"
    );
}

#[test]
fn simulation_statistics_in_the_profile_match_across_engine_modes() {
    let run = |mode| {
        base()
            .engine(mode)
            .try_run_profiled()
            .expect("run failed")
            .1
    };
    let cycle = run(EngineMode::CycleStepped);
    let event = run(EngineMode::EventDriven);
    // Wall-clock attribution differs between engines by design; everything
    // derived from simulation state must not.
    assert_eq!(cycle.flit_hops, event.flit_hops);
    assert_eq!(cycle.ctas_done, event.ctas_done);
    assert_eq!(cycle.net_cycles, event.net_cycles);
    // Packet-latency samples are taken per ejection (a simulation event,
    // identical in both modes). Occupancy samples are taken per *network
    // tick*, which the event engine legitimately skips while parked, so
    // those counts are engine-dependent and not compared.
    let lat = |p: &memnet::sim::ProfileReport| {
        p.hists
            .iter()
            .find(|h| h.name == "net.pkt_latency_cycles")
            .expect("latency histogram present")
            .snap
    };
    let (a, b) = (lat(&cycle), lat(&event));
    assert_eq!(a.count, b.count);
    assert_eq!(a.p50, b.p50);
    assert_eq!(a.p99, b.p99);
    assert_eq!(a.max, b.max);
}

#[test]
fn heatmap_covers_every_router_and_link_with_sane_fractions() {
    let (_, p) = base().try_run_profiled().expect("run failed");
    assert!(!p.heatmap.routers.is_empty(), "router utilization present");
    assert!(!p.heatmap.links.is_empty(), "link utilization present");
    for &u in &p.heatmap.routers {
        assert!((0.0..=1.0).contains(&u), "busy fraction out of range: {u}");
    }
    let text = p.heatmap.to_json_string();
    assert!(text.ends_with('\n'));
    let doc = memnet::obs::parse(&text).expect("heatmap JSON parses");
    let routers = doc
        .get("routers")
        .and_then(JsonValue::as_array)
        .expect("routers array");
    assert_eq!(routers.len(), p.heatmap.routers.len());
    let links = doc
        .get("links")
        .and_then(JsonValue::as_array)
        .expect("links array");
    assert_eq!(links.len(), p.heatmap.links.len());
    for l in links {
        for k in [
            "tag",
            "a",
            "b",
            "up",
            "fwd_busy_frac",
            "rev_busy_frac",
            "fwd_bytes",
            "rev_bytes",
        ] {
            assert!(l.get(k).is_some(), "heatmap link missing {k}");
        }
    }
}

#[test]
fn profile_report_json_is_well_formed() {
    let (_, p) = base().try_run_profiled().expect("run failed");
    let text = p.to_json_string();
    assert!(text.ends_with('\n'));
    let doc = memnet::obs::parse(&text).expect("ProfileReport JSON parses");
    assert!(doc.get("engine").and_then(JsonValue::as_str).is_some());
    assert!(doc.get("domains").and_then(JsonValue::as_array).is_some());
    assert!(doc.get("phases").and_then(JsonValue::as_array).is_some());
    let alloc = doc.get("alloc").expect("alloc object");
    assert!(alloc.get("installed").is_some());
    let cost = doc.get("cost").expect("cost object");
    for k in ["net_cycles", "flit_hops", "ctas_done"] {
        assert!(
            cost.get(k).and_then(JsonValue::as_f64).is_some(),
            "cost missing {k}"
        );
    }
    assert!(doc.get("heatmap").is_some());
}

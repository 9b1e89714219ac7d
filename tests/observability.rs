//! Golden-file test for the observability stack: a small UMN run with
//! tracing + metrics enabled must emit a well-formed Chrome trace-event
//! JSON document (the format Perfetto / `chrome://tracing` loads) with
//! monotonic timestamps and every event family the engine instruments.

use memnet::obs::{JsonValue, ToJson};
use memnet::sim::{Organization, SimBuilder};
use memnet::workloads::Workload;

fn traced_report() -> memnet::sim::SimReport {
    SimBuilder::new(Organization::Umn)
        .gpus(2)
        .sms_per_gpu(2)
        .workload(Workload::Kmn.spec_small())
        .trace(1 << 18)
        .metrics_every(2_000)
        .run()
}

/// Pulls `traceEvents` out of a parsed trace document.
fn events(doc: &JsonValue) -> &[JsonValue] {
    doc.get("traceEvents")
        .expect("top-level traceEvents key")
        .as_array()
        .expect("traceEvents is an array")
}

#[test]
fn chrome_trace_is_well_formed() {
    let r = traced_report();
    let json = r.trace_json.expect("tracing was enabled");
    let doc = memnet::obs::parse(&json).expect("trace must be valid JSON");
    let evs = events(&doc);
    assert!(
        evs.len() > 100,
        "a kernel run should produce many events, got {}",
        evs.len()
    );

    for (i, e) in evs.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .expect("every event has ph");
        assert!(
            matches!(ph, "X" | "i" | "M" | "C"),
            "unexpected phase {ph:?} at event {i}"
        );
        assert!(
            e.get("name").and_then(JsonValue::as_str).is_some(),
            "event {i} has no name"
        );
        if ph == "M" {
            continue; // metadata events carry no timestamp
        }
        let ts = e
            .get("ts")
            .and_then(JsonValue::as_f64)
            .expect("timed event has ts");
        assert!(ts >= 0.0, "negative timestamp at event {i}");
        if ph == "X" {
            let dur = e
                .get("dur")
                .and_then(JsonValue::as_f64)
                .expect("span has dur");
            assert!(dur >= 0.0, "negative duration at event {i}");
        }
    }
}

#[test]
fn trace_timestamps_are_monotonic() {
    let r = traced_report();
    let json = r.trace_json.expect("tracing was enabled");
    let doc = memnet::obs::parse(&json).expect("valid JSON");
    // The tracer guarantees sorted start times for the simulation events
    // ("X"/"i"). Metadata has no ts and the metric counter stream ("C")
    // is appended afterwards with its own epoch clock, so both are
    // excluded; Chrome/Perfetto sort streams independently.
    let mut last = f64::NEG_INFINITY;
    for e in events(&doc) {
        if !matches!(
            e.get("ph").and_then(JsonValue::as_str),
            Some("X") | Some("i")
        ) {
            continue;
        }
        let ts = e.get("ts").and_then(JsonValue::as_f64).expect("ts");
        assert!(ts >= last, "timestamps must be sorted: {ts} after {last}");
        last = ts;
    }
}

#[test]
fn trace_contains_every_instrumented_event_family() {
    let r = traced_report();
    let json = r.trace_json.expect("tracing was enabled");
    let doc = memnet::obs::parse(&json).expect("valid JSON");
    let names: Vec<&str> = events(&doc)
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for family in [
        "packet-inject",
        "packet-hop",
        "packet-eject",
        "vault-service",
        "cta-launch",
        "kernel",
    ] {
        assert!(
            names.contains(&family),
            "trace is missing {family:?} events"
        );
    }
    // Metrics epochs surface as counter events alongside the trace.
    assert!(
        events(&doc)
            .iter()
            .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C")),
        "metrics epochs should emit counter events"
    );
}

#[test]
fn packet_hops_break_down_the_pipeline_stages() {
    let r = traced_report();
    let json = r.trace_json.expect("tracing was enabled");
    let doc = memnet::obs::parse(&json).expect("valid JSON");
    let hop = events(&doc)
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("packet-hop"))
        .expect("at least one hop");
    let args = hop.get("args").expect("hop args");
    for stage in ["queue_cycles", "serdes_cycles", "pipeline_cycles"] {
        assert!(
            args.get(stage).and_then(JsonValue::as_f64).is_some(),
            "hop args missing {stage}"
        );
    }
}

#[test]
fn trace_event_loss_is_counted_not_silent() {
    // A ring far too small for a kernel run must drop events — and say so:
    // in the report, and in the exported document's otherData.
    let r = SimBuilder::new(Organization::Umn)
        .gpus(2)
        .sms_per_gpu(2)
        .workload(Workload::Kmn.spec_small())
        .trace(256)
        .run();
    assert!(
        r.trace_dropped > 0,
        "a 256-event ring cannot hold a kernel run"
    );
    let json = r.trace_json.expect("tracing was enabled");
    let doc = memnet::obs::parse(&json).expect("valid JSON");
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(JsonValue::as_f64)
        .expect("otherData.dropped_events present");
    assert_eq!(dropped as u64, r.trace_dropped);

    // An adequately sized ring drops nothing.
    assert_eq!(traced_report().trace_dropped, 0);
}

#[test]
fn histogram_epochs_surface_as_percentile_counter_tracks() {
    let r = traced_report();
    let trace = r.trace_json.expect("tracing was enabled");
    let doc = memnet::obs::parse(&trace).expect("valid JSON");
    let counter_names: Vec<&str> = events(&doc)
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for series in [
        "net.pkt_latency_cycles.p50",
        "net.pkt_latency_cycles.p99",
        "net.vc_occupancy_flits.p99",
        "hmc.vault_queue_depth.p99",
    ] {
        assert!(
            counter_names.contains(&series),
            "missing histogram counter track {series}"
        );
    }
    // The registry carries the same distributions and the drop counter.
    let metrics = r.metrics.expect("metrics were enabled").to_json_pretty();
    assert!(metrics.contains("histograms"));
    assert!(metrics.contains("trace.dropped"));
}

#[test]
fn metrics_json_reports_the_instrumented_series() {
    let r = traced_report();
    let json = r.metrics.expect("metrics were enabled").to_json_pretty();
    let doc = memnet::obs::parse(&json).expect("metrics must be valid JSON");
    let epochs = doc
        .get("epochs")
        .expect("epochs key")
        .as_array()
        .expect("array");
    assert!(
        !epochs.is_empty(),
        "at least the final epoch must be recorded"
    );
    let text = json.as_str();
    for series in [
        "net.flits_injected",
        "gpu0.occupancy",
        "hmc0.vault_queue",
        "cpu.outstanding",
    ] {
        assert!(text.contains(series), "metrics JSON is missing {series}");
    }
}

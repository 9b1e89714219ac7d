//! Metrics registry: hierarchically-named counters, gauges and
//! log-bucketed histograms with periodic epoch snapshots.
//!
//! Names are dotted paths (`net.flits_injected`, `gpu0.sm_occupancy`,
//! `hmc3.vault_queue`), kept sorted so exports are deterministic. A run
//! that records no metrics holds no registry (`Option<MetricsRegistry>`).
//!
//! Name discipline (enforced by the compiler: a `&format!(…)` temporary
//! is not `'static`): instrumented code passes `&'static str` literals to
//! [`MetricsRegistry::add`]/[`MetricsRegistry::set`]/[`MetricsRegistry::record_hist`].
//! Per-entity series (`gpu3.occupancy`) go through
//! [`MetricsRegistry::set_entity`], which builds the dotted name *inside* the
//! observability layer — call sites never `format!` a metric name, so the
//! registry cannot be fragmented by ad-hoc name construction.
//!
//! Counters are cumulative (monotonic, wrapping on u64 overflow so a
//! hot counter can never panic the run); gauges are point-in-time
//! samples; histograms are power-of-two bucketed distributions
//! ([`Histogram`]). [`MetricsRegistry::snapshot`] records the current
//! value of everything under a timestamp, turning the run into a time
//! series (injected flits/cycle, SM occupancy, vault queue depths,
//! latency percentiles, ...).

use crate::json::{JsonWriter, ToJson};
use std::collections::BTreeMap;

// The histogram the registry records lives in memnet-common; re-exported
// here so instrumented code can name it through the observability layer.
pub use memnet_common::stats::Histogram;

/// Digest of a [`Histogram`] at snapshot time: sample count plus
/// log-bucket percentile estimates. The default is an empty histogram's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded so far.
    pub count: u64,
    /// Median estimate (lower bound of the crossing bucket).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Upper-tail estimate (lower bound of the last nonempty bucket).
    pub max: u64,
}

impl HistSnapshot {
    /// Digests a histogram.
    pub fn of(h: &Histogram) -> Self {
        HistSnapshot {
            count: h.count(),
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
            max: h.percentile(100.0),
        }
    }

    /// Writes the digest as an object; `tail` adds members after the five
    /// digest fields, before the object closes.
    fn write_with(&self, w: &mut JsonWriter, tail: impl FnOnce(&mut JsonWriter)) {
        w.begin_object();
        w.field("count", &self.count);
        w.field("p50", &self.p50);
        w.field("p90", &self.p90);
        w.field("p99", &self.p99);
        w.field("max", &self.max);
        tail(w);
        w.end_object();
    }
}

impl ToJson for HistSnapshot {
    fn write_json(&self, w: &mut JsonWriter) {
        self.write_with(w, |_| {});
    }
}

/// One periodic snapshot of every counter, gauge and histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    /// Simulated time of the snapshot, femtoseconds.
    pub at_fs: u64,
    /// Cumulative counter values at the snapshot.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at the snapshot.
    pub gauges: Vec<(String, f64)>,
    /// Histogram digests at the snapshot.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl ToJson for Epoch {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("at_ns", &(self.at_fs as f64 / 1e6));
        w.object_field("counters", self.counters.iter().map(|(k, v)| (k, v)));
        w.object_field("gauges", self.gauges.iter().map(|(k, v)| (k, v)));
        if !self.hists.is_empty() {
            w.object_field("histograms", self.hists.iter().map(|(k, s)| (k, s)));
        }
        w.end_object();
    }
}

/// The concrete metrics store: current values plus the epoch time series.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    epochs: Vec<Epoch>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (wrapping on overflow).
    ///
    /// `add`/`set` take `&'static str` so every series name is a literal
    /// registered at the call site; dynamic per-entity names are built only
    /// by the helpers below, keeping the namespace auditable.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        self.add_dyn(name, delta);
    }

    /// Sets the gauge `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_dyn(name, value);
    }

    /// Counter update with a runtime-built name. Implementation detail of
    /// the entity helpers — instrumented code should use [`Self::add`].
    fn add_dyn(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v = v.wrapping_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Gauge update with a runtime-built name. Implementation detail of
    /// the entity helpers — instrumented code should use [`Self::set`].
    fn set_dyn(&mut self, name: &str, value: f64) {
        if let Some(v) = self.gauges.get_mut(name) {
            *v = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Sets the per-entity gauge `{class}{index}.{field}` (e.g.
    /// `gpu3.occupancy`). The only sanctioned way to produce an indexed
    /// series name.
    pub fn set_entity(
        &mut self,
        class: &'static str,
        index: usize,
        field: &'static str,
        value: f64,
    ) {
        self.set_dyn(&format!("{class}{index}.{field}"), value);
    }

    /// Current value of a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one sample into the histogram `name`, creating it on first
    /// use (only then is the name allocated).
    pub fn record_hist(&mut self, name: &'static str, value: u64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record(value);
        } else {
            self.hists
                .entry(name.to_string())
                .or_default()
                .record(value);
        }
    }

    /// The histogram `name`, if any sample was ever recorded into it.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// The recorded epoch snapshots, oldest first.
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// Records a snapshot of every current counter, gauge and histogram
    /// at `at_fs`. An empty registry still records a (empty) epoch, so
    /// consumers can count heartbeats.
    pub fn snapshot(&mut self, at_fs: u64) {
        self.epochs.push(Epoch {
            at_fs,
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), HistSnapshot::of(h)))
                .collect(),
        });
    }
}

impl ToJson for MetricsRegistry {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.object_field("counters", &self.counters);
        w.object_field("gauges", &self.gauges);
        if !self.hists.is_empty() {
            w.key("histograms");
            w.begin_object();
            for (k, h) in &self.hists {
                w.key(k);
                HistSnapshot::of(h).write_with(w, |w| {
                    // Sparse bucket dump: (log2 upper bound, count) pairs.
                    w.key("buckets");
                    w.begin_array();
                    for (i, &c) in h.buckets().iter().enumerate() {
                        if c > 0 {
                            w.begin_object();
                            w.field("log2", &(i as u64));
                            w.field("count", &c);
                            w.end_object();
                        }
                    }
                    w.end_array();
                });
            }
            w.end_object();
        }
        w.field("epochs", &self.epochs);
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.add("net.flits", 3);
        m.add("net.flits", 4);
        m.set("gpu0.occupancy", 0.5);
        m.set("gpu0.occupancy", 0.75);
        assert_eq!(m.counter("net.flits"), 7);
        assert_eq!(m.gauge("gpu0.occupancy"), Some(0.75));
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn snapshots_capture_the_time_series() {
        let mut m = MetricsRegistry::new();
        m.add("x", 1);
        m.snapshot(1_000);
        m.add("x", 1);
        m.set("g", 2.0);
        m.snapshot(2_000);
        assert_eq!(m.epochs().len(), 2);
        assert_eq!(m.epochs()[0].counters, vec![("x".to_string(), 1)]);
        assert_eq!(m.epochs()[1].counters, vec![("x".to_string(), 2)]);
        assert_eq!(m.epochs()[1].gauges, vec![("g".to_string(), 2.0)]);
    }

    #[test]
    fn set_entity_builds_the_indexed_name_internally() {
        let mut m = MetricsRegistry::new();
        m.set_entity("gpu", 3, "occupancy", 0.25);
        assert_eq!(m.gauge("gpu3.occupancy"), Some(0.25));
    }

    #[test]
    fn json_export_is_valid_and_sorted() {
        let mut m = MetricsRegistry::new();
        m.add("b", 2);
        m.add("a", 1);
        m.snapshot(500);
        let v = parse(&m.to_json()).expect("valid json");
        let counters = v
            .get("counters")
            .and_then(|c| c.as_object())
            .expect("counters");
        assert_eq!(counters[0].0, "a", "sorted by name");
        assert_eq!(
            v.get("epochs")
                .and_then(|e| e.as_array())
                .expect("epochs")
                .len(),
            1
        );
    }

    // --- Epoch edge cases ------------------------------------------------

    #[test]
    fn empty_registry_still_snapshots_an_empty_epoch() {
        let mut m = MetricsRegistry::new();
        m.snapshot(1_000);
        assert_eq!(m.epochs().len(), 1);
        let e = &m.epochs()[0];
        assert!(e.counters.is_empty() && e.gauges.is_empty() && e.hists.is_empty());
        // And the export is still a valid document.
        let v = parse(&m.to_json()).expect("valid json");
        assert_eq!(
            v.get("epochs").and_then(|e| e.as_array()).expect("a").len(),
            1
        );
    }

    #[test]
    fn counter_rollover_wraps_across_snapshots_without_panicking() {
        let mut m = MetricsRegistry::new();
        m.add("near_max", u64::MAX - 1);
        m.snapshot(1_000);
        m.add("near_max", 3); // wraps: MAX-1 + 3 ≡ 1 (mod 2^64)
        m.snapshot(2_000);
        assert_eq!(m.epochs()[0].counters[0].1, u64::MAX - 1);
        assert_eq!(m.epochs()[1].counters[0].1, 1, "wrapping add, not panic");
        assert_eq!(m.counter("near_max"), 1);
    }

    #[test]
    fn gauge_last_write_wins_within_an_epoch() {
        // Multiple sets between snapshots: only the final value is
        // visible, matching the engine's "sample at the heartbeat" model.
        let mut m = MetricsRegistry::new();
        m.set("q", 4.0);
        m.set("q", 9.0);
        m.set("q", 2.0);
        m.snapshot(1_000);
        assert_eq!(m.epochs()[0].gauges, vec![("q".to_string(), 2.0)]);
    }

    #[test]
    fn histograms_snapshot_percentiles_per_epoch() {
        let mut m = MetricsRegistry::new();
        for v in [1u64, 2, 2, 3, 100] {
            m.record_hist("lat", v);
        }
        m.snapshot(1_000);
        let (name, s) = &m.epochs()[0].hists[0];
        assert_eq!(name, "lat");
        assert_eq!(s.count, 5);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.max, 64, "lower bound of the bucket holding 100");
        let v = parse(&m.to_json()).expect("valid json");
        assert!(
            v.get("histograms")
                .and_then(|h| h.get("lat"))
                .and_then(|l| l.get("count"))
                .and_then(|c| c.as_f64())
                == Some(5.0)
        );
    }
}

//! What a finished system is summarized as: [`SimReport`], its JSON
//! rendering, and its assembly from the components' final statistics.

use super::{Organization, System};
use crate::profile::ProfileReport;
use crate::sanitize::{Sanitizer, SanitizerReport};
use memnet_common::stats::TrafficMatrix;
use memnet_common::time::{fs_to_ns, Fs};
use memnet_obs::{ClockDomain, JsonWriter, MetricsRegistry, Tracer};

/// Per-GPU digest for detailed reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSummary {
    /// L1 read hit rate.
    pub l1_hit_rate: f64,
    /// L2 read hit rate.
    pub l2_hit_rate: f64,
    /// CTAs retired by this GPU.
    pub ctas_done: u64,
    /// Off-chip memory requests issued.
    pub mem_reqs: u64,
}

/// Results of one simulation run.
///
/// `==` is how tests say two runs agree: it is derived, so a field added
/// here is compared from the day it is added. No float below can be NaN
/// (every rate and mean is 0.0 over an empty denominator).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Organization simulated.
    pub org: Organization,
    /// Workload abbreviation.
    pub workload: String,
    /// Host→device plus device→host copy time, ns (0 for ZC/UMN).
    pub memcpy_ns: f64,
    /// SKE kernel execution time, ns.
    pub kernel_ns: f64,
    /// Host compute time, ns.
    pub host_ns: f64,
    /// Network energy over the whole run, mJ.
    pub energy_mj: f64,
    /// Merged GPU L1 read hit rate.
    pub l1_hit_rate: f64,
    /// Merged GPU L2 read hit rate.
    pub l2_hit_rate: f64,
    /// Mean network packet latency, ns.
    pub avg_pkt_latency_ns: f64,
    /// Mean router-to-router hop count.
    pub avg_hops: f64,
    /// DRAM row-hit rate across all vaults.
    pub row_hit_rate: f64,
    /// Bytes injected per (GPU row; last row = CPU+DMA) × (HMC column).
    pub traffic: TrafficMatrix,
    /// Overlay pass-through forwards taken.
    pub passthrough: u64,
    /// Non-minimal (Valiant) packets under UGAL.
    pub nonminimal: u64,
    /// True if any phase hit its simulation-time budget.
    pub timed_out: bool,
    /// Fault-plan events applied to the live system.
    pub faults_injected: u64,
    /// Fault-plan events dropped because their link class has no
    /// population in this organization.
    pub faults_skipped: u64,
    /// Packets re-pointed onto surviving minimal paths after a link cut.
    pub reroutes: u64,
    /// Extra serialization passes paid on BER-degraded links.
    pub retries: u64,
    /// Packets dead-lettered because no route survived.
    pub dead_letters: u64,
    /// Requests that could not complete over the network and finished
    /// through the fail-fast recovery path (dead-lettered, unroutable at
    /// injection, or addressed to a lost GPU).
    pub failed_requests: u64,
    /// CTAs reassigned from lost GPUs onto survivors.
    pub rebalanced_ctas: u64,
    /// GPUs lost to injected faults.
    pub lost_gpus: u64,
    /// Per-GPU digests (load balance, cache behavior).
    pub per_gpu: Vec<GpuSummary>,
    /// Mean busy fraction of the external network channels.
    pub channel_utilization: f64,
    /// Chrome trace-event JSON, when tracing was enabled with
    /// [`trace`](crate::SimBuilder::trace). Load it in `chrome://tracing`
    /// or Perfetto.
    pub trace_json: Option<String>,
    /// The metrics registry (counters, gauges, histograms, epochs), when
    /// periodic snapshots were enabled with
    /// [`metrics_every`](crate::SimBuilder::metrics_every).
    pub metrics: Option<MetricsRegistry>,
    /// Invariant-audit results, when the runtime sanitizer was enabled
    /// with [`sanitize`](crate::SimBuilder::sanitize) or `MEMNET_SANITIZE`.
    pub sanitizer: Option<SanitizerReport>,
    /// Trace-ring events evicted on overflow (0 without tracing).
    /// Deliberately *not* serialized by [`SimReport::to_json_string`]:
    /// the determinism oracles compare that JSON byte-for-byte and drop
    /// counts depend only on ring capacity, but keeping it out means a
    /// capacity change can never perturb the compared document. The CLI
    /// reads it to warn about lossy traces at export time.
    pub trace_dropped: u64,
}

impl SimReport {
    /// Total runtime (memcpy + kernel + host), ns.
    pub fn total_ns(&self) -> f64 {
        self.memcpy_ns + self.kernel_ns + self.host_ns
    }

    /// Serializes the report as one pretty-printed JSON document.
    ///
    /// Uses `memnet_obs::JsonWriter`, which keeps this struct free of
    /// serde bounds while still escaping strings and mapping non-finite
    /// floats to null. Metrics epochs (when recorded) nest under
    /// `"metrics"` and sanitizer findings under `"sanitizer"`, so stdout
    /// consumers always get a single top-level object.
    pub fn to_json_string(&self) -> String {
        self.render_json(JsonWriter::pretty())
    }

    /// Serializes the same document as [`SimReport::to_json_string`], but
    /// compactly on a single line — required by newline-delimited
    /// protocols (the `memnet serve` daemon frames one JSON document per
    /// line).
    pub fn to_json_compact(&self) -> String {
        self.render_json(JsonWriter::new())
    }

    fn render_json(&self, mut w: JsonWriter) -> String {
        w.begin_object();
        w.field("workload", self.workload.as_str());
        w.field("org", self.org.name());
        w.field("kernel_ns", &self.kernel_ns);
        w.field("memcpy_ns", &self.memcpy_ns);
        w.field("host_ns", &self.host_ns);
        w.field("total_ns", &self.total_ns());
        w.field("energy_mj", &self.energy_mj);
        w.field("l1_hit_rate", &self.l1_hit_rate);
        w.field("l2_hit_rate", &self.l2_hit_rate);
        w.field("avg_pkt_latency_ns", &self.avg_pkt_latency_ns);
        w.field("avg_hops", &self.avg_hops);
        w.field("row_hit_rate", &self.row_hit_rate);
        w.field("timed_out", &self.timed_out);
        w.field("faults_injected", &self.faults_injected);
        w.field("faults_skipped", &self.faults_skipped);
        w.field("reroutes", &self.reroutes);
        w.field("retries", &self.retries);
        w.field("dead_letters", &self.dead_letters);
        w.field("failed_requests", &self.failed_requests);
        w.field("rebalanced_ctas", &self.rebalanced_ctas);
        w.field("lost_gpus", &self.lost_gpus);
        if let Some(s) = &self.sanitizer {
            w.key("sanitizer");
            w.begin_object();
            w.field("checks", &s.checks);
            w.field("clean", &s.is_clean());
            w.field("violations", &s.violations);
            w.field("violations_dropped", &s.dropped);
            w.end_object();
        }
        if let Some(m) = &self.metrics {
            w.field("metrics", m);
        }
        w.end_object();
        w.finish()
    }
}

impl System {
    /// Folds the finished system into its report (and the profile report
    /// when profiling); the three phase totals come from the phase runner.
    pub(super) fn into_report(
        mut self,
        kernel_fs: Fs,
        host_fs: Fs,
        memcpy_fs: Fs,
    ) -> (SimReport, Option<ProfileReport>) {
        let mut l1 = memnet_gpu::CacheStats::default();
        let mut l2 = memnet_gpu::CacheStats::default();
        let mut per_gpu = Vec::with_capacity(self.gpus.len());
        for g in &self.gpus {
            let s = g.stats();
            l1.merge(&s.l1);
            l2.merge(&s.l2);
            per_gpu.push(GpuSummary {
                l1_hit_rate: s.l1.read_hit_rate(),
                l2_hit_rate: s.l2.read_hit_rate(),
                ctas_done: s.ctas_done,
                mem_reqs: s.mem_reqs,
            });
        }
        let mut row_hits = 0u64;
        let mut row_total = 0u64;
        for h in &self.hmcs {
            let s = h.stats();
            row_hits += s.row_hits;
            row_total += s.served;
        }
        let trace_dropped = self.tracer.as_ref().map_or(0, Tracer::dropped);
        let ns = self.cal.clock(ClockDomain::Net as usize).period_fs() as f64 / 1e6;
        let report = SimReport {
            org: self.org,
            workload: self.workload.abbr.clone(),
            memcpy_ns: fs_to_ns(memcpy_fs),
            kernel_ns: fs_to_ns(kernel_fs),
            host_ns: fs_to_ns(host_fs),
            energy_mj: self.net.energy_mj(),
            l1_hit_rate: l1.read_hit_rate(),
            l2_hit_rate: l2.read_hit_rate(),
            avg_pkt_latency_ns: self.net.stats().latency.mean() * ns,
            avg_hops: self.net.stats().hops.mean(),
            row_hit_rate: if row_total == 0 {
                0.0
            } else {
                row_hits as f64 / row_total as f64
            },
            traffic: self.traffic.clone(),
            passthrough: self.net.stats().passthrough,
            nonminimal: self.net.stats().nonminimal,
            timed_out: self.timed_out,
            faults_injected: self.counters.faults_injected,
            faults_skipped: self.faults_skipped,
            reroutes: self.net.stats().reroutes,
            retries: self.net.stats().retries,
            dead_letters: self.net.stats().dead_letters,
            failed_requests: self.counters.failed_requests,
            rebalanced_ctas: self.counters.rebalanced_ctas,
            lost_gpus: self.counters.lost_gpus,
            per_gpu,
            channel_utilization: self.net.channel_utilization(),
            trace_json: self
                .tracer
                .as_ref()
                .map(|t| t.to_chrome_json(self.metrics.as_ref())),
            metrics: self.metrics.take(),
            sanitizer: self.san.take().map(Sanitizer::into_report),
            trace_dropped,
        };
        let prof_report = self.prof.take().map(|p| p.into_report(&self, &report));
        (report, prof_report)
    }
}

//! Full-system simulation: organizations, phases, and the multi-clock
//! engine.
//!
//! A [`SimBuilder`] assembles one of the Table III organizations —
//! PCIe / PCIe-ZC / CMN / CMN-ZC / GMN / GMN-ZC / UMN — around a workload,
//! runs its phases (host pre-compute, H2D memcpy, SKE kernel, D2H memcpy,
//! host post-compute), and produces a [`SimReport`] with the runtime
//! breakdown of Fig. 14 plus network energy, cache statistics, and the
//! GPU×HMC traffic matrix of Fig. 10.
//!
//! Clusters are indexed `0..n_gpus` for GPUs and `n_gpus` for the CPU; HMC
//! global ids are cluster-major (`cluster * hmcs_per_cluster + local`).

use crate::faults::{resolve_plan, FaultAction, FaultOwners, ResolvedFault};
use crate::memory::{MemoryLayout, PlacementPolicy, HOST_BASE};
use crate::profile::{Heatmap, ProfileHist, ProfileReport};
use crate::sanitize::{SanitizeMode, Sanitizer, SanitizerReport};
use crate::ske::{self, CtaPolicy};
use crate::snapshot::SystemSnapshot;
use memnet_common::config::CacheConfig;
use memnet_common::stats::TrafficMatrix;
use memnet_common::time::{fs_to_ns, Fs};
use memnet_common::{
    Agent, Clock, CpuId, FaultPlan, GpuId, MemReq, MemResp, NodeId, Payload, SystemConfig,
};
use memnet_cpu::{CpuCore, CpuStream, DmaEngine};
use memnet_engine::Calendar;
use memnet_gpu::Gpu;
use memnet_hmc::mapping::Location;
use memnet_hmc::HmcDevice;
use memnet_noc::topo::{add_cpu_overlay, add_pcie_tree, build_clusters, SlicedKind, TopologyKind};
use memnet_noc::{LinkSpec, LinkTag, MsgClass, Network, NetworkBuilder, NocParams, RoutingPolicy};
use memnet_obs::metrics::Histogram;
use memnet_obs::prof::{ProfCat, Profiler};
use memnet_obs::{
    ClockDomain, HistSnapshot, JsonWriter, MetricSink, MetricsRegistry, ToJson, TraceEventKind,
    Tracer,
};
use memnet_workloads::{HostWork, WorkloadSpec};
use std::collections::VecDeque;

/// The multi-GPU system organizations of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Organization {
    /// Conventional PCIe interconnect, explicit memcpy.
    Pcie,
    /// PCIe with zero-copy (data stays in CPU memory).
    PcieZc,
    /// CPU memory network, explicit memcpy.
    Cmn,
    /// CPU memory network with zero-copy.
    CmnZc,
    /// GPU memory network, explicit memcpy (CPU still behind PCIe).
    Gmn,
    /// GPU memory network with zero-copy.
    GmnZc,
    /// Unified memory network: CPU and GPU HMCs share one network; no
    /// copies at all.
    Umn,
    /// NVLink-style processor-centric network (Fig. 1(b)): GPUs and the
    /// CPU are fully interconnected with high-speed point-to-point links,
    /// but memories stay behind their owner — remote accesses still route
    /// through the remote GPU. Not part of Table III; included as the
    /// modern PCN baseline the paper contrasts against (Section II-B).
    Pcn,
}

impl Organization {
    /// All seven configurations in Fig. 14 order.
    pub fn all() -> [Organization; 7] {
        use Organization::*;
        [Pcie, PcieZc, Cmn, CmnZc, Gmn, GmnZc, Umn]
    }

    /// Display name matching Table III.
    pub fn name(self) -> &'static str {
        match self {
            Organization::Pcie => "PCIe",
            Organization::PcieZc => "PCIe-ZC",
            Organization::Cmn => "CMN",
            Organization::CmnZc => "CMN-ZC",
            Organization::Gmn => "GMN",
            Organization::GmnZc => "GMN-ZC",
            Organization::Umn => "UMN",
            Organization::Pcn => "PCN",
        }
    }

    /// Table III plus the NVLink-style PCN baseline.
    pub fn all_extended() -> [Organization; 8] {
        use Organization::*;
        [Pcie, PcieZc, Cmn, CmnZc, Gmn, GmnZc, Umn, Pcn]
    }

    /// True if data is staged with explicit memcpy.
    pub fn uses_memcpy(self) -> bool {
        matches!(
            self,
            Organization::Pcie | Organization::Cmn | Organization::Gmn | Organization::Pcn
        )
    }

    /// True if kernels access data resident in CPU memory (zero-copy).
    pub fn zero_copy(self) -> bool {
        matches!(
            self,
            Organization::PcieZc | Organization::CmnZc | Organization::GmnZc
        )
    }
}

/// How the engine advances simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Tick every clock domain at every one of its edges, idle or not —
    /// the original engine behavior. Wall-clock cost scales with
    /// simulated time.
    CycleStepped,
    /// Park clock domains whose components report idle and fast-forward
    /// their clocks when work arrives, so quiescent stretches cost
    /// O(events) instead of O(cycles). Produces bit-identical
    /// [`SimReport`]s (and trace/metric streams) to `CycleStepped`.
    #[default]
    EventDriven,
}

impl EngineMode {
    /// Display name (`"cycle-stepped"` / `"event-driven"`).
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::CycleStepped => "cycle-stepped",
            EngineMode::EventDriven => "event-driven",
        }
    }

    /// Parses an engine name: `cycle`/`cycle-stepped` or
    /// `event`/`event-driven`, in any case.
    pub fn parse(s: &str) -> Option<EngineMode> {
        let is = |name: &str| s.eq_ignore_ascii_case(name);
        if is("cycle") || is("cycle-stepped") {
            Some(EngineMode::CycleStepped)
        } else if is("event") || is("event-driven") {
            Some(EngineMode::EventDriven)
        } else {
            None
        }
    }

    /// The mode the `MEMNET_ENGINE` environment variable selects, so CI
    /// can run whole test suites under either engine; unset or empty
    /// means the default. A value that names no engine is an error, not
    /// the default: a typo must not quietly test the other engine. Only
    /// builders without an explicit [`SimBuilder::engine`] call consult
    /// it.
    pub fn from_env() -> Result<EngineMode, SimError> {
        match std::env::var_os("MEMNET_ENGINE") {
            Some(v) => EngineMode::from_env_value(&v.to_string_lossy()),
            None => Ok(EngineMode::default()),
        }
    }

    /// [`EngineMode::from_env`] on the variable's value.
    pub fn from_env_value(value: &str) -> Result<EngineMode, SimError> {
        if value.is_empty() {
            return Ok(EngineMode::default());
        }
        EngineMode::parse(value).ok_or_else(|| {
            SimError::InvalidConfig(format!(
                "MEMNET_ENGINE='{value}' names no engine (accepted: cycle, cycle-stepped, \
                 event, event-driven)"
            ))
        })
    }
}

/// Why a simulation could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The [`SystemConfig`] failed validation.
    InvalidConfig(String),
    /// [`SimBuilder::workload`] was never called.
    MissingWorkload,
    /// A checkpoint could not be taken (timed-out warmup) or restored
    /// (configuration fingerprint mismatch, malformed snapshot).
    Snapshot(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidConfig(why) => write!(f, "invalid system configuration: {why}"),
            SimError::MissingWorkload => write!(f, "SimBuilder requires a workload"),
            SimError::Snapshot(why) => write!(f, "snapshot error: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-GPU digest for detailed reporting.
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone)]
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
    /// [`SimBuilder::trace`]. Load it in `chrome://tracing` or Perfetto.
    pub trace_json: Option<String>,
    /// Metrics-registry JSON (counters, gauges, epochs), when periodic
    /// snapshots were enabled with [`SimBuilder::metrics_every`].
    pub metrics_json: Option<String>,
    /// Invariant-audit results, when the runtime sanitizer was enabled
    /// with [`SimBuilder::sanitize`] or `MEMNET_SANITIZE`.
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
            w.key("violations");
            w.begin_array();
            for v in &s.violations {
                w.value(v.as_str());
            }
            w.end_array();
            w.field("violations_dropped", &s.dropped);
            w.end_object();
        }
        if let Some(m) = &self.metrics_json {
            if let Ok(v) = memnet_obs::parse(m) {
                w.key("metrics");
                w.value(&v);
            }
        }
        w.end_object();
        w.finish()
    }
}

/// Builds and runs one full-system simulation.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    cfg: SystemConfig,
    org: Organization,
    topology: TopologyKind,
    routing: RoutingPolicy,
    overlay: bool,
    cta_policy: CtaPolicy,
    workload: Option<WorkloadSpec>,
    data_clusters: Option<Vec<u32>>,
    active_gpus: Option<u32>,
    phase_budget_ns: f64,
    placement: PlacementPolicy,
    co_workloads: Vec<WorkloadSpec>,
    trace_capacity: Option<usize>,
    metrics_every: Option<u64>,
    /// `None` until [`SimBuilder::engine`]: `MEMNET_ENGINE` then decides.
    engine_mode: Option<EngineMode>,
    trace_engine: bool,
    faults: FaultPlan,
    sanitize: SanitizeMode,
    profile: bool,
}

impl SimBuilder {
    /// Starts a builder for `org` with the scaled default configuration.
    pub fn new(org: Organization) -> Self {
        SimBuilder {
            cfg: SystemConfig::scaled(),
            org,
            topology: TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false,
            },
            routing: RoutingPolicy::Minimal,
            overlay: false,
            cta_policy: CtaPolicy::StaticChunk,
            workload: None,
            data_clusters: None,
            active_gpus: None,
            phase_budget_ns: 3_000_000.0,
            placement: PlacementPolicy::Random,
            co_workloads: Vec::new(),
            trace_capacity: None,
            metrics_every: None,
            engine_mode: None,
            trace_engine: false,
            faults: FaultPlan::new(),
            sanitize: SanitizeMode::from_env(),
            profile: false,
        }
    }

    /// Enables the self-profiler: wall-clock attribution per clock
    /// domain, per-phase allocation deltas, latency/occupancy histograms
    /// and utilization heatmaps, returned as the [`ProfileReport`] half
    /// of [`SimBuilder::try_run_profiled`]. The profiler observes the
    /// driver loop from outside simulation state, so the [`SimReport`]
    /// stays byte-identical with profiling on or off.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Enables the runtime invariant sanitizer (default: resolved from
    /// `MEMNET_SANITIZE` — see [`SanitizeMode::from_env`]). Conservation
    /// laws are audited at domain edges while the simulation runs and the
    /// findings land in [`SimReport::sanitizer`]; [`SanitizeMode::Fatal`]
    /// panics at the end of a run that violated any invariant.
    pub fn sanitize(mut self, mode: SanitizeMode) -> Self {
        self.sanitize = mode;
        self
    }

    /// Installs a deterministic fault plan. Events resolve against the
    /// built system and apply on owning-domain clock edges, so the same
    /// plan yields bit-identical reports under both [`EngineMode`]s.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The installed fault plan (empty by default), so a caller can add
    /// events to what an earlier layer installed instead of replacing it.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Selects how the engine advances time (default:
    /// [`EngineMode::from_env`]). Both modes produce bit-identical
    /// reports; `CycleStepped` exists as the reference for equivalence
    /// tests and wall-clock baselines.
    pub fn engine(mut self, mode: EngineMode) -> Self {
        self.engine_mode = Some(mode);
        self
    }

    /// Also records engine scheduling events (domain wakes with their
    /// skipped-edge counts) into the trace. Off by default so traces stay
    /// identical across [`EngineMode`]s; requires [`SimBuilder::trace`].
    pub fn trace_engine(mut self, on: bool) -> Self {
        self.trace_engine = on;
        self
    }

    /// Enables event tracing into a ring buffer of `capacity` events; the
    /// report then carries the Chrome trace JSON in
    /// [`SimReport::trace_json`]. Oldest events are dropped on overflow.
    ///
    /// # Panics
    ///
    /// Panics (at `run`) if `capacity` is zero.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Snapshots every counter and gauge into a metrics epoch once per
    /// `cycles` network cycles; the report then carries the registry JSON
    /// in [`SimReport::metrics_json`]. A zero period disables snapshots.
    pub fn metrics_every(mut self, cycles: u64) -> Self {
        self.metrics_every = Some(cycles);
        self
    }

    /// Adds a workload to run *concurrently* with the primary one
    /// (concurrent kernel execution — the SKE extension of Section III).
    /// Each co-workload gets a disjoint region of the shared address space
    /// and its CTAs interleave with the primary kernel's on every GPU.
    ///
    /// # Panics
    ///
    /// Panics (at `run`) if a co-workload has host compute phases; only the
    /// primary workload's host phases execute.
    pub fn co_workload(mut self, w: WorkloadSpec) -> Self {
        self.co_workloads.push(w);
        self
    }

    /// Sets the page placement policy (ablation of the Section VI-A
    /// random-placement assumption).
    pub fn placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    /// Replaces the whole system configuration.
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the number of GPUs.
    pub fn gpus(mut self, n: u32) -> Self {
        self.cfg.n_gpus = n;
        self
    }

    /// Sets SMs per GPU.
    pub fn sms_per_gpu(mut self, n: u32) -> Self {
        self.cfg.gpu.n_sms = n;
        self
    }

    /// Sets the workload (required).
    pub fn workload(mut self, w: WorkloadSpec) -> Self {
        self.workload = Some(w);
        self
    }

    /// Sets the memory-network topology (GMN/UMN organizations).
    pub fn topology(mut self, t: TopologyKind) -> Self {
        self.topology = t;
        self
    }

    /// Sets the routing policy.
    pub fn routing(mut self, r: RoutingPolicy) -> Self {
        self.routing = r;
        self
    }

    /// Enables the CPU overlay network (UMN with FBFLY slices only).
    pub fn overlay(mut self, on: bool) -> Self {
        self.overlay = on;
        self
    }

    /// Sets the CTA assignment policy.
    pub fn cta_policy(mut self, p: CtaPolicy) -> Self {
        self.cta_policy = p;
        self
    }

    /// Restricts device-data placement to the given GPU clusters (Fig. 7).
    pub fn data_clusters(mut self, clusters: Vec<u32>) -> Self {
        self.data_clusters = Some(clusters);
        self
    }

    /// Runs the kernel on only the first `n` GPUs (Fig. 7 uses 1).
    pub fn active_gpus(mut self, n: u32) -> Self {
        self.active_gpus = Some(n);
        self
    }

    /// Sets the per-phase simulated-time budget in nanoseconds.
    pub fn phase_budget_ns(mut self, ns: f64) -> Self {
        self.phase_budget_ns = ns;
        self
    }

    /// Builds the system and runs every phase.
    ///
    /// # Panics
    ///
    /// Panics if no workload was set or the configuration is invalid.
    /// Use [`SimBuilder::try_run`] for a typed error instead.
    pub fn run(self) -> SimReport {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the system and runs every phase, returning a typed error
    /// instead of panicking when the builder is unusable.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingWorkload`] when no workload was set,
    /// [`SimError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn try_run(self) -> Result<SimReport, SimError> {
        Ok(System::try_build(self)?.run())
    }

    /// Like [`SimBuilder::try_run`], but also returns the
    /// [`ProfileReport`] when [`SimBuilder::profile`] was enabled.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimBuilder::try_run`].
    pub fn try_run_profiled(self) -> Result<(SimReport, Option<ProfileReport>), SimError> {
        Ok(System::try_build(self)?.run_profiled())
    }

    /// Like [`SimBuilder::try_run`], but also captures a deterministic
    /// full-state checkpoint at the pre-kernel phase boundary (after
    /// host-pre compute and the host→device copies, before the first
    /// kernel cycle). The snapshot restores bit-identically under either
    /// [`EngineMode`] via [`SimBuilder::try_run_restored`], so sweeps
    /// sharing a warmup prefix can fork from one snapshot.
    ///
    /// `meta` is an opaque caller string carried verbatim inside the
    /// snapshot (the CLI stores the original run flags there).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimBuilder::try_run`], plus
    /// [`SimError::Snapshot`] when the warmup prefix hit the phase budget
    /// — a timed-out prefix is not a meaningful fork point.
    pub fn try_run_checkpointed(self, meta: &str) -> Result<(SimReport, SystemSnapshot), SimError> {
        let fp = self.fingerprint();
        System::try_build(self)?.run_checkpointed(meta, fp)
    }

    /// Skips the warmup prefix and runs the rest of the simulation from a
    /// snapshot taken by [`SimBuilder::try_run_checkpointed`] on an
    /// identically configured builder. The engine mode and the pure
    /// observers (trace, metrics, profile, sanitize) may differ from the
    /// checkpointing run; everything else must match.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimBuilder::try_run`], plus
    /// [`SimError::Snapshot`] when the snapshot's configuration
    /// fingerprint does not match this builder, or when one of its arrays
    /// does not have the length this configuration's state has (the
    /// message names the field).
    pub fn try_run_restored(self, snap: &SystemSnapshot) -> Result<SimReport, SimError> {
        let fp = self.fingerprint();
        if snap.fingerprint() != fp {
            return Err(SimError::Snapshot(format!(
                "snapshot fingerprint {:016x} does not match this configuration ({fp:016x}); \
                 a snapshot restores only onto the exact configuration that took it \
                 (engine mode and observability settings excepted)",
                snap.fingerprint(),
            )));
        }
        let mut sys = System::try_build(self)?;
        // Every shape is checked here, once, before anything is applied;
        // the `restore_state` asserts downstream stay as invariants.
        sys.check_snapshot(snap).map_err(SimError::Snapshot)?;
        sys.apply_snapshot(snap);
        Ok(sys.run_from_snapshot_point(snap.host_fs, snap.memcpy_fs).0)
    }

    /// Content-address of everything that determines simulated outcomes:
    /// an FNV-1a hash (SplitMix64-finalized) of
    /// [`SimBuilder::canonical_string`]. The engine mode and the pure
    /// observers (trace, metrics, profile, sanitize) are excluded —
    /// reports are bit-identical across engine modes, so snapshots and
    /// cached results are shareable across them.
    pub fn fingerprint(&self) -> u64 {
        crate::snapshot::fnv1a64(self.canonical_string().as_bytes())
    }

    /// The canonical configuration string behind
    /// [`SimBuilder::fingerprint`]: every outcome-determining knob in a
    /// fixed order, with floats rendered as IEEE-754 bit patterns so two
    /// builders collide exactly when they simulate the same system.
    pub fn canonical_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "org={};", self.org.name());
        let _ = write!(s, "cfg={};", self.cfg.to_json());
        let _ = write!(
            s,
            "topology={:?};routing={:?};overlay={};",
            self.topology, self.routing, self.overlay
        );
        let _ = write!(
            s,
            "cta_policy={:?};placement={:?};",
            self.cta_policy, self.placement
        );
        let _ = write!(s, "workload={:?};", self.workload);
        let _ = write!(s, "co={:?};", self.co_workloads);
        let _ = write!(
            s,
            "data_clusters={:?};active_gpus={:?};",
            self.data_clusters, self.active_gpus
        );
        let _ = write!(s, "phase_budget_bits={};", self.phase_budget_ns.to_bits());
        let _ = write!(s, "faults={};", crate::faults::plan_to_json(&self.faults));
        s
    }
}

/// Clock-domain indices in intra-timestep tick (priority) order. A domain
/// earlier in this order ticks first within one timestep, which decides
/// whether work it produces is visible to a later domain at the *same*
/// timestep (it is) or only at the consumer's next edge (work flowing
/// "backwards" to an earlier domain).
mod domain {
    pub const CORE: usize = 0;
    pub const L2: usize = 1;
    pub const CPU: usize = 2;
    pub const NET: usize = 3;
    pub const DRAM: usize = 4;
    pub const COUNT: usize = 5;

    pub fn name(d: usize) -> &'static str {
        ["core", "l2", "cpu", "net", "dram"][d]
    }
}

/// Profiling state owned by the engine driver, fully outside simulation
/// state. The [`Profiler`] is written only from the driver loop
/// ([`System::advance`], [`System::apply_skip`], [`System::emit_phase`]);
/// the histograms record values the simulation already computed
/// (latencies, queue depths) without feeding anything back, so enabling
/// profiling cannot change a single simulated outcome.
struct ProfPack {
    profiler: Profiler,
    /// Packet injection-to-ejection latency, network cycles.
    lat_hist: Histogram,
    /// Router input-VC occupancy, flits, sampled every
    /// [`ProfPack::sample_every`] network cycles.
    vc_hist: Histogram,
    /// Vault controller queue depth, requests, same cadence.
    vault_hist: Histogram,
    /// Network cycle at which the next occupancy sample is due.
    next_sample: u64,
    /// Network cycles between occupancy samples.
    sample_every: u64,
}

impl ProfPack {
    /// Default occupancy-sampling cadence, network cycles.
    const SAMPLE_EVERY: u64 = 1_000;

    fn new(sample_every: u64) -> Self {
        ProfPack {
            profiler: Profiler::new(),
            lat_hist: Histogram::default(),
            vc_hist: Histogram::default(),
            vault_hist: Histogram::default(),
            next_sample: sample_every,
            sample_every,
        }
    }
}

/// Per-HMC state the engine keeps outside the device model.
#[derive(Debug, Default)]
struct HmcPort {
    /// Request popped from the network but rejected by a full vault queue.
    deferred: Option<(memnet_common::MemReq, Location)>,
    /// Completed responses awaiting network injection.
    resp_q: VecDeque<MemResp>,
}

struct System {
    cfg: SystemConfig,
    org: Organization,
    workload: WorkloadSpec,
    co_workloads: Vec<(WorkloadSpec, u64)>,
    cta_policy: CtaPolicy,
    active_gpus: u32,
    use_overlay: bool,
    phase_budget: Fs,

    net: Network,
    gpus: Vec<Gpu>,
    gpu_eps: Vec<NodeId>,
    cpu: CpuCore,
    dma: DmaEngine,
    cpu_ep: NodeId,
    hmcs: Vec<HmcDevice>,
    hmc_eps: Vec<NodeId>,
    hmc_ports: Vec<HmcPort>,
    layout: MemoryLayout,

    /// Clock domains indexed by the [`domain`] constants.
    cal: Calendar,
    /// True when idle domains may be parked ([`EngineMode::EventDriven`]).
    park: bool,
    /// How this system advances time (the profile report's engine label).
    engine_mode: EngineMode,
    /// Record engine wake events into the trace.
    trace_engine: bool,
    now: Fs,

    traffic: TrafficMatrix,
    timed_out: bool,

    /// Pending resolved faults per owning clock domain, each queue sorted
    /// by edge time (ties in plan order).
    fault_q: [VecDeque<ResolvedFault>; domain::COUNT],
    faults_injected: u64,
    faults_skipped: u64,
    failed_requests: u64,
    rebalanced_ctas: u64,
    lost_gpus: u64,

    tracer: Option<Tracer>,
    /// Runtime invariant auditor; `None` unless sanitizing.
    san: Option<Sanitizer>,
    metrics: Option<MetricsRegistry>,
    /// Driver-loop profiling state; `None` unless profiling.
    prof: Option<ProfPack>,
    /// Network cycles between metrics epochs; 0 disables snapshots.
    metrics_every: u64,
    /// Network cycle at which the next epoch is due.
    next_epoch: u64,
    steal_events: u64,
}

impl System {
    fn try_build(b: SimBuilder) -> Result<System, SimError> {
        let cfg = b.cfg.clone();
        cfg.validate().map_err(SimError::InvalidConfig)?;
        let workload = b.workload.clone().ok_or(SimError::MissingWorkload)?;
        let engine_mode = match b.engine_mode {
            Some(mode) => mode,
            None => EngineMode::from_env()?,
        };
        let n_gpus = cfg.n_gpus as usize;
        let local = cfg.hmcs_per_gpu as usize;
        let cpu_cluster = n_gpus as u32;

        let mut params = NocParams::from_config(&cfg.noc);
        params.seed = cfg.seed;
        let mut nb = NetworkBuilder::new(params);
        nb.routing(b.routing);

        // Build the graph per organization.
        let (gpu_eps, cpu_ep, hmc_eps) = match b.org {
            Organization::Umn => {
                // All clusters (GPUs first, CPU last) in one memory network.
                let c = build_clusters(
                    &mut nb,
                    n_gpus + 1,
                    local,
                    cfg.noc.channels_per_device,
                    b.topology,
                );
                if b.overlay {
                    add_cpu_overlay(&mut nb, &c, n_gpus);
                }
                let gpu_eps = c.device_eps[..n_gpus].to_vec();
                let cpu_ep = c.device_eps[n_gpus];
                (gpu_eps, cpu_ep, c.hmc_eps_flat())
            }
            Organization::Pcie | Organization::PcieZc | Organization::Gmn | Organization::GmnZc => {
                let gpu_topo = match b.org {
                    Organization::Gmn | Organization::GmnZc => b.topology,
                    _ => TopologyKind::Isolated,
                };
                let g = build_clusters(
                    &mut nb,
                    n_gpus,
                    local,
                    cfg.noc.channels_per_device,
                    gpu_topo,
                );
                let c = build_clusters(
                    &mut nb,
                    1,
                    local,
                    cfg.noc.channels_per_device,
                    TopologyKind::Isolated,
                );
                let mut devs = g.device_routers.clone();
                devs.push(c.device_routers[0]);
                let _switch = add_pcie_tree(&mut nb, &devs, cfg.pcie.latency_ns);
                let mut hmc_eps = g.hmc_eps_flat();
                hmc_eps.extend(c.hmc_eps_flat());
                (g.device_eps.clone(), c.device_eps[0], hmc_eps)
            }
            Organization::Pcn => {
                // Processor-centric network: every device pair gets a
                // direct NVLink-class channel; memories remain local.
                let g = build_clusters(
                    &mut nb,
                    n_gpus,
                    local,
                    cfg.noc.channels_per_device,
                    TopologyKind::Isolated,
                );
                let c = build_clusters(
                    &mut nb,
                    1,
                    local,
                    cfg.noc.channels_per_device,
                    TopologyKind::Isolated,
                );
                let mut devs = g.device_routers.clone();
                devs.push(c.device_routers[0]);
                for i in 0..devs.len() {
                    for j in i + 1..devs.len() {
                        nb.link(devs[i], devs[j], LinkSpec::hmc_channel(), LinkTag::Nvlink);
                    }
                }
                let mut hmc_eps = g.hmc_eps_flat();
                hmc_eps.extend(c.hmc_eps_flat());
                (g.device_eps.clone(), c.device_eps[0], hmc_eps)
            }
            Organization::Cmn | Organization::CmnZc => {
                let g = build_clusters(
                    &mut nb,
                    n_gpus,
                    local,
                    cfg.noc.channels_per_device,
                    TopologyKind::Isolated,
                );
                let c = build_clusters(
                    &mut nb,
                    1,
                    local,
                    cfg.noc.channels_per_device,
                    TopologyKind::Isolated,
                );
                // The CPU's HMCs form the memory network (fully connected),
                // and each GPU taps into it with two channels — replacing
                // the PCIe interface (Fig. 8(a)).
                let cpu_hmcs = &c.hmc_routers[0];
                for i in 0..cpu_hmcs.len() {
                    for j in i + 1..cpu_hmcs.len() {
                        nb.link(
                            cpu_hmcs[i],
                            cpu_hmcs[j],
                            LinkSpec::hmc_channel(),
                            LinkTag::HmcHmc,
                        );
                    }
                }
                for (gi, &gr) in g.device_routers.iter().enumerate() {
                    nb.link(
                        gr,
                        cpu_hmcs[gi % cpu_hmcs.len()],
                        LinkSpec::hmc_channel(),
                        LinkTag::DeviceHmc,
                    );
                    nb.link(
                        gr,
                        cpu_hmcs[(gi + 1) % cpu_hmcs.len()],
                        LinkSpec::hmc_channel(),
                        LinkTag::DeviceHmc,
                    );
                }
                let mut hmc_eps = g.hmc_eps_flat();
                hmc_eps.extend(c.hmc_eps_flat());
                (g.device_eps.clone(), c.device_eps[0], hmc_eps)
            }
        };
        let net = nb.build();

        // Memory layout: regions per data-residency policy. Co-workloads
        // stack above the primary footprint at page-aligned bases.
        let mut co_workloads: Vec<(WorkloadSpec, u64)> = Vec::new();
        let mut next_base = workload
            .footprint_bytes()
            .max(4096)
            .div_ceil(cfg.page_bytes)
            * cfg.page_bytes;
        for w in &b.co_workloads {
            assert!(
                w.host_pre.is_none() && w.host_post.is_none(),
                "co-workloads cannot have host compute phases"
            );
            co_workloads.push((w.clone(), next_base));
            next_base += w.footprint_bytes().max(4096).div_ceil(cfg.page_bytes) * cfg.page_bytes;
        }
        let fp = next_base.max(4096);
        let mut layout = MemoryLayout::new(&cfg, cpu_cluster + 1);
        layout.set_policy(b.placement);
        let device_clusters: Vec<u32> = match b.org {
            Organization::PcieZc | Organization::CmnZc | Organization::GmnZc => vec![cpu_cluster],
            Organization::Umn => (0..=cpu_cluster).collect(),
            _ => b
                .data_clusters
                .clone()
                .unwrap_or_else(|| (0..cpu_cluster).collect()),
        };
        layout.add_region(0, fp, &device_clusters);
        layout.add_region(HOST_BASE, fp, &[cpu_cluster]);

        let gpus: Vec<Gpu> = (0..n_gpus)
            .map(|g| Gpu::new(GpuId(g as u16), &cfg.gpu))
            .collect();
        let hmcs: Vec<HmcDevice> = (0..hmc_eps.len())
            .map(|_| HmcDevice::new(&cfg.hmc))
            .collect();
        let hmc_ports = (0..hmc_eps.len()).map(|_| HmcPort::default()).collect();
        let traffic = TrafficMatrix::new(n_gpus + 1, hmc_eps.len());

        let clk_core = Clock::from_freq_mhz(cfg.gpu.core_mhz);
        let clk_l2 = Clock::from_freq_mhz(cfg.gpu.l2_mhz);
        let clk_cpu = Clock::from_freq_mhz(cfg.cpu.freq_mhz);
        let clk_net = Clock::from_freq_mhz(cfg.noc.router_mhz);
        let clk_dram = Clock::new(memnet_common::time::ns_to_fs(cfg.hmc.tck_ns));
        let tracer = b.trace_capacity.map(|cap| {
            let mut t = Tracer::new(cap);
            t.set_clock(ClockDomain::Core, clk_core.period_fs() as f64);
            t.set_clock(ClockDomain::L2, clk_l2.period_fs() as f64);
            t.set_clock(ClockDomain::Cpu, clk_cpu.period_fs() as f64);
            t.set_clock(ClockDomain::Net, clk_net.period_fs() as f64);
            t.set_clock(ClockDomain::Dram, clk_dram.period_fs() as f64);
            t
        });
        let metrics_every = b.metrics_every.unwrap_or(0);

        // Pin every fault-plan event to the first clock edge of its
        // owning domain at or after its timestamp — pure clock
        // arithmetic, identical under both engine modes.
        let periods = [
            clk_core.period_fs(),
            clk_l2.period_fs(),
            clk_cpu.period_fs(),
            clk_net.period_fs(),
            clk_dram.period_fs(),
        ];
        let (resolved, faults_skipped) = resolve_plan(
            &b.faults,
            &net,
            hmc_eps.len(),
            n_gpus,
            FaultOwners {
                net: domain::NET,
                dram: domain::DRAM,
                core: domain::CORE,
            },
            &periods,
        );
        let mut fault_q: [VecDeque<ResolvedFault>; domain::COUNT] = Default::default();
        for f in resolved {
            fault_q[f.owner].push_back(f);
        }

        Ok(System {
            active_gpus: b.active_gpus.unwrap_or(cfg.n_gpus).min(cfg.n_gpus),
            use_overlay: b.overlay,
            phase_budget: (b.phase_budget_ns * 1e6) as Fs,
            cpu: CpuCore::new(CpuId(0), &cfg.cpu),
            dma: DmaEngine::new(CpuId(0), 32),
            // Domain order must match the `domain` constants.
            cal: Calendar::new(vec![clk_core, clk_l2, clk_cpu, clk_net, clk_dram]),
            park: engine_mode == EngineMode::EventDriven,
            engine_mode,
            trace_engine: b.trace_engine,
            now: 0,
            timed_out: false,
            fault_q,
            faults_injected: 0,
            faults_skipped,
            failed_requests: 0,
            rebalanced_ctas: 0,
            lost_gpus: 0,
            tracer,
            san: b
                .sanitize
                .enabled()
                .then(|| Sanitizer::new(b.sanitize == SanitizeMode::Fatal)),
            metrics: (metrics_every > 0).then(MetricsRegistry::new),
            prof: b.profile.then(|| {
                ProfPack::new(if metrics_every > 0 {
                    metrics_every
                } else {
                    ProfPack::SAMPLE_EVERY
                })
            }),
            metrics_every,
            next_epoch: metrics_every,
            steal_events: 0,
            cta_policy: b.cta_policy,
            org: b.org,
            workload,
            co_workloads,
            cfg,
            net,
            gpus,
            gpu_eps,
            cpu_ep,
            hmcs,
            hmc_eps,
            hmc_ports,
            layout,
            traffic,
        })
    }

    fn run(self) -> SimReport {
        self.run_profiled().0
    }

    fn run_profiled(mut self) -> (SimReport, Option<ProfileReport>) {
        let (host_fs, memcpy_fs) = self.run_warmup();
        self.run_from_snapshot_point(host_fs, memcpy_fs)
    }

    /// Runs the pre-kernel prefix — host-pre compute plus the host→device
    /// copies (including co-workload staging) — and returns the elapsed
    /// `(host_fs, memcpy_fs)`. Ends at the quiescent pre-kernel phase
    /// boundary, which is also the checkpoint point.
    fn run_warmup(&mut self) -> (Fs, Fs) {
        let w = self.workload.clone();
        let mut host_fs: Fs = 0;
        let mut memcpy_fs: Fs = 0;

        let co = self.co_workloads.clone();
        if let Some(pre) = w.host_pre {
            let t0 = self.now;
            host_fs += self.run_host_phase(&pre);
            self.emit_phase("host-pre", t0);
        }
        if self.org.uses_memcpy() {
            let t0 = self.now;
            memcpy_fs += self.run_memcpy_phase(HOST_BASE, 0, w.h2d_bytes);
            for (cw, base) in &co {
                memcpy_fs += self.run_memcpy_phase(HOST_BASE + base, *base, cw.h2d_bytes);
            }
            self.emit_phase("memcpy-h2d", t0);
        }
        (host_fs, memcpy_fs)
    }

    /// Runs everything after the pre-kernel boundary: the SKE kernel, the
    /// device→host copies, host-post compute, end-of-run normalization and
    /// report assembly. `host_fs`/`memcpy_fs` carry the warmup phase times
    /// (from [`System::run_warmup`] or a restored snapshot).
    fn run_from_snapshot_point(
        mut self,
        host_fs: Fs,
        memcpy_fs: Fs,
    ) -> (SimReport, Option<ProfileReport>) {
        let w = self.workload.clone();
        let co = self.co_workloads.clone();
        let mut host_fs = host_fs;
        let mut memcpy_fs = memcpy_fs;
        let t0 = self.now;
        let kernel_fs = self.run_kernel_phase();
        self.emit_phase("kernel", t0);
        if self.org.uses_memcpy() {
            let t0 = self.now;
            if w.d2h_bytes > 0 {
                let wbase = w.kernel.shared_bytes + w.kernel.read_bytes;
                memcpy_fs += self.run_memcpy_phase(wbase, HOST_BASE + wbase, w.d2h_bytes);
            }
            for (cw, base) in &co {
                if cw.d2h_bytes > 0 {
                    let wbase = base + cw.kernel.shared_bytes + cw.kernel.read_bytes;
                    memcpy_fs += self.run_memcpy_phase(wbase, HOST_BASE + wbase, cw.d2h_bytes);
                }
            }
            self.emit_phase("memcpy-d2h", t0);
        }
        if let Some(post) = w.host_post {
            let t0 = self.now;
            host_fs += self.run_host_phase(&post);
            self.emit_phase("host-post", t0);
        }
        // Domains still parked at the end never saw a wake: bring their
        // clocks (and per-cycle counters — network idle energy and
        // utilization denominators) up to the final timestep, as the
        // cycle-stepped loop would have by ticking through the idle tail.
        self.prof_begin(ProfCat::FastForward);
        for d in 0..domain::COUNT {
            let skipped = self.cal.catch_up_parked(d, self.now);
            self.apply_skip(d, skipped);
        }
        self.prof_end(ProfCat::FastForward);
        self.sanitize_checkpoint("end-of-run");
        if self.metrics.is_some() {
            // Close the run with a final epoch so short runs get at least one.
            self.snapshot_metrics();
        }
        if std::env::var_os("MEMNET_ENGINE_STATS").is_some() {
            let s = self.cal.stats();
            eprintln!(
                "[engine] park={} timesteps={} parks={} wakes={} skipped_edges={}",
                self.park, s.timesteps, s.parks, s.wakes, s.skipped_edges
            );
        }

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
        let prof_report = self.prof.take().map(|pack| {
            let engine = self.engine_mode.name();
            let mut pr = ProfileReport::from_profiler(&pack.profiler, engine);
            pr.hists = vec![
                ProfileHist {
                    name: "net.pkt_latency_cycles",
                    snap: HistSnapshot::of(&pack.lat_hist),
                },
                ProfileHist {
                    name: "net.vc_occupancy_flits",
                    snap: HistSnapshot::of(&pack.vc_hist),
                },
                ProfileHist {
                    name: "hmc.vault_queue_depth",
                    snap: HistSnapshot::of(&pack.vault_hist),
                },
            ];
            pr.net_cycles = self.net.cycle();
            pr.flit_hops = self.net.stats().flit_hops;
            pr.ctas_done = per_gpu.iter().map(|g| g.ctas_done).sum();
            pr.trace_dropped = trace_dropped;
            pr.heatmap = Heatmap {
                routers: self.net.router_utilization(),
                links: self.net.link_utilization(),
            };
            pr
        });
        let ns = self.cal.clock(domain::NET).period_fs() as f64 / 1e6;
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
            faults_injected: self.faults_injected,
            faults_skipped: self.faults_skipped,
            reroutes: self.net.stats().reroutes,
            retries: self.net.stats().retries,
            dead_letters: self.net.stats().dead_letters,
            failed_requests: self.failed_requests,
            rebalanced_ctas: self.rebalanced_ctas,
            lost_gpus: self.lost_gpus,
            per_gpu,
            channel_utilization: self.net.channel_utilization(),
            trace_json: self
                .tracer
                .as_ref()
                .map(|t| t.to_chrome_json(self.metrics.as_ref())),
            metrics_json: self.metrics.as_ref().map(ToJson::to_json_pretty),
            sanitizer: self.san.take().map(Sanitizer::into_report),
            trace_dropped,
        };
        (report, prof_report)
    }

    /// Runs the warmup prefix, captures the pre-kernel snapshot, then
    /// finishes the run normally. The parked clocks are normalized to the
    /// boundary first so the snapshot is a pure function of simulated
    /// time, not of engine parking decisions; skip accounting is additive,
    /// so the report stays bit-identical to an uncheckpointed run (with
    /// [`SimBuilder::trace_engine`] the normalization adds extra
    /// `EngineWake` trace events — engine traces are diagnostics, not part
    /// of the compared document).
    fn run_checkpointed(
        mut self,
        meta: &str,
        fingerprint: u64,
    ) -> Result<(SimReport, SystemSnapshot), SimError> {
        let (host_fs, memcpy_fs) = self.run_warmup();
        if self.timed_out {
            return Err(SimError::Snapshot(
                "warmup prefix hit the phase budget; refusing to checkpoint a timed-out run".into(),
            ));
        }
        self.prof_begin(ProfCat::FastForward);
        for d in 0..domain::COUNT {
            let skipped = self.cal.catch_up_parked(d, self.now);
            self.apply_skip(d, skipped);
        }
        self.prof_end(ProfCat::FastForward);
        let snap = self.take_snapshot(meta, fingerprint, host_fs, memcpy_fs);
        let (report, _prof) = self.run_from_snapshot_point(host_fs, memcpy_fs);
        Ok((report, snap))
    }

    /// Captures the full mutable simulation state at the normalized,
    /// quiescent pre-kernel boundary. Pure observers (tracer, metrics
    /// registry, profiler) are deliberately *not* part of a snapshot: a
    /// restored run starts them fresh, observing only its own suffix.
    fn take_snapshot(
        &self,
        meta: &str,
        fingerprint: u64,
        host_fs: Fs,
        memcpy_fs: Fs,
    ) -> SystemSnapshot {
        SystemSnapshot {
            fingerprint,
            meta: meta.to_string(),
            now: self.now,
            clock_cycles: (0..domain::COUNT)
                .map(|d| self.cal.clock(d).cycles())
                .collect(),
            host_fs,
            memcpy_fs,
            faults_injected: self.faults_injected,
            failed_requests: self.failed_requests,
            rebalanced_ctas: self.rebalanced_ctas,
            lost_gpus: self.lost_gpus,
            steal_events: self.steal_events,
            gpus: self.gpus.iter().map(Gpu::snapshot_state).collect(),
            cpu: self.cpu.snapshot_state(),
            dma: self.dma.snapshot_state(),
            hmcs: self.hmcs.iter().map(HmcDevice::snapshot_state).collect(),
            net: self.net.snapshot_state(),
            memory: self.layout.snapshot_state(),
            traffic_bytes: self.traffic.raw_bytes().to_vec(),
            sanitizer: self.san.as_ref().map(Sanitizer::snapshot_state),
        }
    }

    /// Checks that `s` fits this freshly built system before anything is
    /// applied — a matching fingerprint does not stop a hand-edited file —
    /// so a truncated or padded array is a typed error naming the field
    /// instead of a failed `restore_state` assertion halfway through.
    fn check_snapshot(&self, s: &SystemSnapshot) -> Result<(), String> {
        // Lengths come from what this system already holds; `path` is only
        // formatted for the one field that does not fit.
        fn fit(path: impl std::fmt::Display, got: usize, want: usize) -> Result<(), String> {
            if got == want {
                return Ok(());
            }
            Err(format!(
                "field '{path}' holds {got} entries, this configuration has {want}"
            ))
        }
        let cfg = &self.cfg;
        let ways = |c: &CacheConfig| (c.sets() * u64::from(c.assoc)) as usize;
        let (traffic, clusters) = (self.traffic.raw_bytes().len(), self.layout.clusters());
        let (links, channels) = self.net.state_shape();
        let (vaults, banks) = (cfg.hmc.vaults as usize, cfg.hmc.banks_per_vault as usize);
        fit("clocks", s.clock_cycles.len(), domain::COUNT)?;
        fit("traffic", s.traffic_bytes.len(), traffic)?;
        fit("memory.next_seq", s.memory.next_seq.len(), clusters)?;
        fit("net.link_up", s.net.link_up.len(), links)?;
        fit("net.channels", s.net.channels.len(), channels)?;
        fit("cpu.l1.ways", s.cpu.l1.ways.len(), ways(&cfg.cpu.l1))?;
        fit("cpu.l2.ways", s.cpu.l2.ways.len(), ways(&cfg.cpu.l2))?;
        fit("gpus", s.gpus.len(), self.gpus.len())?;
        for (i, g) in s.gpus.iter().enumerate() {
            let want = ways(&cfg.gpu.l2);
            fit(format_args!("gpus[{i}].l2.ways"), g.l2.ways.len(), want)?;
        }
        fit("hmcs", s.hmcs.len(), self.hmcs.len())?;
        for (i, h) in s.hmcs.iter().enumerate() {
            let stalled = h.stalled_until.len();
            fit(format_args!("hmcs[{i}].stalled_until"), stalled, vaults)?;
            fit(format_args!("hmcs[{i}].vaults"), h.vaults.len(), vaults)?;
            for (j, v) in h.vaults.iter().enumerate() {
                let path = format_args!("hmcs[{i}].vaults[{j}].banks");
                fit(path, v.banks.len(), banks)?;
            }
        }
        // A quiescent fabric owns no packet: every slot is on the free
        // list exactly once.
        let mut free = s.net.free_pids.clone();
        free.sort_unstable();
        let slots = s.net.packet_slots;
        if !free.iter().map(|&p| u64::from(p)).eq(0..slots) {
            return Err(format!(
                "field 'net.free_pids' is not a permutation of the {slots} packet slots"
            ));
        }
        // Every clock was normalized to the boundary: its next edge is the
        // first one after `now`.
        for (d, &cycles) in s.clock_cycles.iter().enumerate() {
            let period = self.cal.clock(d).period_fs();
            let edge = cycles.checked_mul(period);
            if edge.is_none_or(|e| e.abs_diff(s.now) > period) {
                return Err(format!(
                    "field 'clocks[{d}]' is not within one period of 'now'"
                ));
            }
        }
        Ok(())
    }

    /// Overwrites mutable state from a snapshot taken on an identically
    /// configured system (enforced upstream by the fingerprint check).
    /// All clock domains come back armed; in event-driven mode idle
    /// domains tick one no-op edge and re-park, which yields the same
    /// counter end-state as the checkpointing run's bulk skip accounting.
    /// Pending resolved faults whose edge lies at or before the snapshot
    /// instant were already applied by the checkpointing run — their
    /// effects live in the restored component state — so they are dropped
    /// from the queue fronts.
    fn apply_snapshot(&mut self, s: &SystemSnapshot) {
        assert_eq!(
            s.clock_cycles.len(),
            domain::COUNT,
            "clock domain count mismatch on restore"
        );
        assert_eq!(
            s.gpus.len(),
            self.gpus.len(),
            "GPU count mismatch on restore"
        );
        assert_eq!(
            s.hmcs.len(),
            self.hmcs.len(),
            "HMC count mismatch on restore"
        );
        self.now = s.now;
        for d in 0..domain::COUNT {
            self.cal.restore_clock(d, s.clock_cycles[d]);
        }
        for (g, gs) in self.gpus.iter_mut().zip(&s.gpus) {
            g.restore_state(gs);
        }
        self.cpu.restore_state(&s.cpu);
        self.dma.restore_state(&s.dma);
        for (h, hs) in self.hmcs.iter_mut().zip(&s.hmcs) {
            h.restore_state(hs);
        }
        self.net.restore_state(&s.net);
        self.layout.restore_state(&s.memory);
        self.traffic.restore_bytes(&s.traffic_bytes);
        self.faults_injected = s.faults_injected;
        self.failed_requests = s.failed_requests;
        self.rebalanced_ctas = s.rebalanced_ctas;
        self.lost_gpus = s.lost_gpus;
        self.steal_events = s.steal_events;
        for q in &mut self.fault_q {
            while q.front().is_some_and(|f| f.edge_fs <= s.now) {
                q.pop_front();
            }
        }
        // The sanitizer's accumulated audit state carries over only when
        // the restoring run sanitizes too; its totals then match an
        // unbroken sanitized run. A snapshot from a non-sanitized run
        // restores with counters starting at the boundary.
        if let (Some(san), Some(ss)) = (self.san.as_mut(), s.sanitizer.as_ref()) {
            san.restore_state(ss);
        }
        // First epoch lands on the next whole period after the restored
        // network clock, exactly where the checkpointing run would have
        // taken it (`None` when metric snapshots are disabled).
        if let Some(periods) = self.net.cycle().checked_div(self.metrics_every) {
            self.next_epoch = (periods + 1) * self.metrics_every;
        }
    }

    /// Records a phase span from `start` to now (no-op without a tracer)
    /// and a profiler phase mark (no-op unless profiling).
    fn emit_phase(&mut self, name: &'static str, start: Fs) {
        let (now, tracer) = (self.now, self.tracer.as_mut());
        if let Some(t) = tracer {
            t.emit_fs(start, now - start, TraceEventKind::Phase { name });
        }
        if let Some(p) = self.prof.as_mut() {
            p.profiler.phase_mark(name);
        }
    }

    /// Full structural audit at a phase boundary: fabric credit and packet
    /// conservation plus calendar edge alignment. The only place the
    /// sanitizer's check counter advances — phase boundaries are reached
    /// identically under both [`EngineMode`]s, so clean reports stay
    /// bit-identical across engines (per-tick audit *counts* would not be:
    /// the event-driven engine skips idle ticks).
    fn sanitize_checkpoint(&mut self, phase: &'static str) {
        let Some(mut s) = self.san.take() else {
            return;
        };
        s.checkpoint();
        let mut found: Vec<String> = self
            .net
            .audit()
            .into_iter()
            .map(|v| format!("{phase}: net: {v}"))
            .collect();
        for d in self.cal.misaligned() {
            found.push(format!(
                "{phase}: clock domain {} fell off its edge grid (next_fs != cycles * period_fs)",
                domain::name(d)
            ));
        }
        for v in found {
            let (now, tracer) = (self.now, self.tracer.as_mut());
            if let Some(t) = tracer {
                t.emit_fs(
                    now,
                    0,
                    TraceEventKind::SanitizerViolation { message: v.clone() },
                );
            }
            s.record(v);
        }
        self.san = Some(s);
    }

    /// Publishes live gauges plus cumulative counters and records one epoch.
    fn snapshot_metrics(&mut self) {
        let Some(m) = self.metrics.as_mut() else {
            return;
        };
        let flits = self.net.stats().flits_injected;
        let delta = flits - m.counter("net.flits_injected");
        m.add("net.flits_injected", delta);
        let delta = self.steal_events - m.counter("ske.cta_steals");
        m.add("ske.cta_steals", delta);
        let delta = self.faults_injected - m.counter("faults.injected");
        m.add("faults.injected", delta);
        let delta = self.net.stats().reroutes - m.counter("net.reroutes");
        m.add("net.reroutes", delta);
        let delta = self.net.stats().retries - m.counter("net.retries");
        m.add("net.retries", delta);
        let delta = self.net.stats().dead_letters - m.counter("net.dead_letters");
        m.add("net.dead_letters", delta);
        let delta = self.failed_requests - m.counter("faults.failed_requests");
        m.add("faults.failed_requests", delta);
        let delta = self.rebalanced_ctas - m.counter("ske.rebalanced_ctas");
        m.add("ske.rebalanced_ctas", delta);
        if let Some(t) = self.tracer.as_ref() {
            let delta = t.dropped() - m.counter("trace.dropped");
            m.add("trace.dropped", delta);
        }
        for (i, g) in self.gpus.iter().enumerate() {
            m.set_entity("gpu", i, "occupancy", g.occupancy());
        }
        for (i, h) in self.hmcs.iter().enumerate() {
            m.set_entity("hmc", i, "vault_queue", h.queued() as f64);
        }
        m.set("cpu.outstanding", f64::from(self.cpu.outstanding()));
        m.set("dma.reads_inflight", f64::from(self.dma.reads_inflight()));
        // Queue-depth distributions, one sample per entity per epoch.
        self.net
            .sample_vc_occupancy(|occ| m.record_hist("net.vc_occupancy_flits", occ));
        for h in &self.hmcs {
            h.sample_vault_depths(|d| m.record_hist("hmc.vault_queue_depth", d));
        }
        m.snapshot(self.now);
    }

    /// Runs until `done` holds; returns elapsed simulated time.
    fn run_phase(&mut self, done: impl Fn(&System) -> bool) -> Fs {
        let start = self.now;
        while !done(self) {
            if !self.advance() {
                // Every domain parked: nothing can make progress, which
                // the phase-done predicates all imply.
                break;
            }
            if self.now - start > self.phase_budget {
                self.timed_out = true;
                break;
            }
        }
        self.now - start
    }

    fn memory_system_idle(s: &System) -> bool {
        !s.net.has_work()
            && s.hmcs.iter().all(|h| !h.has_work())
            && s.hmc_ports
                .iter()
                .all(|p| p.deferred.is_none() && p.resp_q.is_empty())
    }

    fn run_host_phase(&mut self, work: &HostWork) -> Fs {
        // Host work addresses are device-space offsets; when the host owns
        // a staging copy, it reads that copy instead.
        let mut w = *work;
        if self.org.uses_memcpy() {
            w.region_base += HOST_BASE;
        }
        let stream: CpuStream = w.stream();
        self.cpu.run_program(stream);
        let t = self.run_phase(|s| !s.cpu.busy() && Self::memory_system_idle(s));
        self.sanitize_checkpoint("host");
        t
    }

    fn run_memcpy_phase(&mut self, src: u64, dst: u64, bytes: u64) -> Fs {
        if bytes == 0 {
            return 0;
        }
        let copied_before = self.dma.bytes_copied();
        self.dma.start_copy(src, dst, bytes);
        let t = self.run_phase(|s| !s.dma.busy() && Self::memory_system_idle(s));
        self.sanitize_checkpoint("memcpy");
        if let Some(s) = self.san.as_mut() {
            // Byte conservation: a completed copy moved exactly what was
            // asked for, even when fail-fast recovery synthesized some of
            // the read responses. Skipped if any phase ran out of budget —
            // a truncated copy is reported via `timed_out`, not here.
            let copied = self.dma.bytes_copied() - copied_before;
            if !self.timed_out && copied != bytes {
                s.record(format!(
                    "memcpy: byte conservation broken: copied {copied} of {bytes} \
                     requested ({src:#x} -> {dst:#x})"
                ));
            }
        }
        t
    }

    fn run_kernel_phase(&mut self) -> Fs {
        // Launch across the GPUs still alive — a GPU lost in an earlier
        // phase is simply excluded from the partition (SKE degraded mode).
        let live: Vec<usize> = (0..self.active_gpus as usize)
            .filter(|&g| !self.gpus[g].is_dead())
            .collect();
        if live.is_empty() {
            return 0;
        }
        let queues = ske::partition(
            self.workload.kernel.ctas,
            live.len() as u32,
            self.cta_policy,
        );
        for (qi, q) in queues.into_iter().enumerate() {
            if let Some(s) = self.san.as_mut() {
                s.ctas_launched += q.len() as u64;
            }
            self.gpus[live[qi]].launch(self.workload.kernel.clone(), q);
        }
        // Concurrent kernel execution: co-launch the extra kernels with
        // offset address spaces and interleave CTA queues so they share
        // every GPU.
        for (cw, base) in &self.co_workloads {
            let model = std::sync::Arc::new(memnet_gpu::kernel::OffsetKernel::new(
                cw.kernel.clone(),
                *base,
            ));
            let queues = ske::partition(cw.kernel.ctas, live.len() as u32, self.cta_policy);
            for (qi, q) in queues.into_iter().enumerate() {
                if let Some(s) = self.san.as_mut() {
                    s.ctas_launched += q.len() as u64;
                }
                self.gpus[live[qi]].launch(model.clone(), q);
            }
        }
        let n_kernels = 1 + self.co_workloads.len();
        for &g in &live {
            self.gpus[g].interleave_pending(n_kernels);
        }
        let steals = self.cta_policy.steals();
        let start = self.now;
        let mut last_steal = 0u64;
        loop {
            let done = self.gpus.iter().all(|g| !g.busy()) && Self::memory_system_idle(self);
            if done {
                break;
            }
            if !self.advance() {
                break;
            }
            let core_cycles = self.cal.clock(domain::CORE).cycles();
            if steals && core_cycles > last_steal + 2000 {
                last_steal = core_cycles;
                self.steal_ctas();
            }
            if self.now - start > self.phase_budget {
                self.timed_out = true;
                break;
            }
        }
        self.sanitize_checkpoint("kernel");
        if let Some(s) = self.san.as_mut() {
            // CTA conservation: every CTA handed to a GPU either retired
            // or was dropped with a dead GPU when no survivor could adopt
            // it (rebalanced CTAs retire on their adoptive GPU). Skipped
            // on budget exhaustion — an unfinished kernel legitimately
            // leaves CTAs resident.
            let done: u64 = self.gpus.iter().map(|g| g.stats().ctas_done).sum();
            if !self.timed_out && done + s.ctas_dropped != s.ctas_launched {
                s.record(format!(
                    "kernel: CTA conservation broken: launched {} != completed {} \
                     + dropped-with-dead-gpu {}",
                    s.ctas_launched, done, s.ctas_dropped
                ));
            }
        }
        self.now - start
    }

    /// Two-level dynamic scheduling: idle GPUs steal undispatched CTAs.
    fn steal_ctas(&mut self) {
        let active = self.active_gpus as usize;
        let pending: Vec<usize> = self.gpus[..active]
            .iter()
            .map(|g| g.pending_ctas())
            .collect();
        for thief in 0..active {
            if pending[thief] > 0 || self.gpus[thief].is_dead() {
                continue;
            }
            if let Some((victim, count)) = ske::pick_steal(&pending) {
                if victim != thief && count > 0 {
                    let stolen = self.gpus[victim].steal(count);
                    let moved = stolen.len() as u32;
                    self.gpus[thief].donate(stolen);
                    if moved > 0 {
                        self.steal_events += 1;
                        if let Some(t) = self.tracer.as_mut() {
                            t.emit_instant(
                                ClockDomain::Core,
                                self.cal.clock(domain::CORE).cycles(),
                                TraceEventKind::CtaSteal {
                                    victim: victim as u32,
                                    thief: thief as u32,
                                    count: moved,
                                },
                            );
                        }
                    }
                    break; // one steal per scan keeps it simple and rare
                }
            }
        }
    }

    /// True while ticking domain `d` can do real work. Parking is only
    /// legal when this is false *and* stays false until some other domain
    /// (or phase setup) hands the components new work — every predicate
    /// below is monotone in that sense.
    fn domain_active(&self, d: usize) -> bool {
        match d {
            // A GPU stays busy from kernel launch until its last response
            // is consumed (`Gpu::busy` covers outstanding routes), so the
            // core domain is never parked while replies are in flight —
            // crossbar release times computed from `core_cycle` stay
            // exact. The L2 services the same work, on the same signal.
            domain::CORE | domain::L2 => self.gpus.iter().any(|g| !g.is_idle()),
            domain::CPU => !self.cpu.is_idle() || !self.dma.is_idle(),
            // The net domain also hosts the metrics heartbeat: epoch
            // snapshots ride net ticks and sample *live* gauges of other
            // components, so with metrics enabled the domain is pinned
            // active — synthesized catch-up epochs could not be
            // bit-identical.
            domain::NET => {
                self.metrics.is_some()
                    || !self.net.is_quiescent()
                    || self
                        .hmc_ports
                        .iter()
                        .any(|p| p.deferred.is_some() || !p.resp_q.is_empty())
                    || self.gpus.iter().any(Gpu::has_mem_request)
                    || self.cpu.has_mem_request()
                    || self.dma.has_mem_request()
            }
            domain::DRAM => self.hmcs.iter().any(HmcDevice::has_work),
            _ => unreachable!("unknown clock domain {d}"),
        }
    }

    /// Catches per-tick counters up over `skipped` no-op edges of a woken
    /// domain, so downstream figures (crossbar timestamps, idle channel
    /// energy, utilization denominators, epoch numbering) match a run
    /// that ticked through the idle stretch.
    fn apply_skip(&mut self, d: usize, skipped: u64) {
        if skipped == 0 {
            return;
        }
        match d {
            domain::CORE => {
                for g in &mut self.gpus {
                    g.skip_idle_cycles(skipped);
                }
            }
            domain::NET => self.net.skip_idle_cycles(skipped),
            // L2 and DRAM keep no counter of their own (they read the
            // core clock and the DRAM clock's cycle count respectively),
            // and the CPU core's internal cycle is purely relative.
            domain::L2 | domain::CPU | domain::DRAM => {}
            _ => unreachable!("unknown clock domain {d}"),
        }
        if self.trace_engine {
            let (now, tracer) = (self.now, self.tracer.as_mut());
            if let Some(t) = tracer {
                t.emit_fs(
                    now,
                    0,
                    TraceEventKind::EngineWake {
                        domain: domain::name(d),
                        skipped,
                    },
                );
            }
        }
    }

    /// Wakes domain `d` at its first edge strictly after `self.now`.
    /// Used at the top of a timestep for work produced by a
    /// later-priority domain in an earlier timestep, or by phase setup:
    /// in the cycle-stepped loop, `d`'s edges at or before that point had
    /// already ticked (as no-ops) when the work appeared.
    fn wake_after_now(&mut self, d: usize) {
        let skipped = self.cal.wake_after(d, self.now);
        self.apply_skip(d, skipped);
    }

    /// Wakes domain `d` at its first edge at or after `self.now`. Used
    /// within a timestep, before `d`'s tick slot, for work produced by an
    /// earlier-priority domain at this very timestep: if `d` has an edge
    /// here, the cycle-stepped loop would have it act on the work now.
    fn wake_at_or_after_now(&mut self, d: usize) {
        let skipped = self.cal.wake_at_or_after(d, self.now);
        self.apply_skip(d, skipped);
    }

    /// Applies every pending fault owned by domain `d` whose edge has
    /// arrived. Called just before `d`'s tick so the fault's effect is
    /// visible to that very tick — in both engine modes, at the same edge.
    fn apply_due_faults(&mut self, d: usize) {
        while self.fault_q[d]
            .front()
            .is_some_and(|f| f.edge_fs <= self.now)
        {
            // memnet-lint: allow(tick-unwrap, the pop follows a front() check in the loop condition)
            let f = self.fault_q[d].pop_front().expect("checked front");
            self.apply_fault(&f);
        }
    }

    fn apply_fault(&mut self, f: &ResolvedFault) {
        match f.action {
            FaultAction::LinkDown(li) => self.net.set_link_state(li, false),
            FaultAction::LinkUp(li) => self.net.set_link_state(li, true),
            FaultAction::LinkDegrade(li, factor) => self.net.degrade_link(li, factor),
            FaultAction::VaultStall {
                hmc,
                vault,
                stall_tcks,
            } => {
                let tck = self.cal.clock(domain::DRAM).cycles();
                self.hmcs[hmc].stall_vault(vault, tck + stall_tcks);
            }
            FaultAction::GpuLoss(g) => self.apply_gpu_loss(g),
        }
        self.faults_injected += 1;
        let (now, tracer) = (self.now, self.tracer.as_mut());
        if let Some(t) = tracer {
            t.emit_fs(
                now,
                0,
                TraceEventKind::Fault {
                    kind: f.kind,
                    target: f.target,
                    detail: f.detail,
                },
            );
        }
    }

    /// Kills GPU `g` and rebalances its unfinished CTAs onto surviving
    /// active GPUs — contiguous re-chunks for the static policies
    /// (preserving what locality is left), round-robin for the stealing
    /// policy (whose steal loop keeps the balance dynamic afterwards).
    fn apply_gpu_loss(&mut self, g: usize) {
        if self.gpus[g].is_dead() {
            return;
        }
        let orphans = self.gpus[g].fail();
        self.lost_gpus += 1;
        let survivors: Vec<usize> = (0..self.active_gpus as usize)
            .filter(|&i| !self.gpus[i].is_dead())
            .collect();
        if survivors.is_empty() || orphans.is_empty() {
            if let Some(s) = self.san.as_mut() {
                // No adoptive GPU: the orphans are gone for good, and the
                // CTA conservation law must account for them.
                s.ctas_dropped += orphans.len() as u64;
            }
            return;
        }
        self.rebalanced_ctas += orphans.len() as u64;
        let k = survivors.len();
        match self.cta_policy {
            CtaPolicy::StaticChunk | CtaPolicy::RoundRobin => {
                let per = orphans.len().div_ceil(k);
                let mut it = orphans.into_iter();
                for &s in &survivors {
                    let chunk: Vec<_> = it.by_ref().take(per).collect();
                    self.gpus[s].donate(chunk);
                }
            }
            CtaPolicy::Stealing => {
                let mut queues: Vec<Vec<_>> = (0..k).map(|_| Vec::new()).collect();
                for (i, o) in orphans.into_iter().enumerate() {
                    queues[i % k].push(o);
                }
                for (&s, q) in survivors.iter().zip(queues) {
                    self.gpus[s].donate(q);
                }
            }
        }
    }

    /// Completes a request the network could not deliver through the
    /// fail-fast recovery path: reads get an immediate synthesized
    /// response (so waiters make progress instead of hanging), writes
    /// just drop, and everything is counted in `failed_requests`.
    fn fail_request(&mut self, req: MemReq) {
        self.failed_requests += 1;
        if !req.kind.returns_data() {
            return;
        }
        self.deliver_response(req.response());
    }

    /// Hands a response straight to its requester, bypassing the network
    /// (recovery delivery for dead-lettered packets). Responses to dead
    /// GPUs are dropped — the requester no longer exists.
    fn deliver_response(&mut self, resp: MemResp) {
        match resp.src {
            Agent::Gpu(g) => {
                if !self.gpus[g.index()].is_dead() {
                    self.gpus[g.index()].push_mem_response(resp);
                }
            }
            Agent::Cpu(_) => self.cpu.push_mem_response(resp),
            Agent::Dma(_) => self.dma.push_mem_response(resp),
        }
    }

    /// Advances simulated time to the earliest pending clock edge of an
    /// armed domain and ticks every due domain once, re-arming parked
    /// domains that have work and parking domains that report idle.
    /// Returns false when every domain is parked (the system quiesced).
    ///
    /// With parking disabled this is exactly the original cycle-stepped
    /// loop: all five domains stay armed and tick at every edge.
    fn advance(&mut self) -> bool {
        // Re-arm parked domains that acquired work since their last
        // edge — from a later-priority producer last timestep, or from
        // phase setup (kernel launch, `start_copy`, `run_program`).
        // Waking replays the skipped idle window, so this is the
        // fast-forward cost bucket.
        self.prof_begin(ProfCat::FastForward);
        for d in 0..domain::COUNT {
            if self.cal.is_parked(d) && self.domain_active(d) {
                self.wake_after_now(d);
            }
        }
        self.prof_end(ProfCat::FastForward);
        self.prof_begin(ProfCat::CalendarAdvance);
        // Never let time jump past a pending fault's owner edge. The next
        // timestep is the earlier of the next armed clock edge and the
        // earliest pending fault edge; parked owners whose fault lands at
        // exactly that timestep are woken there (and only there — waking
        // an owner at a *later* fault edge would skip edges where work
        // produced this timestep should tick). Re-evaluated every
        // advance, so a fault inside a fast-forwarded idle window still
        // fires on its exact edge and both engine modes apply it at the
        // same simulated instant.
        let fault_next = self
            .fault_q
            .iter()
            .filter_map(|q| q.front().map(|f| f.edge_fs))
            .min();
        let next = match (self.cal.earliest(), fault_next) {
            (Some(a), Some(f)) => a.min(f),
            (Some(a), None) => a,
            (None, Some(f)) => f,
            (None, None) => {
                self.prof_end(ProfCat::CalendarAdvance);
                return false;
            }
        };
        for d in 0..domain::COUNT {
            // A pending fault edge below `next` is impossible (time never
            // passes one), so a front edge ≤ `next` means == `next`.
            if self.cal.is_parked(d) && self.fault_q[d].front().is_some_and(|f| f.edge_fs <= next) {
                let skipped = self.cal.wake_at_or_after(d, next);
                self.apply_skip(d, skipped);
            }
        }
        self.now = next;
        self.cal.count_timestep();
        self.prof_end(ProfCat::CalendarAdvance);

        for d in 0..domain::COUNT {
            // Work produced earlier in this same timestep (by a
            // higher-priority domain) re-arms `d` in time for a
            // coincident edge.
            if self.cal.is_parked(d) && self.domain_active(d) {
                self.wake_at_or_after_now(d);
            }
            if !self.cal.due(d, self.now) {
                continue;
            }
            self.apply_due_faults(d);
            let cat = Self::prof_cat(d);
            self.prof_begin(cat);
            self.tick_domain(d);
            self.prof_end(cat);
            self.cal.advance(d);
            if self.park && !self.domain_active(d) && !self.cal.is_parked(d) {
                self.cal.park(d);
            }
        }
        true
    }

    /// Profiler category for one clock domain's tick.
    fn prof_cat(d: usize) -> ProfCat {
        match d {
            domain::CORE => ProfCat::CoreTick,
            domain::L2 => ProfCat::L2Tick,
            domain::CPU => ProfCat::CpuTick,
            domain::NET => ProfCat::NetTick,
            domain::DRAM => ProfCat::DramTick,
            _ => unreachable!("unknown clock domain {d}"),
        }
    }

    /// Opens a profiler scope (no-op unless profiling).
    #[inline]
    fn prof_begin(&mut self, cat: ProfCat) {
        if let Some(p) = self.prof.as_mut() {
            p.profiler.begin(cat);
        }
    }

    /// Closes a profiler scope (no-op unless profiling).
    #[inline]
    fn prof_end(&mut self, cat: ProfCat) {
        if let Some(p) = self.prof.as_mut() {
            p.profiler.end(cat);
        }
    }

    /// One tick of one clock domain, in priority order within a timestep:
    /// GPU cores, GPU L2s, CPU+DMA, network, DRAM.
    fn tick_domain(&mut self, d: usize) {
        match d {
            domain::CORE => {
                for g in &mut self.gpus {
                    g.tick_core_traced(self.tracer.as_mut());
                }
            }
            domain::L2 => {
                for g in &mut self.gpus {
                    g.tick_l2();
                }
            }
            domain::CPU => {
                self.cpu.tick();
                self.dma.tick();
            }
            domain::NET => {
                self.pump_into_network();
                self.net.tick_traced(self.tracer.as_mut());
                self.pump_out_of_network();
                if let Some(s) = self.san.as_mut() {
                    // O(1) per-tick law (the full credit audit is saved
                    // for phase boundaries): nothing the fabric accepted
                    // may leak or duplicate, at any cycle.
                    let st = self.net.stats();
                    let accounted = st.delivered + self.net.in_flight() + st.dead_letters;
                    if st.packets_injected != accounted {
                        s.record(format!(
                            "net cycle {}: packet conservation broken: injected {} != \
                             delivered {} + in-flight {} + dead-letters {}",
                            self.net.cycle(),
                            st.packets_injected,
                            st.delivered,
                            self.net.in_flight(),
                            st.dead_letters
                        ));
                    }
                }
                if self.metrics.is_some() && self.net.cycle() >= self.next_epoch {
                    self.next_epoch = self.net.cycle() + self.metrics_every;
                    self.snapshot_metrics();
                }
                // Profiler occupancy sampling: pure reads of queue state
                // into driver-owned histograms, never sim-visible.
                if let Some(p) = self.prof.as_mut() {
                    if self.net.cycle() >= p.next_sample {
                        p.next_sample = self.net.cycle() + p.sample_every;
                        let vc = &mut p.vc_hist;
                        self.net.sample_vc_occupancy(|occ| vc.record(occ));
                        let vault = &mut p.vault_hist;
                        for h in &self.hmcs {
                            h.sample_vault_depths(|d| vault.record(d));
                        }
                    }
                }
            }
            domain::DRAM => {
                let tck = self.cal.clock(domain::DRAM).cycles();
                for (i, h) in self.hmcs.iter_mut().enumerate() {
                    h.tick_traced(tck, i as u32, self.tracer.as_mut());
                    while let Some(req) = h.pop_completed(tck) {
                        if req.kind.returns_data() {
                            self.hmc_ports[i].resp_q.push_back(req.response());
                        }
                    }
                }
            }
            _ => unreachable!("unknown clock domain {d}"),
        }
    }

    /// Moves device requests into the network. Requests keep their
    /// *virtual* addresses end-to-end (responses must echo the address the
    /// device issued); the physical location is resolved here to pick the
    /// destination HMC and again at the HMC to pick the vault.
    fn pump_into_network(&mut self) {
        let n_gpus = self.gpus.len();
        for g in 0..n_gpus {
            while self.net.inject_ready(self.gpu_eps[g]) {
                let Some(req) = self.gpus[g].pop_mem_request() else {
                    break;
                };
                let (_, loc) = self.layout.locate(req.addr);
                let hmc = loc.hmc_global(self.cfg.hmcs_per_gpu) as usize;
                if !self.net.route_exists(self.gpu_eps[g], self.hmc_eps[hmc]) {
                    self.fail_request(req);
                    continue;
                }
                let bytes = req.packet_bytes() as u64;
                self.traffic.add(g, hmc, bytes);
                self.net.inject(
                    self.gpu_eps[g],
                    self.hmc_eps[hmc],
                    MsgClass::Req,
                    Payload::Req(req),
                    false,
                );
                self.trace_inject(g as u16, hmc as u16, bytes as u32);
            }
        }
        // CPU core, then DMA, share the CPU endpoint.
        while self.net.inject_ready(self.cpu_ep) {
            let Some(req) = self.cpu.pop_mem_request() else {
                break;
            };
            let (_, loc) = self.layout.locate(req.addr);
            let hmc = loc.hmc_global(self.cfg.hmcs_per_gpu) as usize;
            if !self.net.route_exists(self.cpu_ep, self.hmc_eps[hmc]) {
                self.fail_request(req);
                continue;
            }
            let bytes = req.packet_bytes() as u64;
            self.traffic.add(n_gpus, hmc, bytes);
            self.net.inject(
                self.cpu_ep,
                self.hmc_eps[hmc],
                MsgClass::Req,
                Payload::Req(req),
                self.use_overlay,
            );
            self.trace_inject(n_gpus as u16, hmc as u16, bytes as u32);
        }
        while self.net.inject_ready(self.cpu_ep) {
            let Some(req) = self.dma.pop_mem_request() else {
                break;
            };
            let (_, loc) = self.layout.locate(req.addr);
            let hmc = loc.hmc_global(self.cfg.hmcs_per_gpu) as usize;
            if !self.net.route_exists(self.cpu_ep, self.hmc_eps[hmc]) {
                self.fail_request(req);
                continue;
            }
            let bytes = req.packet_bytes() as u64;
            self.traffic.add(n_gpus, hmc, bytes);
            self.net.inject(
                self.cpu_ep,
                self.hmc_eps[hmc],
                MsgClass::Req,
                Payload::Req(req),
                false,
            );
            self.trace_inject(n_gpus as u16, hmc as u16, bytes as u32);
        }
    }

    /// Records a request-injection instant (no-op without a tracer).
    fn trace_inject(&mut self, src: u16, dst: u16, bytes: u32) {
        let cycle = self.net.cycle();
        if let Some(t) = self.tracer.as_mut() {
            t.emit_instant(
                ClockDomain::Net,
                cycle,
                TraceEventKind::PacketInject {
                    src,
                    dst,
                    class: "req",
                    bytes,
                },
            );
        }
    }

    /// Delivers ejected packets: requests into vaults, responses to devices.
    fn pump_out_of_network(&mut self) {
        // Dead-lettered packets (no surviving route after a link cut)
        // complete through the fail-fast recovery path: requests get a
        // synthesized response, responses are delivered out-of-band.
        while let Some(fp) = self.net.poll_failed() {
            match fp.payload {
                Payload::Req(req) => self.fail_request(req),
                Payload::Resp(resp) => {
                    self.failed_requests += 1;
                    self.deliver_response(resp);
                }
            }
        }
        for i in 0..self.hmcs.len() {
            let port = &self.hmc_ports[i];
            if port.deferred.is_none()
                && port.resp_q.is_empty()
                && !self.net.has_eject(self.hmc_eps[i])
            {
                continue;
            }
            // Retry a vault-rejected request before accepting more.
            if let Some((req, loc)) = self.hmc_ports[i].deferred.take() {
                match self.hmcs[i].try_accept(req, loc.vault, loc.bank, loc.row) {
                    Ok(()) => {}
                    Err(r) => {
                        self.hmc_ports[i].deferred = Some((r, loc));
                    }
                }
            }
            while self.hmc_ports[i].deferred.is_none() {
                let Some(p) = self.net.poll_eject(self.hmc_eps[i]) else {
                    break;
                };
                let Payload::Req(req) = p.payload else {
                    debug_assert!(false, "response ejected at an HMC endpoint");
                    continue;
                };
                let (_, loc) = self.layout.locate(req.addr);
                debug_assert_eq!(
                    loc.hmc_global(self.cfg.hmcs_per_gpu) as usize,
                    i,
                    "request routed to wrong HMC"
                );
                if let Err(r) = self.hmcs[i].try_accept(req, loc.vault, loc.bank, loc.row) {
                    self.hmc_ports[i].deferred = Some((r, loc));
                }
            }
            // Inject completed responses back toward the requester; when a
            // cut stranded the return path, deliver out-of-band instead.
            while self.net.inject_ready(self.hmc_eps[i]) {
                let Some(resp) = self.hmc_ports[i].resp_q.pop_front() else {
                    break;
                };
                let (dest, overlay) = match resp.src {
                    Agent::Gpu(g) => (self.gpu_eps[g.index()], false),
                    Agent::Cpu(_) => (self.cpu_ep, self.use_overlay),
                    Agent::Dma(_) => (self.cpu_ep, false),
                };
                if !self.net.route_exists(self.hmc_eps[i], dest) {
                    self.failed_requests += 1;
                    self.deliver_response(resp);
                    continue;
                }
                self.net.inject(
                    self.hmc_eps[i],
                    dest,
                    MsgClass::Resp,
                    Payload::Resp(resp),
                    overlay,
                );
            }
        }
        for g in 0..self.gpus.len() {
            while let Some(p) = self.net.poll_eject(self.gpu_eps[g]) {
                self.trace_eject(g as u16, p.latency_cycles, p.hops);
                let Payload::Resp(resp) = p.payload else {
                    debug_assert!(false, "request ejected at a GPU endpoint");
                    continue;
                };
                if self.gpus[g].is_dead() {
                    // In-flight reply raced the GPU's death: account it.
                    self.failed_requests += 1;
                    continue;
                }
                self.gpus[g].push_mem_response(resp);
            }
        }
        while let Some(p) = self.net.poll_eject(self.cpu_ep) {
            self.trace_eject(self.gpus.len() as u16, p.latency_cycles, p.hops);
            let Payload::Resp(resp) = p.payload else {
                debug_assert!(false, "request ejected at the CPU endpoint");
                continue;
            };
            match resp.src {
                Agent::Cpu(_) => self.cpu.push_mem_response(resp),
                Agent::Dma(_) => self.dma.push_mem_response(resp),
                Agent::Gpu(_) => debug_assert!(false, "GPU response at CPU endpoint"),
            }
        }
    }

    /// Records a response-ejection instant at device endpoint `dst`
    /// (no-op without a tracer), plus the latency sample for the
    /// profiling and metrics histograms when either is enabled.
    fn trace_eject(&mut self, dst: u16, latency_cycles: u64, hops: u32) {
        let cycle = self.net.cycle();
        if let Some(t) = self.tracer.as_mut() {
            t.emit_instant(
                ClockDomain::Net,
                cycle,
                TraceEventKind::PacketEject {
                    dst,
                    latency_cycles,
                    hops,
                },
            );
        }
        if let Some(p) = self.prof.as_mut() {
            p.lat_hist.record(latency_cycles);
        }
        if let Some(m) = self.metrics.as_mut() {
            m.record_hist("net.pkt_latency_cycles", latency_cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_workloads::Workload;

    fn small(org: Organization) -> SimReport {
        SimBuilder::new(org)
            .gpus(2)
            .sms_per_gpu(2)
            .workload(Workload::VecAdd.spec_small())
            .run()
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
    fn concurrent_kernels_complete_and_overlap() {
        use memnet_workloads::Workload as W;
        let iso = |w: Workload| {
            SimBuilder::new(Organization::Umn)
                .gpus(2)
                .sms_per_gpu(2)
                .workload(w.spec_small())
                .run()
        };
        let cp = iso(W::Cp);
        let scan = iso(W::Scan);
        // Concurrent: compute-bound CP + bandwidth-bound SCAN co-scheduled.
        let both = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
            .workload(W::Cp.spec_small())
            .co_workload(W::Scan.spec_small())
            .run();
        assert!(!both.timed_out);
        // Sandwich: real concurrency means the co-run takes at least as
        // long as the slower kernel alone. The upper bound is loose:
        // co-resident kernels share L1/L2 capacity, so cache contention can
        // make co-scheduling somewhat slower than back-to-back execution —
        // a well-known CKE effect this model reproduces.
        let slower = cp.kernel_ns.max(scan.kernel_ns);
        let serial = cp.kernel_ns + scan.kernel_ns;
        assert!(
            both.kernel_ns >= slower * 0.95,
            "CKE {} vs slower {}",
            both.kernel_ns,
            slower
        );
        assert!(
            both.kernel_ns <= serial * 1.30,
            "CKE {} vs serial {}",
            both.kernel_ns,
            serial
        );
    }

    #[test]
    fn concurrent_kernels_use_disjoint_regions() {
        use memnet_workloads::Workload as W;
        // Runs to completion without address-space collisions (regions are
        // page-aligned and stacked); traffic exceeds the single-kernel run.
        let single = small(Organization::Umn);
        let multi = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
            .workload(W::VecAdd.spec_small())
            .co_workload(W::VecAdd.spec_small())
            .co_workload(W::VecAdd.spec_small())
            .run();
        assert!(!multi.timed_out);
        assert!(multi.traffic.total() > 2 * single.traffic.total());
    }

    #[test]
    #[should_panic(expected = "host compute phases")]
    fn co_workload_with_host_phases_panics() {
        use memnet_workloads::Workload as W;
        let _ = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
            .workload(W::VecAdd.spec_small())
            .co_workload(W::CgS.spec_small())
            .run();
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
            SimBuilder::new(Organization::Umn)
                .gpus(2)
                .sms_per_gpu(2)
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
        let r = SimBuilder::new(Organization::Gmn)
            .gpus(2)
            .sms_per_gpu(2)
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
        let r = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
            .workload(spec)
            .run();
        assert!(!r.timed_out);
        assert!(r.host_ns > 0.0, "CG.S computes on the host");
    }

    #[test]
    fn stealing_policy_completes() {
        let r = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
            .cta_policy(CtaPolicy::Stealing)
            .workload(Workload::Bp.spec_small())
            .run();
        assert!(!r.timed_out);
        assert!(r.kernel_ns > 0.0);
    }

    #[test]
    fn tracing_and_metrics_capture_the_run() {
        let r = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
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
        let metrics = r.metrics_json.expect("metrics enabled");
        assert!(metrics.contains("net.flits_injected"));
        assert!(metrics.contains("occupancy"));
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        let plain = small(Organization::Umn);
        let traced = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
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
        assert!(r.metrics_json.is_none());
    }

    #[test]
    fn gpu_loss_rebalances_ctas_onto_survivor() {
        use memnet_common::faults::{FaultKind, FaultPlan};
        let mut plan = FaultPlan::new();
        plan.push(1, FaultKind::GpuLoss { gpu: 1 });
        let r = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
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
        let r = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
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
        let r = SimBuilder::new(Organization::Pcie)
            .gpus(2)
            .sms_per_gpu(2)
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
        let r = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
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
        use memnet_common::faults::{FaultKind, FaultPlan, LinkClass};
        let run = || {
            let mut plan = FaultPlan::new();
            plan.push(
                memnet_common::time::ns_to_fs(20.0),
                FaultKind::LinkDown {
                    class: LinkClass::HmcHmc,
                    ordinal: 0,
                },
            );
            SimBuilder::new(Organization::Umn)
                .gpus(2)
                .sms_per_gpu(2)
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
        use memnet_common::faults::{FaultKind, FaultPlan, LinkClass};
        let mut plan = FaultPlan::new();
        plan.push(
            1,
            FaultKind::LinkDown {
                class: LinkClass::Pcie,
                ordinal: 0,
            },
        );
        // UMN has no PCIe links: the event is dropped, counted, harmless.
        let r = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
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
        let r = SimBuilder::new(Organization::Umn)
            .gpus(2)
            .sms_per_gpu(2)
            .trace(1 << 16)
            .metrics_every(1000)
            .faults(plan)
            .workload(Workload::VecAdd.spec_small())
            .run();
        let trace = r.trace_json.expect("trace enabled");
        assert!(trace.contains("gpu-loss"), "fault instant in the trace");
        let metrics = r.metrics_json.expect("metrics enabled");
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

    #[test]
    fn truncated_snapshots_are_refused_by_field_before_anything_is_applied() {
        fn shorten<T>(v: &mut Vec<T>) {
            v.pop();
        }
        let builder = || {
            SimBuilder::new(Organization::Gmn)
                .gpus(2)
                .sms_per_gpu(2)
                .workload(Workload::VecAdd.spec_small())
        };
        let (report, snap) = builder().try_run_checkpointed("").expect("checkpoint");
        let restored = builder().try_run_restored(&snap).expect("intact restore");
        assert_eq!(restored.to_json_compact(), report.to_json_compact());
        // Each cut used to reach an `assert_eq!` in a component's
        // `restore_state` (the first one in `System::apply_snapshot`).
        type Cut = fn(&mut SystemSnapshot);
        let cuts: [(&str, Cut); 8] = [
            ("'clocks'", |s| shorten(&mut s.clock_cycles)),
            ("'gpus'", |s| shorten(&mut s.gpus)),
            ("'hmcs'", |s| shorten(&mut s.hmcs)),
            ("'traffic'", |s| shorten(&mut s.traffic_bytes)),
            ("'gpus[1].l2.ways'", |s| shorten(&mut s.gpus[1].l2.ways)),
            ("'hmcs[0].vaults[2].banks'", |s| {
                shorten(&mut s.hmcs[0].vaults[2].banks)
            }),
            ("'net.free_pids'", |s| s.net.packet_slots += 1),
            ("'clocks[0]'", |s| s.now *= 2),
        ];
        for (field, cut) in cuts {
            let mut bad = snap.clone();
            cut(&mut bad);
            match builder().try_run_restored(&bad) {
                Err(SimError::Snapshot(why)) => assert!(why.contains(field), "{field}: {why}"),
                other => panic!("{field}: expected a snapshot error, got {other:?}"),
            }
        }
    }
}

//! What a run is configured by: the [`SimBuilder`] knobs, its run entry
//! points, and the fingerprint that content-addresses a configuration.

use super::{EngineMode, Organization, SimError, SimReport, System};
use crate::memory::PlacementPolicy;
use crate::profile::ProfileReport;
use crate::sanitize::SanitizeMode;
use crate::ske::CtaPolicy;
use crate::snapshot::SystemSnapshot;
use memnet_common::{FaultPlan, SystemConfig};
use memnet_noc::topo::{SlicedKind, TopologyKind};
use memnet_noc::RoutingPolicy;
use memnet_obs::{Field, ToJson};
use memnet_workloads::WorkloadSpec;

/// Builds and runs one full-system simulation.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    pub(super) cfg: SystemConfig,
    pub(super) org: Organization,
    pub(super) topology: TopologyKind,
    pub(super) routing: RoutingPolicy,
    pub(super) overlay: bool,
    pub(super) cta_policy: CtaPolicy,
    pub(super) workload: Option<WorkloadSpec>,
    pub(super) data_clusters: Option<Vec<u32>>,
    pub(super) active_gpus: Option<u32>,
    pub(super) phase_budget_ns: f64,
    pub(super) placement: PlacementPolicy,
    pub(super) trace_capacity: Option<usize>,
    pub(super) metrics_every: Option<u64>,
    /// `None` until [`SimBuilder::engine`]: `MEMNET_ENGINE` then decides.
    pub(super) engine_mode: Option<EngineMode>,
    pub(super) faults: FaultPlan,
    /// `None` until [`SimBuilder::sanitize`]: `MEMNET_SANITIZE` then decides.
    pub(super) sanitize: Option<SanitizeMode>,
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
            trace_capacity: None,
            metrics_every: None,
            engine_mode: None,
            faults: FaultPlan::new(),
            sanitize: None,
        }
    }

    /// Enables the runtime invariant sanitizer (default: resolved from
    /// `MEMNET_SANITIZE` — see [`SanitizeMode::from_env`]). Conservation
    /// laws are audited at domain edges while the simulation runs and the
    /// findings land in [`SimReport::sanitizer`]; [`SanitizeMode::Fatal`]
    /// panics at the end of a run that violated any invariant.
    pub fn sanitize(mut self, mode: SanitizeMode) -> Self {
        self.sanitize = Some(mode);
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
    /// `cycles` network cycles; the report then carries the registry in
    /// [`SimReport::metrics`]. A zero period disables snapshots.
    pub fn metrics_every(mut self, cycles: u64) -> Self {
        self.metrics_every = Some(cycles);
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
    /// [`SimError::InvalidConfig`] when the configuration or the
    /// workload's kernel fails validation.
    pub fn try_run(self) -> Result<SimReport, SimError> {
        Ok(System::try_build(self)?.run_profiled().0)
    }

    /// Like [`SimBuilder::try_run`], with the self-profiler on: it also
    /// returns a [`ProfileReport`] — wall-clock attribution per clock
    /// domain, per-phase allocation deltas, latency/occupancy histograms
    /// and utilization heatmaps. The profiler observes the driver loop
    /// from outside simulation state, so the [`SimReport`] is
    /// byte-identical to [`SimBuilder::try_run`]'s.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimBuilder::try_run`].
    #[allow(clippy::expect_used, reason = "the profiler was armed above")]
    pub fn try_run_profiled(self) -> Result<(SimReport, ProfileReport), SimError> {
        let mut sys = System::try_build(self)?;
        sys.arm_profiler();
        let (report, prof) = sys.run_profiled();
        Ok((report, prof.expect("the profiler was armed above")))
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
    /// fingerprint does not match this builder, or when one of its
    /// records is mistyped or does not fit this configuration's state (the
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
        let doc = Field::root(&snap.doc, "");
        let (host_fs, memcpy_fs) = doc.record(|f| sys.restore(f)).map_err(SimError::Snapshot)?;
        Ok(sys.run_from_snapshot_point(host_fs, memcpy_fs).0)
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
        // The retired co-workload list, kept so fingerprints do not move.
        s.push_str("co=[];");
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

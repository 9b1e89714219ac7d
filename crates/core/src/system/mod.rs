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
//!
//! One child module per decision the driver takes. `System`'s fields are
//! private to this module, and `pub(super)` on a child's method keeps it
//! inside the driver too:
//!
//! * `builder` — what a run is configured by, and its fingerprint;
//! * `wiring` — how each organization's graph, layout and clocks are built;
//! * `phases` — which phases run in which order, straight or checkpointed;
//! * `engine` — which clock domain ticks when (park / wake / skip);
//! * `pumps` — how requests and responses cross device ↔ fabric ↔ HMC;
//! * `faults` — where a fault-plan event lands, and what it does when due;
//! * `snapshot` — what a checkpoint holds, and how one is checked and applied;
//! * `observers` — trace marks, sanitizer audits, metric epochs, profiling;
//! * `report` — what a finished system is summarized as.

mod builder;
mod engine;
mod faults;
mod observers;
mod phases;
mod pumps;
mod report;
mod snapshot;
#[cfg(test)]
mod tests;
mod wiring;

pub use builder::SimBuilder;
pub use engine::EngineMode;
pub use report::{GpuSummary, SimReport};

use crate::memory::MemoryLayout;
use crate::sanitize::Sanitizer;
use crate::ske::CtaPolicy;
use crate::snapshot::Counters;
use faults::ResolvedFault;
use memnet_common::stats::TrafficMatrix;
use memnet_common::time::Fs;
use memnet_common::{MemReq, MemResp, NodeId, SystemConfig};
use memnet_cpu::{CpuCore, DmaEngine};
use memnet_engine::Calendar;
use memnet_gpu::Gpu;
use memnet_hmc::mapping::Location;
use memnet_hmc::HmcDevice;
use memnet_noc::Network;
use memnet_obs::{ClockDomain, MetricsRegistry, Tracer};
use memnet_workloads::WorkloadSpec;
use observers::ProfPack;
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

/// Why a simulation could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The [`SystemConfig`] or the workload's kernel failed validation.
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

/// Per-HMC state the engine keeps outside the device model.
#[derive(Debug, Default)]
struct HmcPort {
    /// Request popped from the network but rejected by a full vault queue.
    deferred: Option<(MemReq, Location)>,
    /// Completed responses awaiting network injection.
    resp_q: VecDeque<MemResp>,
}

impl HmcPort {
    /// True when nothing waits on either side of the port.
    fn is_idle(&self) -> bool {
        self.deferred.is_none() && self.resp_q.is_empty()
    }
}

struct System {
    cfg: SystemConfig,
    org: Organization,
    workload: WorkloadSpec,
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
    /// Bit `i` is set while HMC port `i` is not idle: the ports the pump
    /// visits, with those whose endpoint holds an ejected packet.
    hmc_busy: Vec<u64>,
    /// The HMC port of each node, by node index (`u32::MAX` for none).
    hmc_of_node: Vec<u32>,
    /// The pump's reused visit set.
    hmc_visit: Vec<u64>,
    layout: MemoryLayout,

    /// Clock domains indexed by [`ClockDomain`] discriminant.
    cal: Calendar,
    /// True when idle domains may be parked ([`EngineMode::EventDriven`]).
    park: bool,
    /// How this system advances time (the profile report's engine label).
    engine_mode: EngineMode,
    now: Fs,

    traffic: TrafficMatrix,
    timed_out: bool,

    /// Pending resolved faults per owning clock domain, each queue in plan
    /// order, which is edge order.
    fault_q: [VecDeque<ResolvedFault>; ClockDomain::ALL.len()],
    faults_skipped: u64,
    /// The fault and scheduling counters a checkpoint carries.
    counters: Counters,

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
    /// Driver visits to an HMC port with nothing to do, for the profile's
    /// work counts; no report or snapshot carries it.
    idle_hmc_visits: u64,
}

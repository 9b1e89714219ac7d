//! How a [`SimBuilder`] becomes a live [`System`]: the organization's graph,
//! the memory layout, the devices, the clocks, the fault plan on their edges.

use super::{EngineMode, HmcPort, Organization, SimBuilder, SimError, System};
use crate::memory::{MemoryLayout, HOST_BASE};
use crate::sanitize::{SanitizeMode, Sanitizer};
use crate::snapshot::Counters;
use memnet_common::stats::TrafficMatrix;
use memnet_common::time::{narrow_u32, Fs};
use memnet_common::{Clock, CpuId, GpuId, NodeId};
use memnet_cpu::{CpuCore, DmaEngine};
use memnet_engine::Calendar;
use memnet_gpu::Gpu;
use memnet_hmc::HmcDevice;
use memnet_noc::topo::{add_cpu_overlay, add_pcie_tree, build_clusters, TopologyKind};
use memnet_noc::{LinkSpec, LinkTag, NetworkBuilder, NocParams};
use memnet_obs::ClockDomain::{self, Core, Cpu, Dram, Net, L2};
use memnet_obs::{MetricsRegistry, Tracer};

impl System {
    pub(super) fn try_build(b: SimBuilder) -> Result<System, SimError> {
        let cfg = b.cfg.clone();
        cfg.validate().map_err(SimError::InvalidConfig)?;
        let workload = b.workload.clone().ok_or(SimError::MissingWorkload)?;
        workload
            .kernel
            .validate()
            .map_err(SimError::InvalidConfig)?;
        let engine_mode = b.engine_mode.map_or_else(EngineMode::from_env, Ok)?;
        let sanitize = b.sanitize.map_or_else(SanitizeMode::from_env, Ok)?;
        let n_gpus = cfg.n_gpus as usize;
        let local = cfg.hmcs_per_gpu as usize;
        #[allow(clippy::cast_possible_truncation, reason = "n_gpus came from a u32 config field")]
        let cpu_cluster = n_gpus as u32;

        let mut params = NocParams::from_config(&cfg.noc);
        params.seed = cfg.seed;
        let mut nb = NetworkBuilder::new(params);
        nb.routing(b.routing);

        let cpd = cfg.noc.channels_per_device;
        let (gpu_eps, cpu_ep, hmc_eps) = if b.org == Organization::Umn {
            // All clusters (GPUs first, CPU last) in one memory network.
            let c = build_clusters(&mut nb, n_gpus + 1, local, cpd, b.topology);
            if b.overlay {
                add_cpu_overlay(&mut nb, &c, n_gpus);
            }
            let gpu_eps = c.device_eps[..n_gpus].to_vec();
            (gpu_eps, c.device_eps[n_gpus], c.hmc_eps_flat())
        } else {
            // Everyone else keeps the GPU clusters (wired to each other
            // only under GMN) apart from the one CPU cluster; what joins
            // the devices is the organization's own.
            let gpu_topo = match b.org {
                Organization::Gmn | Organization::GmnZc => b.topology,
                _ => TopologyKind::Isolated,
            };
            let g = build_clusters(&mut nb, n_gpus, local, cpd, gpu_topo);
            let c = build_clusters(&mut nb, 1, local, cpd, TopologyKind::Isolated);
            let mut devs = g.device_routers.clone();
            devs.push(c.device_routers[0]);
            // A direct HMC-class channel between every pair of `nodes`.
            let all_pairs = |nb: &mut NetworkBuilder, nodes: &[NodeId], tag: LinkTag| {
                for i in 0..nodes.len() {
                    for j in i + 1..nodes.len() {
                        nb.link(nodes[i], nodes[j], LinkSpec::hmc_channel(), tag);
                    }
                }
            };
            match b.org {
                Organization::Umn => unreachable!("wired above"),
                Organization::Pcie
                | Organization::PcieZc
                | Organization::Gmn
                | Organization::GmnZc => {
                    add_pcie_tree(&mut nb, &devs, cfg.pcie.latency_ns);
                }
                // Processor-centric network: every device pair gets a
                // direct NVLink-class channel; memories remain local.
                Organization::Pcn => all_pairs(&mut nb, &devs, LinkTag::Nvlink),
                Organization::Cmn | Organization::CmnZc => {
                    // The CPU's HMCs form the memory network (fully connected),
                    // and each GPU taps into it with two channels — replacing
                    // the PCIe interface (Fig. 8(a)).
                    let cpu_hmcs = &c.hmc_routers[0];
                    all_pairs(&mut nb, cpu_hmcs, LinkTag::HmcHmc);
                    for (gi, &gr) in g.device_routers.iter().enumerate() {
                        for tap in [gi, gi + 1] {
                            let hmc = cpu_hmcs[tap % cpu_hmcs.len()];
                            nb.link(gr, hmc, LinkSpec::hmc_channel(), LinkTag::DeviceHmc);
                        }
                    }
                }
            }
            let mut hmc_eps = g.hmc_eps_flat();
            hmc_eps.extend(c.hmc_eps_flat());
            (g.device_eps, c.device_eps[0], hmc_eps)
        };
        let net = nb.try_build().map_err(|why| {
            let topology = b.topology.name();
            SimError::InvalidConfig(format!("gpus = {n_gpus} on topology {topology}: {why}"))
        })?;

        // Memory layout: regions per data-residency policy, each the
        // footprint rounded up to whole pages.
        let fp = workload
            .footprint_bytes()
            .max(4096)
            .div_ceil(cfg.page_bytes)
            * cfg.page_bytes;
        let mut layout = MemoryLayout::new(&cfg, cpu_cluster + 1);
        layout.set_policy(b.placement);
        let device_clusters: Vec<u32> = match b.org {
            org if org.zero_copy() => vec![cpu_cluster],
            Organization::Umn => (0..=cpu_cluster).collect(),
            _ => b
                .data_clusters
                .clone()
                .unwrap_or_else(|| (0..cpu_cluster).collect()),
        };
        layout.add_region(0, fp, &device_clusters);
        layout.add_region(HOST_BASE, fp, &[cpu_cluster]);

        #[allow(clippy::cast_possible_truncation, reason = "GPUs are u16-id network nodes")]
        let gpus: Vec<Gpu> = (0..n_gpus)
            .map(|g| Gpu::new(GpuId(g as u16), &cfg.gpu))
            .collect();
        let hmcs: Vec<HmcDevice> = (0..hmc_eps.len())
            .map(|_| HmcDevice::new(&cfg.hmc))
            .collect();
        let hmc_ports = (0..hmc_eps.len()).map(|_| HmcPort::default()).collect();
        let nodes = hmc_eps.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut hmc_of_node = vec![u32::MAX; nodes];
        for (i, n) in hmc_eps.iter().enumerate() {
            hmc_of_node[n.index()] = narrow_u32(i as u64, "an HMC index");
        }
        let hmc_words = hmc_eps.len().div_ceil(64);
        let traffic = TrafficMatrix::new(n_gpus + 1, hmc_eps.len());

        // One clock per domain, in tick order.
        let clocks = ClockDomain::ALL.map(|d| match d {
            Core => Clock::from_freq_mhz(cfg.gpu.core_mhz),
            L2 => Clock::from_freq_mhz(cfg.gpu.l2_mhz),
            Cpu => Clock::from_freq_mhz(cfg.cpu.freq_mhz),
            Net => Clock::from_freq_mhz(cfg.noc.router_mhz),
            Dram => Clock::new(memnet_common::time::ns_to_fs(cfg.hmc.tck_ns)),
        });
        let tracer = b.trace_capacity.map(|cap| {
            let mut t = Tracer::new(cap);
            for (d, clock) in ClockDomain::ALL.into_iter().zip(&clocks) {
                t.set_clock(d, clock.period_fs() as f64);
            }
            t
        });
        let metrics_every = b.metrics_every.unwrap_or(0);

        #[allow(clippy::cast_possible_truncation, reason = "f64 `as` saturates at u64::MAX fs")]
        let mut sys = System {
            active_gpus: b.active_gpus.unwrap_or(cfg.n_gpus).min(cfg.n_gpus),
            use_overlay: b.overlay,
            phase_budget: (b.phase_budget_ns * 1e6) as Fs,
            cpu: CpuCore::new(CpuId(0), &cfg.cpu),
            dma: DmaEngine::new(CpuId(0), 32),
            cal: Calendar::new(clocks.to_vec()),
            park: engine_mode == EngineMode::EventDriven,
            engine_mode,
            now: 0,
            timed_out: false,
            fault_q: Default::default(),
            faults_skipped: 0,
            counters: Counters::default(),
            tracer,
            san: sanitize
                .enabled()
                .then(|| Sanitizer::new(sanitize == SanitizeMode::Fatal)),
            metrics: (metrics_every > 0).then(MetricsRegistry::new),
            prof: None,
            metrics_every,
            next_epoch: metrics_every,
            idle_hmc_visits: 0,
            cta_policy: b.cta_policy,
            org: b.org,
            workload,
            cfg,
            net,
            gpus,
            gpu_eps,
            cpu_ep,
            hmcs,
            hmc_eps,
            hmc_ports,
            hmc_busy: vec![0; hmc_words],
            hmc_of_node,
            hmc_visit: vec![0; hmc_words],
            layout,
            traffic,
        };
        sys.resolve_faults(&b.faults);
        Ok(sys)
    }
}

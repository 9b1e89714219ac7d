//! System configuration (Table I of the paper, plus the interconnect
//! parameters from Section VI-A).
//!
//! [`SystemConfig::paper`] reproduces Table I exactly. Because simulating
//! 64 SMs per GPU for every configuration sweep is slow,
//! [`SystemConfig::scaled`] provides a proportionally reduced machine
//! (fewer SMs, same ratios) that the bench harness uses by default; every
//! experiment can be re-run at full Table I scale by switching constructors.

/// A set-associative cache's geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access (hit) latency in the owning clock domain's cycles.
    pub latency_cycles: u32,
    /// Miss-status holding registers: bound on outstanding distinct misses.
    pub mshrs: u32,
}

impl CacheConfig {
    /// Number of sets; panics if the geometry is inconsistent.
    pub fn sets(&self) -> u64 {
        let lines = self.size_bytes / self.line_bytes as u64;
        assert!(
            lines.is_multiple_of(self.assoc as u64),
            "cache lines not divisible by associativity"
        );
        lines / self.assoc as u64
    }
}

/// GPU parameters (Table I, GPU section).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors per GPU (Table I: 64).
    pub n_sms: u32,
    /// Max resident threads per SM (1024).
    pub threads_per_sm: u32,
    /// Max resident CTAs per SM (8).
    pub ctas_per_sm: u32,
    /// SIMD width (32).
    pub simd_width: u32,
    /// Per-SM L1 (32 KB, 4-way, 128 B lines).
    pub l1: CacheConfig,
    /// Per-GPU shared L2 (2 MB, 16-way, 128 B lines).
    pub l2: CacheConfig,
    /// Core clock in MHz (1400).
    pub core_mhz: f64,
    /// Crossbar clock in MHz (1250).
    pub xbar_mhz: f64,
    /// L2 clock in MHz (700).
    pub l2_mhz: f64,
    /// SM→L2 crossbar latency in core cycles.
    pub xbar_latency: u32,
    /// L2 request slots serviced per L2 cycle (banking).
    pub l2_banks: u32,
}

/// CPU parameters (Table I, CPU section).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Core clock in MHz (4000).
    pub freq_mhz: f64,
    /// Issue width (4).
    pub issue_width: u32,
    /// Reorder-buffer size (64) — bounds memory-level parallelism.
    pub rob_size: u32,
    /// L1 data cache (64 KB, 4-way, 2-cycle).
    pub l1: CacheConfig,
    /// L2 cache (16 MB, 16-way, 10-cycle).
    pub l2: CacheConfig,
}

/// HMC parameters (Table I, HMC section). DRAM timings are in tCK units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmcConfig {
    /// DRAM layers (8).
    pub layers: u32,
    /// Vaults per cube (16).
    pub vaults: u32,
    /// Banks per vault (16).
    pub banks_per_vault: u32,
    /// Cube capacity in bytes (4 GB).
    pub capacity_bytes: u64,
    /// Per-vault request queue entries (16).
    pub vault_queue: u32,
    /// DRAM clock period in nanoseconds (1.25).
    pub tck_ns: f64,
    /// Row precharge, in tCK (11).
    pub t_rp: u32,
    /// Column-to-column delay, in tCK (4).
    pub t_ccd: u32,
    /// RAS-to-CAS delay, in tCK (11).
    pub t_rcd: u32,
    /// CAS latency, in tCK (11).
    pub t_cl: u32,
    /// Write recovery, in tCK (12).
    pub t_wr: u32,
    /// Row active minimum, in tCK (22).
    pub t_ras: u32,
    /// Vault data-bus width in bytes transferred per tCK (TSV bundle).
    pub vault_bus_bytes_per_tck: u32,
    /// Average refresh interval per bank, in tCK (tREFI; 3.9 µs / 1.25 ns).
    pub t_refi: u32,
    /// Refresh cycle time, in tCK (tRFC).
    pub t_rfc: u32,
    /// Extra logic-die latency for an atomic read-modify-write, in tCK.
    pub atomic_extra_tck: u32,
}

/// Interconnection-network parameters (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// High-speed channel bandwidth per direction, GB/s (20).
    pub channel_gbs: f64,
    /// I/O channels per CPU, GPU and HMC (8).
    pub channels_per_device: u32,
    /// Router clock in MHz (1250).
    pub router_mhz: f64,
    /// Router pipeline depth in cycles (4).
    pub pipeline_stages: u32,
    /// SerDes latency per channel traversal in nanoseconds (3.2).
    pub serdes_ns: f64,
    /// Virtual channels per message class (6); 2 classes (req/resp).
    pub vcs_per_class: u32,
    /// Buffer per VC in bytes (512).
    pub vc_buffer_bytes: u32,
    /// Flit size in bytes (16 ⇒ one flit per router cycle at 20 GB/s).
    pub flit_bytes: u32,
    /// Energy per bit for real traffic, pJ (2.0).
    pub energy_pj_per_bit: f64,
    /// Energy per bit for idle (filler) traffic, pJ (1.5).
    pub idle_pj_per_bit: f64,
    /// Latency of an overlay pass-through hop in router cycles (bypasses the
    /// SerDes and the router datapath; Section V-C).
    pub passthrough_cycles: u32,
}

impl NocConfig {
    /// Bytes a channel moves per router cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.channel_gbs * 1e9 / (self.router_mhz * 1e6)
    }

    /// SerDes latency in router cycles (rounded up).
    #[allow(clippy::cast_possible_truncation, reason = "tens of ns at MHz clocks: few cycles")]
    pub fn serdes_cycles(&self) -> u32 {
        (self.serdes_ns * self.router_mhz / 1000.0).ceil() as u32
    }

    /// Capacity of one VC buffer in flits.
    pub fn vc_buffer_flits(&self) -> u32 {
        self.vc_buffer_bytes / self.flit_bytes
    }
}

/// PCIe interconnect model (16-lane PCIe v3.0, Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieConfig {
    /// Bandwidth per direction in GB/s (15.75).
    pub gbs: f64,
    /// One-way latency in nanoseconds (link + switch + protocol stack).
    pub latency_ns: f64,
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of discrete GPUs (evaluation default: 4).
    pub n_gpus: u32,
    /// Local HMCs per GPU — one cluster (4).
    pub hmcs_per_gpu: u32,
    /// HMCs local to the CPU (4; used by CMN/UMN organizations).
    pub cpu_hmcs: u32,
    /// Virtual-memory page size in bytes (4 KB).
    pub page_bytes: u64,
    /// GPU parameters.
    pub gpu: GpuConfig,
    /// CPU parameters.
    pub cpu: CpuConfig,
    /// HMC parameters.
    pub hmc: HmcConfig,
    /// Network parameters.
    pub noc: NocConfig,
    /// PCIe parameters.
    pub pcie: PcieConfig,
    /// Seed for all simulation-internal randomness.
    pub seed: u64,
}

impl SystemConfig {
    /// The exact Table I configuration (4 GPUs, 16 HMCs).
    pub fn paper() -> Self {
        SystemConfig {
            n_gpus: 4,
            hmcs_per_gpu: 4,
            cpu_hmcs: 4,
            page_bytes: 4096,
            gpu: GpuConfig {
                n_sms: 64,
                threads_per_sm: 1024,
                ctas_per_sm: 8,
                simd_width: 32,
                l1: CacheConfig {
                    size_bytes: 32 << 10,
                    assoc: 4,
                    line_bytes: 128,
                    latency_cycles: 4,
                    mshrs: 32,
                },
                l2: CacheConfig {
                    size_bytes: 2 << 20,
                    assoc: 16,
                    line_bytes: 128,
                    latency_cycles: 20,
                    mshrs: 128,
                },
                core_mhz: 1400.0,
                xbar_mhz: 1250.0,
                l2_mhz: 700.0,
                xbar_latency: 8,
                l2_banks: 8,
            },
            cpu: CpuConfig {
                freq_mhz: 4000.0,
                issue_width: 4,
                rob_size: 64,
                l1: CacheConfig {
                    size_bytes: 64 << 10,
                    assoc: 4,
                    line_bytes: 64,
                    latency_cycles: 2,
                    mshrs: 16,
                },
                l2: CacheConfig {
                    size_bytes: 16 << 20,
                    assoc: 16,
                    line_bytes: 64,
                    latency_cycles: 10,
                    mshrs: 32,
                },
            },
            hmc: HmcConfig {
                layers: 8,
                vaults: 16,
                banks_per_vault: 16,
                capacity_bytes: 4 << 30,
                vault_queue: 16,
                tck_ns: 1.25,
                t_rp: 11,
                t_ccd: 4,
                t_rcd: 11,
                t_cl: 11,
                t_wr: 12,
                t_ras: 22,
                vault_bus_bytes_per_tck: 8,
                t_refi: 3120,
                t_rfc: 128,
                atomic_extra_tck: 4,
            },
            noc: NocConfig {
                channel_gbs: 20.0,
                channels_per_device: 8,
                router_mhz: 1250.0,
                pipeline_stages: 4,
                serdes_ns: 3.2,
                vcs_per_class: 6,
                vc_buffer_bytes: 512,
                flit_bytes: 16,
                energy_pj_per_bit: 2.0,
                idle_pj_per_bit: 1.5,
                passthrough_cycles: 1,
            },
            pcie: PcieConfig {
                gbs: 15.75,
                latency_ns: 300.0,
            },
            seed: 0xC0FFEE,
        }
    }

    /// A proportionally scaled-down machine for fast experiment sweeps:
    /// 16 SMs per GPU with L2 capacity, MSHRs and L2 banking scaled by the
    /// same 1/4 factor. Workload models are sized against this machine.
    pub fn scaled() -> Self {
        let mut c = Self::paper();
        c.gpu.n_sms = 16;
        c.gpu.l2.size_bytes /= 4;
        c.gpu.l2.mshrs /= 2;
        c.gpu.l2_banks = 4;
        c
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_gpus == 0 {
            return Err("system must have at least one GPU".into());
        }
        if self.hmcs_per_gpu == 0 {
            return Err("each GPU needs at least one local HMC".into());
        }
        if !self.page_bytes.is_power_of_two() {
            return Err(format!(
                "page size {} is not a power of two",
                self.page_bytes
            ));
        }
        if !self
            .noc
            .channels_per_device
            .is_multiple_of(self.hmcs_per_gpu)
        {
            return Err(format!(
                "{} channels cannot be distributed evenly over {} local HMCs",
                self.noc.channels_per_device, self.hmcs_per_gpu
            ));
        }
        for (name, cache) in [
            ("gpu.l1", self.gpu.l1),
            ("gpu.l2", self.gpu.l2),
            ("cpu.l1", self.cpu.l1),
            ("cpu.l2", self.cpu.l2),
        ] {
            let lines = cache.size_bytes / cache.line_bytes as u64;
            if !lines.is_multiple_of(cache.assoc as u64) {
                return Err(format!("{name}: lines not divisible by associativity"));
            }
        }
        if !self.hmc.vaults.is_power_of_two() || !self.hmc.banks_per_vault.is_power_of_two() {
            return Err("vault and bank counts must be powers of two".into());
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = SystemConfig::paper();
        assert_eq!(c.gpu.n_sms, 64);
        assert_eq!(c.gpu.l1.size_bytes, 32 * 1024);
        assert_eq!(c.gpu.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.hmc.vaults, 16);
        assert_eq!(c.hmc.banks_per_vault, 16);
        assert_eq!(c.hmc.t_cl, 11);
        assert_eq!(c.noc.channels_per_device, 8);
        assert_eq!(c.n_gpus * c.hmcs_per_gpu, 16);
        c.validate().expect("paper config must validate");
    }

    #[test]
    fn scaled_config_validates() {
        SystemConfig::scaled()
            .validate()
            .expect("scaled config must validate");
    }

    #[test]
    fn noc_derived_quantities() {
        let n = SystemConfig::paper().noc;
        assert_eq!(n.bytes_per_cycle(), 16.0); // 20 GB/s at 1.25 GHz
        assert_eq!(n.serdes_cycles(), 4); // 3.2 ns at 0.8 ns/cycle
        assert_eq!(n.vc_buffer_flits(), 32);
    }

    #[test]
    fn cache_sets() {
        let l1 = SystemConfig::paper().gpu.l1;
        assert_eq!(l1.sets(), 64); // 32 KB / 128 B / 4-way
    }

    #[test]
    fn vault_bandwidth() {
        let h = SystemConfig::paper().hmc;
        assert!((h.vault_bus_bytes_per_tck as f64 / h.tck_ns - 6.4).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SystemConfig::paper();
        c.page_bytes = 5000;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::paper();
        c.n_gpus = 0;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::paper();
        c.hmcs_per_gpu = 3;
        assert!(c.validate().is_err());
    }
}

// The JSON round-trip test for SystemConfig lives in memnet-obs
// (crates/obs/src/config.rs), which owns the serialization bindings.

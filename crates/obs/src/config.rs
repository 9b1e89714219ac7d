//! JSON bindings for the shared configuration types in `memnet-common`.
//!
//! `memnet-common` stays dependency-free and serialization-agnostic; this
//! module owns the mapping of its public types onto [`crate::json`]: the
//! [`ToJson`](crate::json::ToJson) impls for export, which the
//! configuration fingerprint hashes.

use crate::to_json_struct;
use memnet_common::config::{
    CacheConfig, CpuConfig, GpuConfig, HmcConfig, NocConfig, PcieConfig, SystemConfig,
};

to_json_struct!(CacheConfig {
    size_bytes,
    assoc,
    line_bytes,
    latency_cycles,
    mshrs
});
to_json_struct!(GpuConfig {
    n_sms,
    threads_per_sm,
    ctas_per_sm,
    simd_width,
    l1,
    l2,
    core_mhz,
    xbar_mhz,
    l2_mhz,
    xbar_latency,
    l2_banks,
});
to_json_struct!(CpuConfig {
    freq_mhz,
    issue_width,
    rob_size,
    l1,
    l2
});
to_json_struct!(HmcConfig {
    layers,
    vaults,
    banks_per_vault,
    capacity_bytes,
    vault_queue,
    tck_ns,
    t_rp,
    t_ccd,
    t_rcd,
    t_cl,
    t_wr,
    t_ras,
    vault_bus_bytes_per_tck,
    t_refi,
    t_rfc,
    atomic_extra_tck,
});
to_json_struct!(NocConfig {
    channel_gbs,
    channels_per_device,
    router_mhz,
    pipeline_stages,
    serdes_ns,
    vcs_per_class,
    vc_buffer_bytes,
    flit_bytes,
    energy_pj_per_bit,
    idle_pj_per_bit,
    passthrough_cycles,
});
to_json_struct!(PcieConfig { gbs, latency_ns });
to_json_struct!(SystemConfig {
    n_gpus,
    hmcs_per_gpu,
    cpu_hmcs,
    page_bytes,
    gpu,
    cpu,
    hmc,
    noc,
    pcie,
    seed,
});

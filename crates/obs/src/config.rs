//! JSON bindings for the shared configuration and statistics types in
//! `memnet-common`.
//!
//! `memnet-common` stays dependency-free and serialization-agnostic; this
//! module owns the mapping of its public types onto [`crate::json`]: the
//! [`ToJson`] impls for export, which the configuration fingerprint hashes.

use crate::json::{JsonWriter, ToJson};
use crate::to_json_struct;
use memnet_common::config::{
    CacheConfig, CpuConfig, GpuConfig, HmcConfig, NocConfig, PcieConfig, SystemConfig,
};
use memnet_common::stats::{Histogram, RunningStats, TrafficMatrix};

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

impl ToJson for RunningStats {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("count", &self.count());
        w.field("sum", &self.sum());
        w.field("mean", &self.mean());
        w.field("min", &self.min());
        w.field("max", &self.max());
        w.end_object();
    }
}

impl ToJson for Histogram {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("count", &self.count());
        w.key("buckets");
        w.value(self.buckets());
        w.end_object();
    }
}

impl ToJson for TrafficMatrix {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("rows", &self.rows());
        w.field("cols", &self.cols());
        w.key("bytes");
        w.begin_array();
        for r in 0..self.rows() {
            let row: Vec<u64> = (0..self.cols()).map(|c| self.get(r, c)).collect();
            w.value(&row);
        }
        w.end_array();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn stats_types_serialize() {
        let mut s = RunningStats::new();
        s.record(3.0);
        let v = crate::json::parse(&s.to_json()).expect("valid");
        assert_eq!(v.get("count").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(v.get("min").and_then(JsonValue::as_f64), Some(3.0));
        // Empty accumulator: min/max are None → null, not ±∞ garbage.
        let empty = RunningStats::new().to_json();
        let v = crate::json::parse(&empty).expect("valid");
        assert_eq!(v.get("min"), Some(&JsonValue::Null));

        let mut h = Histogram::new();
        h.record(5);
        let v = crate::json::parse(&h.to_json()).expect("valid");
        assert_eq!(v.get("count").and_then(JsonValue::as_f64), Some(1.0));

        let mut m = TrafficMatrix::new(2, 2);
        m.add(0, 1, 64);
        let v = crate::json::parse(&m.to_json()).expect("valid");
        let rows = v.get("bytes").and_then(JsonValue::as_array).expect("rows");
        assert_eq!(rows.len(), 2);
    }
}

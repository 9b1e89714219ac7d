//! Deterministic full-state checkpoints.
//!
//! A [`SystemSnapshot`] captures every bit of mutable simulation state at
//! the quiescent **pre-kernel phase boundary** (after host-pre compute and
//! the host→device copies, before the first kernel cycle) of one run:
//! clock-domain cycle counts, warm CPU caches, HMC bank timing, the
//! network's RNG/packet-slot/fault state, the first-touch page table, the
//! traffic matrix and the fault/recovery counters. Restoring it onto an
//! identically configured [`SimBuilder`](crate::SimBuilder) — verified by
//! the configuration fingerprint — reproduces the rest of the run
//! bit-identically under either [`EngineMode`](crate::EngineMode), so
//! sweeps that share a warmup prefix can fork from one snapshot and a
//! sanitizer violation can be bisected by replay.
//!
//! Deliberately **not** in a snapshot:
//!
//! * configuration — re-derived by rebuilding from the same builder
//!   (regions, graphs, resolved fault plan, clock periods);
//! * pure observers (tracer, metrics registry, profiler) — a restored run
//!   starts them fresh and observes only its own suffix;
//! * in-flight work — the boundary is quiescent by construction (empty
//!   queues, settled credits, drained cubes), which the component
//!   `snapshot_state` methods assert.
//!
//! # Encoding
//!
//! Snapshots serialize to a single JSON document through the
//! `memnet-obs` JSON layer. Every integer is encoded as a **decimal
//! string** and every float as its **IEEE-754 bit pattern in a decimal
//! string**: the obs parser stores JSON numbers as `f64`, which would
//! silently round u64 values above 2^53, and the writer maps non-finite
//! floats to `null`, which would destroy the `RunningStats` ±∞
//! sentinels. String-encoding sidesteps both, keeping the round trip
//! bit-exact.

use memnet_common::stats::RunningStats;
use memnet_common::time::Fs;
use memnet_cpu::{CpuState, DmaState};
use memnet_gpu::cache::CacheState;
use memnet_gpu::{CacheStats, GpuState};
use memnet_hmc::{BankState, HmcState, VaultState};
use memnet_noc::{ChannelState, NetStats, NetworkState};
use memnet_obs::json::{parse, Field, Fields};
use memnet_obs::JsonWriter;

use crate::memory::MemoryState;
use crate::sanitize::SanitizerState;

/// Snapshot format version, bumped on any encoding change.
const FORMAT_VERSION: u64 = 1;

/// FNV-1a over `bytes`, finished with the SplitMix64 avalanche so the low
/// bits are as well mixed as the high ones. Used for configuration
/// fingerprints and content-addressed job hashes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Full mutable simulation state at the pre-kernel phase boundary.
///
/// Produced by
/// [`SimBuilder::try_run_checkpointed`](crate::SimBuilder::try_run_checkpointed),
/// consumed by
/// [`SimBuilder::try_run_restored`](crate::SimBuilder::try_run_restored).
/// Serializes losslessly through [`SystemSnapshot::to_json_string`] /
/// [`SystemSnapshot::from_json`].
#[derive(Debug, Clone)]
pub struct SystemSnapshot {
    /// [`SimBuilder::fingerprint`](crate::SimBuilder::fingerprint) of the
    /// configuration that took the snapshot.
    pub(crate) fingerprint: u64,
    /// Opaque caller string (the CLI stores the original run flags here).
    pub(crate) meta: String,
    /// Simulated instant of the boundary, fs.
    pub(crate) now: Fs,
    /// Clock cycle count per domain, in `domain` index order.
    pub(crate) clock_cycles: Vec<u64>,
    /// Elapsed host-compute time of the prefix, fs.
    pub(crate) host_fs: Fs,
    /// Elapsed memcpy time of the prefix, fs.
    pub(crate) memcpy_fs: Fs,
    pub(crate) faults_injected: u64,
    pub(crate) failed_requests: u64,
    pub(crate) rebalanced_ctas: u64,
    pub(crate) lost_gpus: u64,
    pub(crate) steal_events: u64,
    pub(crate) gpus: Vec<GpuState>,
    pub(crate) cpu: CpuState,
    pub(crate) dma: DmaState,
    pub(crate) hmcs: Vec<HmcState>,
    pub(crate) net: NetworkState,
    pub(crate) memory: MemoryState,
    /// Raw traffic-matrix cells, row-major.
    pub(crate) traffic_bytes: Vec<u64>,
    /// Accumulated audit state when the checkpointing run sanitized.
    pub(crate) sanitizer: Option<SanitizerState>,
}

impl SystemSnapshot {
    /// The configuration fingerprint the snapshot was taken under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The opaque caller string stored at checkpoint time.
    pub fn meta(&self) -> &str {
        &self.meta
    }

    /// The simulated instant of the snapshot boundary, femtoseconds.
    pub fn now_fs(&self) -> Fs {
        self.now
    }

    /// Serializes the snapshot as one pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("memnet_snapshot");
        w.string(&FORMAT_VERSION.to_string());
        wu(&mut w, "fingerprint", self.fingerprint);
        w.key("meta");
        w.string(&self.meta);
        wu(&mut w, "now", self.now);
        wu_arr(&mut w, "clocks", self.clock_cycles.iter().copied());
        wu(&mut w, "host_fs", self.host_fs);
        wu(&mut w, "memcpy_fs", self.memcpy_fs);
        wu(&mut w, "faults_injected", self.faults_injected);
        wu(&mut w, "failed_requests", self.failed_requests);
        wu(&mut w, "rebalanced_ctas", self.rebalanced_ctas);
        wu(&mut w, "lost_gpus", self.lost_gpus);
        wu(&mut w, "steal_events", self.steal_events);
        w.key("gpus");
        w.begin_array();
        for g in &self.gpus {
            write_gpu(&mut w, g);
        }
        w.end_array();
        w.key("cpu");
        write_cpu(&mut w, &self.cpu);
        w.key("dma");
        w.begin_object();
        wu(&mut w, "next_req", self.dma.next_req);
        wu(&mut w, "bytes_copied", self.dma.bytes_copied);
        w.end_object();
        w.key("hmcs");
        w.begin_array();
        for h in &self.hmcs {
            write_hmc(&mut w, h);
        }
        w.end_array();
        w.key("net");
        write_net(&mut w, &self.net);
        w.key("memory");
        write_memory(&mut w, &self.memory);
        wu_arr(&mut w, "traffic", self.traffic_bytes.iter().copied());
        if let Some(s) = &self.sanitizer {
            w.key("sanitizer");
            write_sanitizer(&mut w, s);
        }
        w.end_object();
        w.finish()
    }

    /// Parses a snapshot serialized by [`SystemSnapshot::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON, a missing or
    /// unsupported format version, or any absent/mistyped field.
    pub fn from_json(text: &str) -> Result<SystemSnapshot, String> {
        let v = parse(text).map_err(|e| format!("snapshot: {e}"))?;
        Field::root(&v, "")
            .record(read_snapshot)
            .map_err(|e| format!("snapshot: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Write helpers — integers as decimal strings, floats as bit patterns.
// ---------------------------------------------------------------------------

fn wu(w: &mut JsonWriter, key: &str, v: u64) {
    w.key(key);
    w.string(&v.to_string());
}

fn wf(w: &mut JsonWriter, key: &str, v: f64) {
    w.key(key);
    w.string(&v.to_bits().to_string());
}

fn wu_arr(w: &mut JsonWriter, key: &str, vs: impl Iterator<Item = u64>) {
    w.key(key);
    w.begin_array();
    for v in vs {
        w.string(&v.to_string());
    }
    w.end_array();
}

fn write_running(w: &mut JsonWriter, key: &str, s: &RunningStats) {
    let (count, sum, min, max) = s.raw();
    w.key(key);
    w.begin_object();
    wu(w, "count", count);
    wf(w, "sum", sum);
    wf(w, "min", min);
    wf(w, "max", max);
    w.end_object();
}

fn write_cache_stats(w: &mut JsonWriter, s: &CacheStats) {
    wu(w, "read_hits", s.read_hits);
    wu(w, "read_misses", s.read_misses);
    wu(w, "write_hits", s.write_hits);
    wu(w, "write_misses", s.write_misses);
}

fn write_cache(w: &mut JsonWriter, c: &CacheState) {
    w.begin_object();
    // (tag, valid, lru) triplets, flattened set-major.
    w.key("ways");
    w.begin_array();
    for &(tag, valid, lru) in &c.ways {
        w.string(&tag.to_string());
        w.string(if valid { "1" } else { "0" });
        w.string(&lru.to_string());
    }
    w.end_array();
    wu(w, "tick", c.tick);
    write_cache_stats(w, &c.stats);
    w.end_object();
}

fn write_gpu(w: &mut JsonWriter, g: &GpuState) {
    w.begin_object();
    w.key("dead");
    w.boolean(g.dead);
    wu(w, "core_cycle", g.core_cycle);
    wu(w, "next_req", g.next_req);
    wu(w, "mem_reqs", g.mem_reqs);
    w.key("l2");
    write_cache(w, &g.l2);
    w.end_object();
}

fn write_cpu(w: &mut JsonWriter, c: &CpuState) {
    w.begin_object();
    wu(w, "cycle", c.cycle);
    wu(w, "compute_until", c.compute_until);
    wu(w, "next_req", c.next_req);
    wu(w, "ops", c.stats.ops);
    wu(w, "mem_reads", c.stats.mem_reads);
    wu(w, "busy_cycles", c.stats.busy_cycles);
    w.key("l1");
    write_cache(w, &c.l1);
    w.key("l2");
    write_cache(w, &c.l2);
    w.end_object();
}

fn write_hmc(w: &mut JsonWriter, h: &HmcState) {
    w.begin_object();
    wu(w, "seq", h.seq);
    wu_arr(w, "stalled_until", h.stalled_until.iter().copied());
    wu(w, "stalls", h.stalls);
    w.key("vaults");
    w.begin_array();
    for v in &h.vaults {
        w.begin_object();
        // Per bank: [open_row ("-" = closed), next_cmd, activated_at,
        // write_recovery_until, next_refresh], flattened.
        w.key("banks");
        w.begin_array();
        for b in &v.banks {
            match b.open_row {
                Some(r) => w.string(&r.to_string()),
                None => w.string("-"),
            }
            w.string(&b.next_cmd.to_string());
            w.string(&b.activated_at.to_string());
            w.string(&b.write_recovery_until.to_string());
            w.string(&b.next_refresh.to_string());
        }
        w.end_array();
        wu(w, "bus_free_at", v.bus_free_at);
        wu(w, "row_hits", v.stats.row_hits);
        wu(w, "row_misses", v.stats.row_misses);
        wu(w, "served", v.stats.served);
        wu(w, "bytes", v.stats.bytes);
        wu(w, "refreshes", v.stats.refreshes);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

fn write_net(w: &mut JsonWriter, n: &NetworkState) {
    w.begin_object();
    wu(w, "cycle", n.cycle);
    wu(w, "seq", n.seq);
    wu(w, "rng_state", n.rng_state);
    wu(w, "packet_slots", n.packet_slots);
    wu_arr(w, "free_pids", n.free_pids.iter().map(|&p| u64::from(p)));
    w.field("link_up", &n.link_up);
    // Per channel: [up, degrade, busy_until, bytes_moved, busy_cycles].
    let cells = |c: &ChannelState| {
        let (up, degrade) = (u64::from(c.up), u64::from(c.degrade));
        [up, degrade, c.busy_until, c.bytes_moved, c.busy_cycles]
    };
    wu_arr(w, "channels", n.channels.iter().flat_map(cells));
    w.key("stats");
    w.begin_object();
    wu(w, "delivered", n.stats.delivered);
    write_running(w, "latency", &n.stats.latency);
    write_running(w, "hops", &n.stats.hops);
    wu(w, "nonminimal", n.stats.nonminimal);
    wu(w, "passthrough", n.stats.passthrough);
    wu(w, "bytes_delivered", n.stats.bytes_delivered);
    wu(w, "flits_injected", n.stats.flits_injected);
    wu(w, "reroutes", n.stats.reroutes);
    wu(w, "retries", n.stats.retries);
    wu(w, "dead_letters", n.stats.dead_letters);
    wu(w, "packets_injected", n.stats.packets_injected);
    wu(w, "flit_hops", n.stats.flit_hops);
    w.end_object();
    w.end_object();
}

fn write_memory(w: &mut JsonWriter, m: &MemoryState) {
    w.begin_object();
    // (vpage, ppage) pairs, flattened in ascending key order.
    wu_arr(
        w,
        "page_table",
        m.page_table.iter().flat_map(|&(v, p)| [v, p]),
    );
    wu_arr(w, "next_seq", m.next_seq.iter().copied());
    wu(w, "rng_state", m.rng_state);
    wu(w, "rr_next", m.rr_next);
    w.end_object();
}

fn write_sanitizer(w: &mut JsonWriter, s: &SanitizerState) {
    w.begin_object();
    wu(w, "checks", s.checks);
    w.field("violations", &s.violations);
    wu(w, "dropped", s.dropped);
    wu(w, "ctas_launched", s.ctas_launched);
    wu(w, "ctas_dropped", s.ctas_dropped);
    w.end_object();
}

// ---------------------------------------------------------------------------
// Reading — through the one strict reader (`memnet_obs::Fields`), so every
// message names the full path (`gpus[0].l2.ways`).
// ---------------------------------------------------------------------------

fn read_snapshot(f: &Fields) -> Result<SystemSnapshot, String> {
    let version = f.req("memnet_snapshot")?.u64_str()?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version} is not supported (expected {FORMAT_VERSION})"
        ));
    }
    Ok(SystemSnapshot {
        fingerprint: f.req("fingerprint")?.u64_str()?,
        meta: f.req("meta")?.str()?.to_string(),
        now: f.req("now")?.u64_str()?,
        clock_cycles: f.req("clocks")?.list(|x| x.u64_str())?,
        host_fs: f.req("host_fs")?.u64_str()?,
        memcpy_fs: f.req("memcpy_fs")?.u64_str()?,
        faults_injected: f.req("faults_injected")?.u64_str()?,
        failed_requests: f.req("failed_requests")?.u64_str()?,
        rebalanced_ctas: f.req("rebalanced_ctas")?.u64_str()?,
        lost_gpus: f.req("lost_gpus")?.u64_str()?,
        steal_events: f.req("steal_events")?.u64_str()?,
        gpus: f.req("gpus")?.list(|x| x.record(read_gpu))?,
        cpu: f.req("cpu")?.record(read_cpu)?,
        dma: f.req("dma")?.record(|d| {
            Ok(DmaState {
                next_req: d.req("next_req")?.u64_str()?,
                bytes_copied: d.req("bytes_copied")?.u64_str()?,
            })
        })?,
        hmcs: f.req("hmcs")?.list(|x| x.record(read_hmc))?,
        net: f.req("net")?.record(read_net)?,
        memory: f.req("memory")?.record(read_memory)?,
        traffic_bytes: f.req("traffic")?.list(|x| x.u64_str())?,
        sanitizer: f
            .opt("sanitizer")?
            .map(|x| x.record(read_sanitizer))
            .transpose()?,
    })
}

/// A flattened array of fixed-width records: `each` converts one record.
fn rows<'a, 'p, T>(
    flat: Field<'a, 'p>,
    width: usize,
    each: impl Fn(&[Field<'a, 'p>]) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let cells = flat.list(Ok)?;
    if cells.len() % width != 0 {
        let path = flat.path();
        return Err(format!("'{path}' length is not a multiple of {width}"));
    }
    cells.chunks_exact(width).map(each).collect()
}

/// A decimal-string `u64` that must also fit a `u32`.
fn u32_str(x: Field) -> Result<u32, String> {
    u32::try_from(x.u64_str()?).map_err(|_| format!("'{}' is out of u32 range", x.path()))
}

fn read_running(f: &Fields) -> Result<RunningStats, String> {
    let bits = |key| f.req(key)?.u64_str().map(f64::from_bits);
    Ok(RunningStats::from_raw(
        f.req("count")?.u64_str()?,
        bits("sum")?,
        bits("min")?,
        bits("max")?,
    ))
}

fn read_cache(f: &Fields) -> Result<CacheState, String> {
    Ok(CacheState {
        ways: rows(f.req("ways")?, 3, |c| {
            Ok((c[0].u64_str()?, c[1].u64_str()? != 0, c[2].u64_str()?))
        })?,
        tick: f.req("tick")?.u64_str()?,
        stats: CacheStats {
            read_hits: f.req("read_hits")?.u64_str()?,
            read_misses: f.req("read_misses")?.u64_str()?,
            write_hits: f.req("write_hits")?.u64_str()?,
            write_misses: f.req("write_misses")?.u64_str()?,
        },
    })
}

fn read_gpu(f: &Fields) -> Result<GpuState, String> {
    Ok(GpuState {
        dead: f.req("dead")?.bool()?,
        core_cycle: f.req("core_cycle")?.u64_str()?,
        next_req: f.req("next_req")?.u64_str()?,
        mem_reqs: f.req("mem_reqs")?.u64_str()?,
        l2: f.req("l2")?.record(read_cache)?,
    })
}

fn read_cpu(f: &Fields) -> Result<CpuState, String> {
    Ok(CpuState {
        cycle: f.req("cycle")?.u64_str()?,
        compute_until: f.req("compute_until")?.u64_str()?,
        next_req: f.req("next_req")?.u64_str()?,
        stats: memnet_cpu::CpuStats {
            ops: f.req("ops")?.u64_str()?,
            mem_reads: f.req("mem_reads")?.u64_str()?,
            busy_cycles: f.req("busy_cycles")?.u64_str()?,
        },
        l1: f.req("l1")?.record(read_cache)?,
        l2: f.req("l2")?.record(read_cache)?,
    })
}

fn read_vault(f: &Fields) -> Result<VaultState, String> {
    Ok(VaultState {
        banks: rows(f.req("banks")?, 5, |c| {
            Ok(BankState {
                open_row: match c[0].str()? {
                    "-" => None,
                    _ => Some(c[0].u64_str()?),
                },
                next_cmd: c[1].u64_str()?,
                activated_at: c[2].u64_str()?,
                write_recovery_until: c[3].u64_str()?,
                next_refresh: c[4].u64_str()?,
            })
        })?,
        bus_free_at: f.req("bus_free_at")?.u64_str()?,
        stats: memnet_hmc::vault::VaultStats {
            row_hits: f.req("row_hits")?.u64_str()?,
            row_misses: f.req("row_misses")?.u64_str()?,
            served: f.req("served")?.u64_str()?,
            bytes: f.req("bytes")?.u64_str()?,
            refreshes: f.req("refreshes")?.u64_str()?,
        },
    })
}

fn read_hmc(f: &Fields) -> Result<HmcState, String> {
    Ok(HmcState {
        seq: f.req("seq")?.u64_str()?,
        stalled_until: f.req("stalled_until")?.list(|x| x.u64_str())?,
        stalls: f.req("stalls")?.u64_str()?,
        vaults: f.req("vaults")?.list(|x| x.record(read_vault))?,
    })
}

fn read_net_stats(s: &Fields) -> Result<NetStats, String> {
    Ok(NetStats {
        delivered: s.req("delivered")?.u64_str()?,
        latency: s.req("latency")?.record(read_running)?,
        hops: s.req("hops")?.record(read_running)?,
        nonminimal: s.req("nonminimal")?.u64_str()?,
        passthrough: s.req("passthrough")?.u64_str()?,
        bytes_delivered: s.req("bytes_delivered")?.u64_str()?,
        flits_injected: s.req("flits_injected")?.u64_str()?,
        reroutes: s.req("reroutes")?.u64_str()?,
        retries: s.req("retries")?.u64_str()?,
        dead_letters: s.req("dead_letters")?.u64_str()?,
        packets_injected: s.req("packets_injected")?.u64_str()?,
        flit_hops: s.req("flit_hops")?.u64_str()?,
    })
}

fn read_net(f: &Fields) -> Result<NetworkState, String> {
    Ok(NetworkState {
        cycle: f.req("cycle")?.u64_str()?,
        seq: f.req("seq")?.u64_str()?,
        rng_state: f.req("rng_state")?.u64_str()?,
        packet_slots: f.req("packet_slots")?.u64_str()?,
        free_pids: f.req("free_pids")?.list(u32_str)?,
        link_up: f.req("link_up")?.list(|x| x.bool())?,
        channels: rows(f.req("channels")?, 5, |c| {
            Ok(ChannelState {
                up: c[0].u64_str()? != 0,
                degrade: u32_str(c[1])?,
                busy_until: c[2].u64_str()?,
                bytes_moved: c[3].u64_str()?,
                busy_cycles: c[4].u64_str()?,
            })
        })?,
        stats: f.req("stats")?.record(read_net_stats)?,
    })
}

fn read_memory(f: &Fields) -> Result<MemoryState, String> {
    Ok(MemoryState {
        page_table: rows(f.req("page_table")?, 2, |c| {
            Ok((c[0].u64_str()?, c[1].u64_str()?))
        })?,
        next_seq: f.req("next_seq")?.list(|x| x.u64_str())?,
        rng_state: f.req("rng_state")?.u64_str()?,
        rr_next: f.req("rr_next")?.u64_str()?,
    })
}

fn read_sanitizer(f: &Fields) -> Result<SanitizerState, String> {
    Ok(SanitizerState {
        checks: f.req("checks")?.u64_str()?,
        violations: f.req("violations")?.list(|x| x.str().map(str::to_string))?,
        dropped: f.req("dropped")?.u64_str()?,
        ctas_launched: f.req("ctas_launched")?.u64_str()?,
        ctas_dropped: f.req("ctas_dropped")?.u64_str()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_is_stable_and_spread() {
        let a = fnv1a64(b"org=UMN;seed=1");
        let b = fnv1a64(b"org=UMN;seed=2");
        assert_ne!(a, b);
        assert_eq!(a, fnv1a64(b"org=UMN;seed=1"), "pure function of bytes");
        // One-byte difference flips roughly half the output bits.
        assert!((a ^ b).count_ones() > 8);
    }

    /// A real snapshot (a sanitizing tiny run with 8 KiB caches, so the
    /// document stays small), then bent to carry the hazards the string
    /// encoding exists for: u64s above 2^53, an empty `RunningStats` with
    /// its ±∞ sentinels, text that needs escaping, non-default flags.
    fn sample_snapshot() -> SystemSnapshot {
        let mut cfg = memnet_common::SystemConfig::scaled();
        for cache in [&mut cfg.cpu.l1, &mut cfg.cpu.l2, &mut cfg.gpu.l2] {
            cache.size_bytes = 8 * 1024;
        }
        let (_, mut snap) = crate::SimBuilder::new(crate::Organization::Gmn)
            .config(cfg)
            .gpus(2)
            .sms_per_gpu(2)
            .workload(memnet_workloads::Workload::VecAdd.spec_small())
            .sanitize(crate::SanitizeMode::Record)
            .try_run_checkpointed("")
            .expect("checkpoint");
        snap.fingerprint = u64::MAX - 3;
        snap.meta = "run --org UMN \"quoted\"\nline2".into();
        snap.now = (1u64 << 60) + 7;
        snap.gpus[0].next_req = 1 << 55;
        snap.gpus[0].dead = true;
        snap.gpus[0].l2.ways[0] = (u64::MAX, true, 3);
        snap.dma.bytes_copied = 1 << 54;
        snap.traffic_bytes[1] = 1 << 62;
        snap.memory.page_table.push((1 << 53, (1 << 53) + 1));
        snap.net.rng_state = u64::MAX;
        snap.net.free_pids.reverse();
        snap.net.link_up[1] = false;
        snap.net.channels[0].up = false;
        snap.net.channels[0].degrade = 4;
        snap.net.stats.hops = RunningStats::new();
        snap.net.stats.latency = RunningStats::from_raw(2, 30.5, 10.25, 20.25);
        snap.hmcs[0].vaults[0].banks[0].open_row = Some(123);
        snap.hmcs[0].vaults[0].banks[1].open_row = None;
        let san = snap.sanitizer.as_mut().expect("the run sanitized");
        san.violations.push("phase: net: lost a credit".into());
        snap
    }

    #[test]
    fn snapshot_json_round_trips_bit_exactly() {
        let snap = sample_snapshot();
        let json = snap.to_json_string();
        let back = SystemSnapshot::from_json(&json).expect("parse back");
        // Struct has no PartialEq (component states carry stats); compare
        // through re-serialization, which covers every field.
        assert_eq!(back.to_json_string(), json);
        assert_eq!(back.fingerprint(), snap.fingerprint());
        assert_eq!(back.meta(), snap.meta());
        assert_eq!(back.now_fs(), snap.now_fs());
        assert_eq!(back.gpus[0].next_req, 1 << 55);
        assert_eq!(back.traffic_bytes[1], 1 << 62);
        let (count, _, min, max) = back.net.stats.hops.raw();
        assert_eq!(count, 0);
        assert!(min.is_infinite() && min > 0.0, "+∞ sentinel survives");
        assert!(max.is_infinite() && max < 0.0, "-∞ sentinel survives");
    }

    #[test]
    fn malformed_snapshots_are_typed_errors() {
        assert!(SystemSnapshot::from_json("not json").is_err());
        assert!(SystemSnapshot::from_json("{}")
            .unwrap_err()
            .contains("memnet_snapshot"));
        let v2 = r#"{"memnet_snapshot":"2"}"#;
        assert!(SystemSnapshot::from_json(v2)
            .unwrap_err()
            .contains("version"));
        // Numbers must be decimal strings, and unknown or duplicate keys
        // are refused, each by its full path.
        let good = sample_snapshot().to_json_string();
        let now = "\"now\": \"1152921504606846983\"";
        for (from, to, want) in [
            (now, "\"now\": 1152921504606846983", "'now' must be a u64"),
            (
                now,
                "\"now\": \"1\", \"now\": \"2\"",
                "duplicate field 'now'",
            ),
            (
                "\"dead\": true",
                "\"dead\": true, \"deaf\": true",
                "'gpus[0].deaf'",
            ),
            ("\"stalls\": \"0\"", "\"stalls\": \"x\"", "'hmcs[0].stalls'"),
            // Anchored on the array opening: bank 0's open row, not some
            // cache tag that happens to print as "123".
            (
                "\"banks\": [\n            \"123\"",
                "\"banks\": [\n            \"-123\"",
                "'hmcs[0].vaults[0].banks[0]'",
            ),
        ] {
            assert!(good.contains(from), "fixture lost {from}");
            let err = SystemSnapshot::from_json(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
    }
}

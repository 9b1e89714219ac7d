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
//!   `snapshot` methods assert.
//!
//! # Encoding
//!
//! A snapshot *is* one JSON document, held as its text. This module
//! writes and reads its header; each stateful component writes its own record
//! (`snapshot`) and reads it back into a freshly built copy of itself,
//! which it returns (`restored`), and the driver hands each its record.
//! Every value is in its [`Snap`] encoding, which says why an integer is
//! a decimal string and a float its bit pattern; a plain-data record
//! ([`memnet_obs::snap_struct!`]) names its fields once.

use memnet_common::time::Fs;
use memnet_obs::json::{Field, Fields, JsonValue, Snap, ToJson};

/// Snapshot format version, bumped on any encoding change. Version 2
/// records only the cache ways a run touched and drops the network's
/// event sequence number; version 3 records only the HMC banks that
/// differ from a fresh vault's. Versions 1 and 2 are still read (each
/// owner's reader takes either form of its record).
const FORMAT_VERSION: u64 = 3;

memnet_obs::snap_struct! {
    /// The driver's fault and scheduling counters, which the header
    /// carries after the prefix's phase times.
    #[derive(Debug, Clone, Copy, Default)]
    pub(crate) struct Counters {
        pub(crate) faults_injected: u64,
        pub(crate) failed_requests: u64,
        pub(crate) rebalanced_ctas: u64,
        pub(crate) lost_gpus: u64,
        pub(crate) steal_events: u64,
    }
}

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

/// The snapshot's own members: everything but the component records.
#[derive(Debug, Clone)]
pub(crate) struct Header {
    /// [`SimBuilder::fingerprint`](crate::SimBuilder::fingerprint) of the
    /// configuration that took the snapshot.
    pub(crate) fingerprint: u64,
    /// Opaque caller string (the CLI stores the original run flags here).
    pub(crate) meta: String,
    /// Simulated instant of the boundary, fs.
    pub(crate) now: Fs,
    /// Clock cycle count per domain, in `domain` index order.
    pub(crate) clocks: Vec<u64>,
    /// Elapsed host-compute time of the prefix, fs.
    pub(crate) host_fs: Fs,
    /// Elapsed memcpy time of the prefix, fs.
    pub(crate) memcpy_fs: Fs,
    /// The driver's counters.
    pub(crate) counters: Counters,
}

impl Header {
    /// Reads the header members of a snapshot document, leaving each
    /// component record to its owner.
    ///
    /// # Errors
    ///
    /// Refuses an unsupported format version, a mistyped member, and
    /// prefix phase times that add up past `now`.
    pub(crate) fn read(f: &Fields) -> Result<Header, String> {
        let version = f.req("memnet_snapshot")?.u64_str()?;
        if !(1..=FORMAT_VERSION).contains(&version) {
            return Err(format!(
                "'memnet_snapshot': format version {version} is not supported \
                 (expected {FORMAT_VERSION})"
            ));
        }
        let now = f.get("now")?;
        let host_fs: Fs = f.get("host_fs")?;
        let memcpy_fs: Fs = f.get("memcpy_fs")?;
        if host_fs + memcpy_fs > now {
            return Err("field 'host_fs' + 'memcpy_fs' is past 'now'".into());
        }
        Ok(Header {
            fingerprint: f.req("fingerprint")?.u64_str()?,
            meta: f.get("meta")?,
            now,
            clocks: f.get("clocks")?,
            host_fs,
            memcpy_fs,
            counters: Counters::read(f)?,
        })
    }
}

/// Full mutable simulation state at the pre-kernel phase boundary: the
/// text of one JSON document, its header checked.
///
/// Produced by
/// [`SimBuilder::try_run_checkpointed`](crate::SimBuilder::try_run_checkpointed),
/// consumed by
/// [`SimBuilder::try_run_restored`](crate::SimBuilder::try_run_restored).
/// Serializes losslessly through [`SystemSnapshot::to_json_string`] /
/// [`SystemSnapshot::from_json`].
#[derive(Debug, Clone)]
pub struct SystemSnapshot {
    /// The header of `text`, read once.
    pub(crate) header: Header,
    /// The document: the header's members, then each component's record.
    pub(crate) text: String,
}

impl SystemSnapshot {
    /// Writes the document: the header's members, then the component
    /// `records` in order.
    pub(crate) fn new(header: Header, records: Vec<(&str, JsonValue)>) -> SystemSnapshot {
        let h = &header;
        let mut members = vec![
            ("memnet_snapshot", FORMAT_VERSION.snap()),
            ("fingerprint", h.fingerprint.snap()),
            ("meta", h.meta.snap()),
            ("now", h.now.snap()),
            ("clocks", h.clocks.snap()),
            ("host_fs", h.host_fs.snap()),
            ("memcpy_fs", h.memcpy_fs.snap()),
        ];
        members.extend(h.counters.members());
        members.extend(records);
        let text = JsonValue::object(members).to_json();
        SystemSnapshot { header, text }
    }

    /// The configuration fingerprint the snapshot was taken under.
    pub fn fingerprint(&self) -> u64 {
        self.header.fingerprint
    }

    /// The opaque caller string stored at checkpoint time.
    pub fn meta(&self) -> &str {
        &self.header.meta
    }

    /// The simulated instant of the snapshot boundary, femtoseconds.
    pub fn now_fs(&self) -> Fs {
        self.header.now
    }

    /// The snapshot's JSON document: compact, on one line, as written
    /// (or as read, for a snapshot from [`SystemSnapshot::from_json`]).
    pub fn to_json_string(&self) -> String {
        self.text.clone()
    }

    /// Checks a snapshot document written by
    /// [`SystemSnapshot::to_json_string`], in either layout (a format 3
    /// file from before the compact writer is indented), and reads its
    /// header. Each component record is checked by its owner when
    /// [`SimBuilder::try_run_restored`](crate::SimBuilder::try_run_restored)
    /// hands it over.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON, a missing or
    /// unsupported format version, or any absent/mistyped header field.
    pub fn from_json(text: &str) -> Result<SystemSnapshot, String> {
        let doc = Field::root(text, "").map_err(|e| format!("snapshot: {e}"))?;
        let header = doc
            .object()
            .and_then(|f| Header::read(&f))
            .map_err(|e| format!("snapshot: {e}"))?;
        let text = text.to_string();
        Ok(SystemSnapshot { header, text })
    }
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
    /// document stays small) round-trips, and its header is checked:
    /// numbers must be decimal strings, duplicate keys are refused, and the
    /// prefix must fit before `now`, each named by its path.
    #[test]
    fn snapshot_json_round_trips_and_header_errors_are_typed() {
        let mut cfg = memnet_common::SystemConfig::scaled();
        for cache in [&mut cfg.cpu.l1, &mut cfg.cpu.l2, &mut cfg.gpu.l2] {
            cache.size_bytes = 8 * 1024;
        }
        let (_, snap) = crate::SimBuilder::new(crate::Organization::Gmn)
            .config(cfg)
            .gpus(2)
            .sms_per_gpu(2)
            .workload(memnet_workloads::Workload::VecAdd.spec_small())
            .sanitize(crate::SanitizeMode::Record)
            .try_run_checkpointed("run --org UMN \"quoted\"\nline2")
            .expect("checkpoint");
        let good = snap.to_json_string();
        let back = SystemSnapshot::from_json(&good).expect("parse back");
        assert_eq!(back.text, snap.text);
        assert_eq!(back.header.meta, snap.header.meta);
        assert!(SystemSnapshot::from_json("not json").is_err());
        assert!(SystemSnapshot::from_json("{}")
            .unwrap_err()
            .contains("memnet_snapshot"));
        for (from, to, want) in [
            ("_snapshot\":\"3", "_snapshot\":\"4", "version 4"),
            ("_snapshot\":\"3", "_snapshot\":\"0", "version 0"),
            ("\"now\":\"", "\"now\":\"x", "'now' must be"),
            ("\"now\":", "\"now\":\"1\",\"now\":", "duplicate"),
            (
                "host_fs\":\"0\"",
                "host_fs\":\"9007199254740992\"",
                "past 'now'",
            ),
        ] {
            assert!(good.contains(from), "fixture lost {from}");
            let err = SystemSnapshot::from_json(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
    }
}

//! What a checkpoint holds, and how each record is handed back to its
//! owner on a freshly built system.

use super::System;
use crate::sanitize::Audit;
use crate::snapshot::{Header, SystemSnapshot};
use memnet_common::time::Fs;
use memnet_gpu::Gpu;
use memnet_hmc::HmcDevice;
use memnet_obs::json::{fit_len, snaps, Fields, JsonValue, Snap};
use memnet_obs::ClockDomain;
use std::iter::zip;

impl System {
    /// Captures the full mutable simulation state at the normalized,
    /// quiescent pre-kernel boundary: the header, then each component's
    /// own record. Pure observers (tracer, metrics registry, profiler) are
    /// deliberately *not* part of a snapshot: a restored run starts them
    /// fresh, observing only its own suffix.
    pub(super) fn take_snapshot(
        &self,
        meta: &str,
        fingerprint: u64,
        host_fs: Fs,
        memcpy_fs: Fs,
    ) -> SystemSnapshot {
        let header = Header {
            fingerprint,
            meta: meta.to_string(),
            now: self.now,
            clocks: ClockDomain::ALL
                .map(|d| self.cal.clock(d as usize).cycles())
                .to_vec(),
            host_fs,
            memcpy_fs,
            counters: self.counters,
        };
        let gpus = self.gpus.iter().map(Gpu::snapshot).collect();
        let hmcs = self.hmcs.iter().map(HmcDevice::snapshot).collect();
        let traffic = snaps(self.traffic.raw_bytes().iter().copied());
        let mut records = vec![
            ("gpus", JsonValue::Array(gpus)),
            ("cpu", self.cpu.snapshot()),
            ("dma", self.dma.snapshot()),
            ("hmcs", JsonValue::Array(hmcs)),
            ("net", self.net.snapshot()),
            ("memory", self.layout.snapshot()),
            ("traffic", traffic),
        ];
        if let Some(s) = &self.san {
            records.push(("sanitizer", JsonValue::object(s.audit.members())));
        }
        SystemSnapshot::new(header, records)
    }

    /// This system, fresh from [`System::try_build`], holding a snapshot
    /// document `f` taken on an identically configured system (the caller
    /// checks the fingerprint), with the prefix's `(host_fs, memcpy_fs)`.
    /// All clock domains come back armed; in event-driven mode idle
    /// domains tick one no-op edge and re-park, which yields the same
    /// counter end-state as the checkpointing run's bulk skip accounting.
    /// Pending resolved faults whose edge lies at or before the snapshot
    /// instant were already applied by the checkpointing run — their
    /// effects live in the restored component state — so they are
    /// dropped from the queue fronts.
    ///
    /// A matching fingerprint does not stop a hand-edited file, so each
    /// record is read, and checked, by its owner: the header, the clocks
    /// and the device counts here, each component's record in its
    /// `restored`, every message naming the full path. On a refusal the
    /// system is dropped with the error.
    pub(super) fn restored(mut self, f: &Fields) -> Result<(Self, Fs, Fs), String> {
        let h = Header::read(f)?;
        fit_len("clocks", h.clocks.len(), ClockDomain::ALL.len())?;
        // Every clock was normalized to the boundary: its next edge is the
        // first one after `now`.
        for (d, &cycles) in h.clocks.iter().enumerate() {
            let period = self.cal.clock(d).period_fs();
            let edge = cycles.checked_mul(period);
            if edge.is_none_or(|e| e.abs_diff(h.now) > period) {
                return Err(format!(
                    "field 'clocks[{d}]' is not within one period of 'now'"
                ));
            }
            self.cal.restore_clock(d, cycles);
        }
        self.now = h.now;
        let core = h.clocks[ClockDomain::Core as usize];
        let gpus = f.req("gpus")?.list_of(self.gpus.len(), Ok)?;
        self.gpus = zip(self.gpus, gpus)
            .map(|(g, x)| x.record(|r| g.restored(r, core)))
            .collect::<Result<_, _>>()?;
        self.cpu = f.req("cpu")?.record(|r| self.cpu.restored(r))?;
        self.dma = f.req("dma")?.record(|r| self.dma.restored(r))?;
        let hmcs = f.req("hmcs")?.list_of(self.hmcs.len(), Ok)?;
        self.hmcs = zip(self.hmcs, hmcs)
            .map(|(hmc, x)| x.record(|r| hmc.restored(r)))
            .collect::<Result<_, _>>()?;
        let net = h.clocks[ClockDomain::Net as usize];
        self.net = f.req("net")?.record(|r| self.net.restored(r, net))?;
        self.layout = f.req("memory")?.record(|r| self.layout.restored(r))?;
        let cells = self.traffic.raw_bytes_mut();
        let traffic = f.req("traffic")?.list_of(cells.len(), u64::unsnap)?;
        cells.copy_from_slice(&traffic);
        self.counters = h.counters;
        for q in &mut self.fault_q {
            while q.front().is_some_and(|f| f.edge_fs <= h.now) {
                q.pop_front();
            }
        }
        // The sanitizer's accumulated audit state carries over only when
        // the restoring run sanitizes too; its totals then match an
        // unbroken sanitized run. A snapshot from a non-sanitized run
        // restores with counters starting at the boundary, and a
        // non-sanitizing run still checks the record it ignores.
        let audit = f.opt("sanitizer")?.map(|x| x.record(Audit::read));
        if let (Some(s), Some(audit)) = (self.san.as_mut(), audit.transpose()?) {
            s.audit = audit;
        }
        // First epoch lands on the next whole period after the restored
        // network clock, exactly where the checkpointing run would have
        // taken it (`None` when metric snapshots are disabled).
        if let Some(periods) = self.net.cycle().checked_div(self.metrics_every) {
            self.next_epoch = (periods + 1) * self.metrics_every;
        }
        Ok((self, h.host_fs, h.memcpy_fs))
    }
}

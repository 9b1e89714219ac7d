//! What a checkpoint holds, and how one is checked and applied onto a
//! freshly built system.

use super::{domain, System};
use crate::sanitize::Sanitizer;
use crate::snapshot::SystemSnapshot;
use memnet_common::config::{fit_len, nest};
use memnet_common::time::Fs;
use memnet_gpu::Gpu;
use memnet_hmc::HmcDevice;

impl System {
    /// Captures the full mutable simulation state at the normalized,
    /// quiescent pre-kernel boundary. Pure observers (tracer, metrics
    /// registry, profiler) are deliberately *not* part of a snapshot: a
    /// restored run starts them fresh, observing only its own suffix.
    pub(super) fn take_snapshot(
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

    /// Overwrites mutable state from a snapshot taken on an identically
    /// configured system (enforced upstream by the fingerprint check).
    /// All clock domains come back armed; in event-driven mode idle
    /// domains tick one no-op edge and re-park, which yields the same
    /// counter end-state as the checkpointing run's bulk skip accounting.
    /// Pending resolved faults whose edge lies at or before the snapshot
    /// instant were already applied by the checkpointing run — their
    /// effects live in the restored component state — so they are dropped
    /// from the queue fronts.
    ///
    /// A matching fingerprint does not stop a hand-edited file, so every
    /// array is checked by its owner: the clocks and device counts here,
    /// each component's own arrays in its `restore_state`, with the path
    /// prefixed on the way up. An error leaves a half-restored system,
    /// which the caller drops.
    pub(super) fn apply_snapshot(&mut self, s: &SystemSnapshot) -> Result<(), String> {
        fit_len("clocks", s.clock_cycles.len(), domain::COUNT)?;
        fit_len("gpus", s.gpus.len(), self.gpus.len())?;
        fit_len("hmcs", s.hmcs.len(), self.hmcs.len())?;
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
            self.cal.restore_clock(d, cycles);
        }
        self.now = s.now;
        for (i, (g, gs)) in self.gpus.iter_mut().zip(&s.gpus).enumerate() {
            g.restore_state(gs)
                .map_err(|e| nest(format_args!("gpus[{i}]"), e))?;
        }
        self.cpu.restore_state(&s.cpu).map_err(|e| nest("cpu", e))?;
        self.dma.restore_state(&s.dma);
        for (i, (h, hs)) in self.hmcs.iter_mut().zip(&s.hmcs).enumerate() {
            h.restore_state(hs)
                .map_err(|e| nest(format_args!("hmcs[{i}]"), e))?;
        }
        self.net.restore_state(&s.net).map_err(|e| nest("net", e))?;
        self.layout
            .restore_state(&s.memory)
            .map_err(|e| nest("memory", e))?;
        self.traffic
            .restore_bytes(&s.traffic_bytes)
            .map_err(|e| nest("traffic", e))?;
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
        Ok(())
    }
}

//! What a checkpoint holds, when a snapshot is refused, and how one is
//! applied to a freshly built system.

use super::{domain, System};
use crate::sanitize::Sanitizer;
use crate::snapshot::SystemSnapshot;
use memnet_common::config::CacheConfig;
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

    /// Checks that `s` fits this freshly built system before anything is
    /// applied — a matching fingerprint does not stop a hand-edited file —
    /// so a truncated or padded array is a typed error naming the field
    /// instead of a failed `restore_state` assertion halfway through.
    pub(super) fn check_snapshot(&self, s: &SystemSnapshot) -> Result<(), String> {
        // Lengths come from what this system already holds; `path` is only
        // formatted for the one field that does not fit.
        fn fit(path: impl std::fmt::Display, got: usize, want: usize) -> Result<(), String> {
            if got == want {
                return Ok(());
            }
            Err(format!(
                "field '{path}' holds {got} entries, this configuration has {want}"
            ))
        }
        let cfg = &self.cfg;
        let ways = |c: &CacheConfig| (c.sets() * u64::from(c.assoc)) as usize;
        let (traffic, clusters) = (self.traffic.raw_bytes().len(), self.layout.clusters());
        let (links, channels) = self.net.state_shape();
        let (vaults, banks) = (cfg.hmc.vaults as usize, cfg.hmc.banks_per_vault as usize);
        fit("clocks", s.clock_cycles.len(), domain::COUNT)?;
        fit("traffic", s.traffic_bytes.len(), traffic)?;
        fit("memory.next_seq", s.memory.next_seq.len(), clusters)?;
        fit("net.link_up", s.net.link_up.len(), links)?;
        fit("net.channels", s.net.channels.len(), channels)?;
        fit("cpu.l1.ways", s.cpu.l1.ways.len(), ways(&cfg.cpu.l1))?;
        fit("cpu.l2.ways", s.cpu.l2.ways.len(), ways(&cfg.cpu.l2))?;
        fit("gpus", s.gpus.len(), self.gpus.len())?;
        for (i, g) in s.gpus.iter().enumerate() {
            let want = ways(&cfg.gpu.l2);
            fit(format_args!("gpus[{i}].l2.ways"), g.l2.ways.len(), want)?;
        }
        fit("hmcs", s.hmcs.len(), self.hmcs.len())?;
        for (i, h) in s.hmcs.iter().enumerate() {
            let stalled = h.stalled_until.len();
            fit(format_args!("hmcs[{i}].stalled_until"), stalled, vaults)?;
            fit(format_args!("hmcs[{i}].vaults"), h.vaults.len(), vaults)?;
            for (j, v) in h.vaults.iter().enumerate() {
                let path = format_args!("hmcs[{i}].vaults[{j}].banks");
                fit(path, v.banks.len(), banks)?;
            }
        }
        // A quiescent fabric owns no packet: every slot is on the free
        // list exactly once.
        let mut free = s.net.free_pids.clone();
        free.sort_unstable();
        let slots = s.net.packet_slots;
        if !free.iter().map(|&p| u64::from(p)).eq(0..slots) {
            return Err(format!(
                "field 'net.free_pids' is not a permutation of the {slots} packet slots"
            ));
        }
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
        }
        Ok(())
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
    pub(super) fn apply_snapshot(&mut self, s: &SystemSnapshot) {
        assert_eq!(
            s.clock_cycles.len(),
            domain::COUNT,
            "clock domain count mismatch on restore"
        );
        assert_eq!(
            s.gpus.len(),
            self.gpus.len(),
            "GPU count mismatch on restore"
        );
        assert_eq!(
            s.hmcs.len(),
            self.hmcs.len(),
            "HMC count mismatch on restore"
        );
        self.now = s.now;
        for d in 0..domain::COUNT {
            self.cal.restore_clock(d, s.clock_cycles[d]);
        }
        for (g, gs) in self.gpus.iter_mut().zip(&s.gpus) {
            g.restore_state(gs);
        }
        self.cpu.restore_state(&s.cpu);
        self.dma.restore_state(&s.dma);
        for (h, hs) in self.hmcs.iter_mut().zip(&s.hmcs) {
            h.restore_state(hs);
        }
        self.net.restore_state(&s.net);
        self.layout.restore_state(&s.memory);
        self.traffic.restore_bytes(&s.traffic_bytes);
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
    }
}

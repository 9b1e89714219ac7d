//! Which phases a run goes through, in order — host-pre, H2D, kernel, D2H,
//! host-post — straight, checkpointed before the kernel, or resumed there.

use super::{HmcPort, SimError, SimReport, System};
use crate::memory::HOST_BASE;
use crate::profile::ProfileReport;
use crate::ske;
use crate::snapshot::SystemSnapshot;
use memnet_common::time::Fs;
use memnet_cpu::CpuStream;
use memnet_obs::{ClockDomain, TraceEventKind};
use memnet_workloads::HostWork;

impl System {
    pub(super) fn run_profiled(mut self) -> (SimReport, Option<ProfileReport>) {
        let (host_fs, memcpy_fs) = self.run_warmup();
        self.run_from_snapshot_point(host_fs, memcpy_fs)
    }

    /// Runs the pre-kernel prefix — host-pre compute plus the host→device
    /// copy — and returns the elapsed `(host_fs, memcpy_fs)`. Ends at the
    /// quiescent pre-kernel phase boundary, which is also the checkpoint
    /// point.
    fn run_warmup(&mut self) -> (Fs, Fs) {
        let w = self.workload.clone();
        let mut host_fs: Fs = 0;
        let mut memcpy_fs: Fs = 0;

        if let Some(pre) = w.host_pre {
            let t0 = self.now;
            host_fs += self.run_host_phase(&pre);
            self.emit_phase("host-pre", t0);
        }
        if self.org.uses_memcpy() {
            let t0 = self.now;
            memcpy_fs += self.run_memcpy_phase(HOST_BASE, 0, w.h2d_bytes);
            self.emit_phase("memcpy-h2d", t0);
        }
        (host_fs, memcpy_fs)
    }

    /// Runs everything after the pre-kernel boundary: the SKE kernel, the
    /// device→host copies, host-post compute, end-of-run normalization and
    /// report assembly. `host_fs`/`memcpy_fs` carry the warmup phase times
    /// (from [`System::run_warmup`] or a restored snapshot).
    pub(super) fn run_from_snapshot_point(
        mut self,
        host_fs: Fs,
        memcpy_fs: Fs,
    ) -> (SimReport, Option<ProfileReport>) {
        let w = self.workload.clone();
        let mut host_fs = host_fs;
        let mut memcpy_fs = memcpy_fs;
        let t0 = self.now;
        let kernel_fs = self.run_kernel_phase();
        self.emit_phase("kernel", t0);
        if self.org.uses_memcpy() {
            let t0 = self.now;
            if w.d2h_bytes > 0 {
                let wbase = w.kernel.shared_bytes + w.kernel.read_bytes;
                memcpy_fs += self.run_memcpy_phase(wbase, HOST_BASE + wbase, w.d2h_bytes);
            }
            self.emit_phase("memcpy-d2h", t0);
        }
        if let Some(post) = w.host_post {
            let t0 = self.now;
            host_fs += self.run_host_phase(&post);
            self.emit_phase("host-post", t0);
        }
        self.catch_up_parked();
        self.sanitize_checkpoint("end-of-run");
        if self.metrics.is_some() {
            // Close the run with a final epoch so short runs get at least one.
            self.snapshot_metrics();
        }
        self.into_report(kernel_fs, host_fs, memcpy_fs)
    }

    /// Runs the warmup prefix, captures the pre-kernel snapshot, then
    /// finishes the run normally. The parked clocks are normalized to the
    /// boundary first so the snapshot is a pure function of simulated
    /// time, not of engine parking decisions; skip accounting is additive,
    /// so the report stays bit-identical to an uncheckpointed run.
    pub(super) fn run_checkpointed(
        mut self,
        meta: &str,
        fingerprint: u64,
    ) -> Result<(SimReport, SystemSnapshot), SimError> {
        let (host_fs, memcpy_fs) = self.run_warmup();
        if self.timed_out {
            return Err(SimError::Snapshot(
                "warmup prefix hit the phase budget; refusing to checkpoint a timed-out run".into(),
            ));
        }
        self.catch_up_parked();
        let snap = self.take_snapshot(meta, fingerprint, host_fs, memcpy_fs);
        let (report, _prof) = self.run_from_snapshot_point(host_fs, memcpy_fs);
        Ok((report, snap))
    }

    /// Runs until `done` holds, calling `each_step` after every timestep;
    /// returns elapsed simulated time.
    fn run_phase(
        &mut self,
        done: impl Fn(&System) -> bool,
        mut each_step: impl FnMut(&mut System),
    ) -> Fs {
        let start = self.now;
        while !done(self) {
            if !self.advance() {
                // Every domain parked: nothing can make progress, which
                // the phase-done predicates all imply.
                break;
            }
            each_step(self);
            if self.now - start > self.phase_budget {
                self.timed_out = true;
                break;
            }
        }
        self.now - start
    }

    fn memory_system_idle(s: &System) -> bool {
        !s.net.has_work()
            && s.hmcs.iter().all(|h| !h.has_work())
            && s.hmc_ports.iter().all(HmcPort::is_idle)
    }

    fn run_host_phase(&mut self, work: &HostWork) -> Fs {
        // Host work addresses are device-space offsets; when the host owns
        // a staging copy, it reads that copy instead.
        let mut w = *work;
        if self.org.uses_memcpy() {
            w.region_base += HOST_BASE;
        }
        let stream: CpuStream = w.stream();
        self.cpu.run_program(stream);
        let t = self.run_phase(|s| !s.cpu.busy() && Self::memory_system_idle(s), |_| {});
        self.sanitize_checkpoint("host");
        t
    }

    fn run_memcpy_phase(&mut self, src: u64, dst: u64, bytes: u64) -> Fs {
        if bytes == 0 {
            return 0;
        }
        let copied_before = self.dma.bytes_copied();
        self.dma.start_copy(src, dst, bytes);
        let t = self.run_phase(|s| !s.dma.busy() && Self::memory_system_idle(s), |_| {});
        self.sanitize_checkpoint("memcpy");
        if let Some(s) = self.san.as_mut() {
            // Byte conservation: a completed copy moved exactly what was
            // asked for, even when fail-fast recovery synthesized some of
            // the read responses. Skipped if any phase ran out of budget —
            // a truncated copy is reported via `timed_out`, not here.
            let copied = self.dma.bytes_copied() - copied_before;
            if !self.timed_out && copied != bytes {
                s.record(format!(
                    "memcpy: byte conservation broken: copied {copied} of {bytes} \
                     requested ({src:#x} -> {dst:#x})"
                ));
            }
        }
        t
    }

    fn run_kernel_phase(&mut self) -> Fs {
        // Launch across the GPUs still alive — a GPU lost in an earlier
        // phase is simply excluded from the partition (SKE degraded mode).
        let live: Vec<usize> = (0..self.active_gpus as usize)
            .filter(|&g| !self.gpus[g].is_dead())
            .collect();
        if live.is_empty() {
            return 0;
        }
        // Every live GPU gets the launch, an empty queue included, so each
        // later thief or GPU-loss survivor already holds the kernel.
        let kernel = self.workload.kernel.clone();
        #[allow(clippy::cast_possible_truncation, reason = "live GPUs ≤ n_gpus, a u32")]
        let queues = ske::partition(kernel.ctas, live.len() as u32, self.cta_policy);
        for (&g, q) in live.iter().zip(queues) {
            if let Some(s) = self.san.as_mut() {
                s.audit.ctas_launched += q.len() as u64;
            }
            self.gpus[g].launch(kernel.clone(), q);
        }
        let steals = self.cta_policy.steals();
        let mut last_steal = 0u64;
        let done = |s: &System| s.gpus.iter().all(|g| !g.busy()) && Self::memory_system_idle(s);
        let elapsed = self.run_phase(done, |s| {
            let core_cycles = s.cal.clock(ClockDomain::Core as usize).cycles();
            if steals && core_cycles > last_steal + 2000 {
                last_steal = core_cycles;
                s.steal_ctas();
            }
        });
        self.sanitize_checkpoint("kernel");
        if let Some(s) = self.san.as_mut() {
            // CTA conservation: every CTA handed to a GPU either retired
            // or was dropped with a dead GPU when no survivor could adopt
            // it (rebalanced CTAs retire on their adoptive GPU). Skipped
            // on budget exhaustion — an unfinished kernel legitimately
            // leaves CTAs resident.
            let done: u64 = self.gpus.iter().map(|g| g.stats().ctas_done).sum();
            let (launched, dropped) = (s.audit.ctas_launched, s.audit.ctas_dropped);
            if !self.timed_out && done + dropped != launched {
                s.record(format!(
                    "kernel: CTA conservation broken: launched {launched} != completed {done} \
                     + dropped-with-dead-gpu {dropped}"
                ));
            }
        }
        elapsed
    }

    /// Two-level dynamic scheduling: idle GPUs steal undispatched CTAs.
    #[allow(clippy::cast_possible_truncation, reason = "GPU indices and a grid's CTAs fit u32")]
    fn steal_ctas(&mut self) {
        let active = self.active_gpus as usize;
        let pending: Vec<usize> = self.gpus[..active]
            .iter()
            .map(|g| g.pending_ctas())
            .collect();
        for thief in 0..active {
            if pending[thief] > 0 || self.gpus[thief].is_dead() {
                continue;
            }
            if let Some((victim, count)) = ske::pick_steal(&pending) {
                if victim != thief && count > 0 {
                    let stolen = self.gpus[victim].steal(count);
                    let moved = stolen.len() as u32;
                    self.gpus[thief].donate(stolen);
                    if moved > 0 {
                        self.counters.steal_events += 1;
                        if let Some(t) = self.tracer.as_mut() {
                            t.emit_instant(
                                ClockDomain::Core,
                                self.cal.clock(ClockDomain::Core as usize).cycles(),
                                TraceEventKind::CtaSteal {
                                    victim: victim as u32,
                                    thief: thief as u32,
                                    count: moved,
                                },
                            );
                        }
                    }
                    break; // one steal per scan keeps it simple and rare
                }
            }
        }
    }
}

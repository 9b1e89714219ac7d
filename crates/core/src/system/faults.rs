//! Where each fault-plan event lands — its owning clock domain, the first
//! edge there at or after its timestamp, its concrete target — and what a
//! due fault does to the live system: link state, vault stalls, and GPU
//! loss with its CTA rebalancing.

use super::System;
use crate::ske::CtaPolicy;
use memnet_common::faults::FaultKind;
use memnet_common::time::Fs;
use memnet_common::FaultPlan;
use memnet_obs::ClockDomain::{self, Core, Dram, Net};
use memnet_obs::TraceEventKind;

/// A plan event pinned to an edge of its owning domain.
#[derive(Debug, Clone)]
pub(super) struct ResolvedFault {
    /// First owner-domain edge at or after the plan timestamp.
    pub(super) edge_fs: Fs,
    pub(super) kind: FaultKind,
    /// Dense link index, HMC id or GPU id, by kind.
    pub(super) target: usize,
}

impl System {
    /// Queues every event of `plan` on its owning domain: link faults on
    /// network edges, vault stalls on DRAM edges, GPU loss on core edges.
    /// The edge is pure clock arithmetic, so both engine modes apply each
    /// fault at the same simulated instant. No queue needs sorting: the
    /// plan is in timestamp order, and for one period the edge never
    /// decreases as the timestamp grows. Events whose link tag has no
    /// population in this organization are dropped and counted.
    pub(super) fn resolve_faults(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            let (owner, target) = match ev.kind {
                FaultKind::LinkDown { class, ordinal }
                | FaultKind::LinkUp { class, ordinal }
                | FaultKind::LinkDegrade { class, ordinal, .. } => {
                    let Some(li) = self.net.resolve_link(class, ordinal) else {
                        self.faults_skipped += 1;
                        continue;
                    };
                    (Net, li)
                }
                FaultKind::VaultStall { hmc, .. } => (Dram, wrap(hmc, self.hmcs.len())),
                FaultKind::GpuLoss { gpu } => (Core, wrap(gpu, self.gpus.len())),
            };
            let period = self.cal.clock(owner as usize).period_fs();
            self.fault_q[owner as usize].push_back(ResolvedFault {
                edge_fs: ev.at_fs.div_ceil(period) * period,
                kind: ev.kind.clone(),
                target,
            });
        }
    }

    /// Applies every pending fault owned by domain `d` whose edge has
    /// arrived. Called just before `d`'s tick so the fault's effect is
    /// visible to that very tick — in both engine modes, at the same edge.
    pub(super) fn apply_due_faults(&mut self, d: ClockDomain) {
        // The queues only shrink after `resolve_faults`, and a parked
        // domain's alarm holds its front edge, so no edge is ever passed.
        debug_assert!(
            self.fault_q[d as usize]
                .front()
                .is_none_or(|f| f.edge_fs >= self.cal.clock(d as usize).next_fs()),
            "clock domain {} passed its pending fault edge",
            d.name()
        );
        let now = self.now;
        while let Some(f) = self.fault_q[d as usize].pop_front_if(|f| f.edge_fs <= now) {
            self.apply_fault(&f);
        }
    }

    fn apply_fault(&mut self, f: &ResolvedFault) {
        let t = f.target;
        // The trace's kind-specific detail: degrade factor, stall tCKs.
        let detail = match f.kind {
            FaultKind::LinkDown { .. } => {
                self.net.set_link_state(t, false);
                0
            }
            FaultKind::LinkUp { .. } => {
                self.net.set_link_state(t, true);
                0
            }
            FaultKind::LinkDegrade { factor, .. } => {
                self.net.degrade_link(t, factor);
                u64::from(factor)
            }
            FaultKind::VaultStall {
                vault, stall_tcks, ..
            } => {
                let tck = self.cal.clock(Dram as usize).cycles();
                self.hmcs[t].stall_vault(vault, tck + stall_tcks);
                stall_tcks
            }
            FaultKind::GpuLoss { .. } => {
                self.apply_gpu_loss(t);
                0
            }
        };
        self.counters.faults_injected += 1;
        let fault = TraceEventKind::Fault {
            kind: f.kind.name(),
            target: t as u64,
            detail,
        };
        self.trace_fs(self.now, fault);
    }

    /// Kills GPU `g` and rebalances its unfinished CTAs onto surviving
    /// active GPUs — contiguous re-chunks for the static policies
    /// (preserving what locality is left), round-robin for the stealing
    /// policy (whose steal loop keeps the balance dynamic afterwards).
    fn apply_gpu_loss(&mut self, g: usize) {
        if self.gpus[g].is_dead() {
            return;
        }
        let orphans = self.gpus[g].fail();
        self.counters.lost_gpus += 1;
        let survivors: Vec<usize> = (0..self.active_gpus as usize)
            .filter(|&i| !self.gpus[i].is_dead())
            .collect();
        if survivors.is_empty() || orphans.is_empty() {
            if let Some(s) = self.san.as_mut() {
                // No adoptive GPU: the orphans are gone for good, and the
                // CTA conservation law must account for them.
                s.audit.ctas_dropped += orphans.len() as u64;
            }
            return;
        }
        self.counters.rebalanced_ctas += orphans.len() as u64;
        let k = survivors.len();
        match self.cta_policy {
            CtaPolicy::StaticChunk | CtaPolicy::RoundRobin => {
                let per = orphans.len().div_ceil(k);
                let mut it = orphans.into_iter();
                for &s in &survivors {
                    let chunk: Vec<_> = it.by_ref().take(per).collect();
                    self.gpus[s].donate(chunk);
                }
            }
            CtaPolicy::Stealing => {
                let mut queues: Vec<Vec<_>> = (0..k).map(|_| Vec::new()).collect();
                for (i, o) in orphans.into_iter().enumerate() {
                    queues[i % k].push(o);
                }
                for (&s, q) in survivors.iter().zip(queues) {
                    self.gpus[s].donate(q);
                }
            }
        }
    }
}

/// A plan's device index wrapped onto the `n` this system has, so seeded
/// plans stay valid at any size.
#[allow(clippy::cast_possible_truncation, reason = "`% n` is below n, a usize")]
fn wrap(index: u64, n: usize) -> usize {
    (index % n.max(1) as u64) as usize
}

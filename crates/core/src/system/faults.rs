//! What a due fault does to the live system: link state, vault stalls,
//! and GPU loss with its CTA rebalancing.

use super::{domain, System};
use crate::faults::{FaultAction, ResolvedFault};
use crate::ske::CtaPolicy;
use memnet_obs::TraceEventKind;

impl System {
    /// Applies every pending fault owned by domain `d` whose edge has
    /// arrived. Called just before `d`'s tick so the fault's effect is
    /// visible to that very tick — in both engine modes, at the same edge.
    pub(super) fn apply_due_faults(&mut self, d: usize) {
        while self.fault_q[d]
            .front()
            .is_some_and(|f| f.edge_fs <= self.now)
        {
            // memnet-lint: allow(tick-unwrap, the pop follows a front() check in the loop condition)
            let f = self.fault_q[d].pop_front().expect("checked front");
            self.apply_fault(&f);
        }
    }

    fn apply_fault(&mut self, f: &ResolvedFault) {
        match f.action {
            FaultAction::LinkDown(li) => self.net.set_link_state(li, false),
            FaultAction::LinkUp(li) => self.net.set_link_state(li, true),
            FaultAction::LinkDegrade(li, factor) => self.net.degrade_link(li, factor),
            FaultAction::VaultStall {
                hmc,
                vault,
                stall_tcks,
            } => {
                let tck = self.cal.clock(domain::DRAM).cycles();
                self.hmcs[hmc].stall_vault(vault, tck + stall_tcks);
            }
            FaultAction::GpuLoss(g) => self.apply_gpu_loss(g),
        }
        self.faults_injected += 1;
        let fault = TraceEventKind::Fault {
            kind: f.kind,
            target: f.target,
            detail: f.detail,
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
        self.lost_gpus += 1;
        let survivors: Vec<usize> = (0..self.active_gpus as usize)
            .filter(|&i| !self.gpus[i].is_dead())
            .collect();
        if survivors.is_empty() || orphans.is_empty() {
            if let Some(s) = self.san.as_mut() {
                // No adoptive GPU: the orphans are gone for good, and the
                // CTA conservation law must account for them.
                s.ctas_dropped += orphans.len() as u64;
            }
            return;
        }
        self.rebalanced_ctas += orphans.len() as u64;
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

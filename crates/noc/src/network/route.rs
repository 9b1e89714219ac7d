//! Where a VC head goes next: overlay pass-through, the UGAL decision at
//! the injection router, the minimal port among the candidates, or — with
//! no surviving path — the failed queue. Also how a head leaves its buffer.

use super::{dense, Cand, CreditTo, Network, Peer, RoutingPolicy};
use crate::packet::{MsgClass, PacketId};

impl Network {
    /// Queue pressure toward `port`: occupied downstream credits across the
    /// packet's class VCs (used by UGAL).
    fn port_pressure(&self, r: usize, port: u8, class: MsgClass) -> i64 {
        let at = self.vc_at(r, port as usize, self.class_base(class));
        let cap = self.routers[r].ports[port as usize].cap as i64;
        (self.credits[at..at + self.vcs_per_class as usize].iter())
            .map(|&c| cap - c as i64)
            .sum()
    }

    /// The minimal output ports at router `r` toward endpoint `e`: the
    /// endpoint's own port at its home router, elsewhere the ports toward
    /// that router.
    fn min_ports_to_ep(&self, r: usize, e: usize) -> &[u8] {
        let ep = &self.endpoints[e];
        if r == ep.router as usize {
            std::slice::from_ref(&ep.router_port)
        } else {
            self.min_ports(r, ep.router as usize)
        }
    }

    /// Queues the head of input VC `vc` on port `in_port` of router `r` at
    /// output port `out` for allocation, and marks that port ready, or
    /// asleep until its busy channel frees.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "ports and VCs checked ≤ MAX_U8_IDS at build"
    )]
    fn pend(&mut self, r: usize, out: u8, in_port: usize, vc: usize, passthrough: bool) {
        let cand = Cand {
            in_port: in_port as u8,
            vc: vc as u8,
            passthrough,
        };
        let port = &mut self.routers[r].ports[out as usize];
        port.pending.push_back(cand);
        let ch = port.out_channel as usize;
        let i = self.port_base[r] as usize + out as usize;
        match self.sleep_until(ch) {
            Some(at) => self.wake_ports.park(i, at),
            None => self.ready_ports.insert(i),
        }
    }

    /// Decides the output port for the packet at the head of input VC `vc`
    /// on port `in_port` of router `r`, if there is one, and registers it
    /// for allocation.
    pub(super) fn route_head(&mut self, r: usize, in_port: usize, vc: usize) {
        let Some(pid) = self.vc_head(r, in_port, vc) else {
            return;
        };
        let p = self.live(pid);
        let (dest, class, hops, overlay, mut via) = (p.dest, p.class, p.hops, p.overlay, p.via);

        // Overlay pass-through takes precedence for flagged packets — but
        // only while the chain port's channel is alive; a cut chain falls
        // back to ordinary minimal routing.
        if overlay {
            if let Some(&port) = self.routers[r].overlay_next.get(&dest) {
                let ch = self.routers[r].ports[port as usize].out_channel as usize;
                if self.channels[ch].up {
                    self.pend(r, port, in_port, vc, true);
                    return;
                }
            }
        }

        // Valiant intermediate handling.
        if via == Some(self.node_of_router[r]) {
            via = None;
            self.live(pid).via = None;
        }

        // UGAL decision at the injection router.
        let e = self.ep_idx(dest);
        let home = self.endpoints[e].router as usize;
        if self.policy == RoutingPolicy::Ugal && hops == 0 && via.is_none() && !overlay {
            let h_min = self.hops(r, home) as i64 + 1;
            if let Some(min_port) = self.min_ports_to_ep(r, e).first().copied() {
                #[allow(clippy::cast_possible_truncation, reason = "below the router count")]
                let x = self.rng.next_below(self.routers.len() as u64) as usize;
                if x != r && x != home && !self.min_ports(r, x).is_empty() {
                    let h_non = (self.hops(r, x) + self.hops(x, home)) as i64 + 1;
                    let q_min = self.port_pressure(r, min_port, class);
                    let non_port = self.min_ports(r, x)[0];
                    let q_non = self.port_pressure(r, non_port, class);
                    // Bias toward minimal (standard UGAL threshold): only
                    // divert when the minimal queue is *substantially*
                    // worse, not on noise.
                    const UGAL_THRESHOLD: i64 = 96;
                    if q_min * h_min > q_non * h_non + UGAL_THRESHOLD {
                        via = Some(self.node_of_router[x]);
                        self.live(pid).via = via;
                        self.stats.nonminimal += 1;
                    }
                }
            }
        }

        // Candidate minimal ports toward the current objective. A Valiant
        // intermediate severed by a fault is abandoned in favor of the
        // direct minimal path; if the destination itself is unreachable
        // the packet is dead-lettered rather than stranded.
        let via_rtr = via.map(|v| dense(&self.kind, v, true) as usize);
        if let Some(vi) = via_rtr {
            if self.min_ports(r, vi).is_empty() {
                self.live(pid).via = None;
                self.stats.reroutes += 1;
                via = None;
            }
        }
        let ports: &[u8] = match (via, via_rtr) {
            (Some(_), Some(vi)) => self.min_ports(r, vi),
            _ => self.min_ports_to_ep(r, e),
        };
        if ports.is_empty() {
            self.dead_letter_head(r, in_port, vc);
            return;
        }
        #[allow(clippy::cast_possible_truncation, reason = "`% len` is below ports.len()")]
        #[allow(
            clippy::expect_used,
            reason = "guarded by the routing-policy match; the candidate port list is nonempty here"
        )]
        let out = if ports.len() == 1 {
            ports[0]
        } else {
            match self.policy {
                RoutingPolicy::Minimal => {
                    let h = (pid as u64)
                        .wrapping_mul(0x9E37_79B1)
                        .wrapping_add(hops as u64);
                    ports[(h % ports.len() as u64) as usize]
                }
                RoutingPolicy::Ugal => {
                    // Adaptive minimal: least-pressure port.
                    *ports
                        .iter()
                        .min_by_key(|&&p| self.port_pressure(r, p, class))
                        .expect("nonempty")
                }
            }
        };
        self.pend(r, out, in_port, vc, false);
    }

    /// Takes the head packet off input VC `vc` on port `in_port` of router
    /// `r`, if any, and returns its flits' credits to the upstream sender
    /// next cycle.
    pub(super) fn pop_head(&mut self, r: usize, in_port: usize, vc: usize) -> Option<PacketId> {
        let pid = self.vc_head(r, in_port, vc)?;
        let flits = self.live(pid).flits;
        let at = self.vc_at(r, in_port, vc);
        self.vcs[at].head = self.next[pid as usize];
        self.vcs[at].occ -= flits;
        #[allow(
            clippy::cast_possible_truncation,
            reason = "VCs per port checked ≤ MAX_U8_IDS at build"
        )]
        let vc = vc as u8;
        #[allow(clippy::cast_possible_truncation, reason = "flat VC ids fit u32 (MAX_NODES)")]
        let to = match self.routers[r].ports[in_port].peer {
            Peer::Router { idx, port } => {
                CreditTo::Vc(self.vc_at(idx as usize, port as usize, vc as usize) as u32)
            }
            Peer::Endpoint { idx } => CreditTo::Ep(idx, vc),
        };
        self.credits_due.push_back((self.cycle + 1, to, flits));
        Some(pid)
    }

    /// Pulls the head packet of an input VC buffer out of the fabric:
    /// credits return upstream exactly as if it had been forwarded, the
    /// packet lands in the failed queue, and the next head (if any) gets
    /// routed.
    fn dead_letter_head(&mut self, r: usize, in_port: usize, vc: usize) {
        if let Some(pid) = self.pop_head(r, in_port, vc) {
            self.in_network -= 1;
            self.stats.dead_letters += 1;
            self.failed_q.push_back(pid);
            self.route_head(r, in_port, vc);
        }
    }
}

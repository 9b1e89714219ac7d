//! The consumer's side of an endpoint: inject, eject, backpressure and
//! the failed queue, plus the packet-slot arena behind them.

use super::{EjectedPacket, FailedPacket, Network};
use crate::packet::{MsgClass, Packet, PacketId};
use memnet_common::{NodeId, Payload};

impl Network {
    /// True if the endpoint can accept another packet without unbounded
    /// queueing (used by producers for backpressure).
    pub fn inject_ready(&self, ep: NodeId) -> bool {
        self.endpoints[self.ep_idx(ep)].inject_q.len() < 8
    }

    /// Injects a packet from endpoint `src` to endpoint `dest`.
    ///
    /// Always accepted (the injection queue is unbounded); callers that want
    /// backpressure should check [`Network::inject_ready`] first.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dest` are not endpoints.
    pub fn inject(
        &mut self,
        src: NodeId,
        dest: NodeId,
        class: MsgClass,
        payload: Payload,
        overlay: bool,
    ) {
        let _ = self.ep_idx(dest);
        let pkt = Packet::new(
            src,
            dest,
            class,
            payload,
            self.flit_bytes,
            overlay,
            self.cycle,
        );
        let pid = self.alloc(pkt);
        let e = self.ep_idx(src);
        let queue = &mut self.endpoints[e].inject_q;
        let behind = !queue.is_empty();
        queue.push_back(pid);
        self.in_network += 1;
        self.stats.packets_injected += 1;
        // Behind others at an endpoint neither ready nor waking now, a
        // packet waits: the endpoint is short of credits or asleep.
        if behind && !self.ready_eps.contains(e) && !self.wake_eps.holds(e, self.cycle) {
            return;
        }
        self.ready_eps.insert(e);
        self.try_inject(e);
    }

    /// True if [`Network::poll_eject`] at `ep` would return a packet; O(1)
    /// without an endpoint lookup while no endpoint holds one.
    #[inline]
    pub fn has_eject(&self, ep: NodeId) -> bool {
        self.has_ejects() && self.eject_set.contains(self.ep_idx(ep))
    }

    /// The endpoints holding a packet for [`Network::poll_eject`], in
    /// endpoint (and node id) order.
    pub fn ejecting(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut from = 0;
        std::iter::from_fn(move || {
            let e = self.eject_set.next_from(from)?;
            from = e + 1;
            Some(self.endpoints[e].node)
        })
    }

    /// Takes the next delivered packet at `ep`, if any, returning credits to
    /// the network.
    pub fn poll_eject(&mut self, ep: NodeId) -> Option<EjectedPacket> {
        self.work.eject_polls += 1;
        let e = self.ep_idx(ep);
        let pid = self.endpoints[e].eject_q.pop_front()?;
        if self.endpoints[e].eject_q.is_empty() {
            self.eject_set.remove(e);
        }
        self.ejects -= 1;
        let pkt = self.free(pid);
        let ep = &self.endpoints[e];
        let at = self.vc_at(ep.router as usize, ep.router_port as usize, 0);
        self.credits[at] += pkt.flits as i32;
        Some(EjectedPacket {
            payload: pkt.payload,
            src: pkt.src,
            latency_cycles: self.cycle - pkt.injected_cycle,
            hops: pkt.hops,
        })
    }

    /// Takes the next undeliverable packet, if any. Consumers must drain
    /// this and account each packet (e.g. synthesize an error response)
    /// or the request would be lost.
    pub fn poll_failed(&mut self) -> Option<FailedPacket> {
        let pid = self.failed_q.pop_front()?;
        let pkt = self.free(pid);
        Some(FailedPacket {
            payload: pkt.payload,
            src: pkt.src,
            dest: pkt.dest,
        })
    }

    #[allow(clippy::cast_possible_truncation, reason = "live packets fit buffers: ≪ 2^32")]
    fn alloc(&mut self, pkt: Packet) -> PacketId {
        if let Some(pid) = self.free_pids.pop() {
            self.packets[pid as usize] = Some(pkt);
            pid
        } else {
            self.packets.push(Some(pkt));
            self.next.push(0);
            (self.packets.len() - 1) as PacketId
        }
    }

    fn free(&mut self, pid: PacketId) -> Packet {
        #[allow(clippy::expect_used, reason = "each pid is freed once, when its packet leaves")]
        let pkt = self.packets[pid as usize].take().expect("double free");
        self.free_pids.push(pid);
        pkt
    }
}

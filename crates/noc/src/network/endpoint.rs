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
        self.endpoints[e].inject_q.push_back(pid);
        self.ready_eps.insert(e);
        self.in_network += 1;
        self.stats.packets_injected += 1;
        self.try_inject(e);
    }

    /// True if [`Network::poll_eject`] at `ep` would return a packet; O(1)
    /// without an endpoint lookup while no endpoint holds one.
    #[inline]
    pub fn has_eject(&self, ep: NodeId) -> bool {
        self.has_ejects() && !self.endpoints[self.ep_idx(ep)].eject_q.is_empty()
    }

    /// Takes the next delivered packet at `ep`, if any, returning credits to
    /// the network.
    pub fn poll_eject(&mut self, ep: NodeId) -> Option<EjectedPacket> {
        let e = self.ep_idx(ep);
        let pid = self.endpoints[e].eject_q.pop_front()?;
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

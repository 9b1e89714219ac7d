//! The runnable network: routers, endpoints, channels, events and stats.
//!
//! See the crate docs for the model. The implementation is virtual
//! cut-through at packet granularity with per-(port, VC) credit flow
//! control, a calendar-queue event list for channel traversals, and
//! deterministic round-robin allocation.

mod build;
mod endpoint;
mod links;
mod route;
mod snapshot;
mod stats;
#[cfg(test)]
mod tests;
mod tick;

pub use stats::LinkUtilization;

use crate::builder::{LinkSpec, LinkTag};
use crate::calq::CalendarQueue;
use crate::packet::{MsgClass, Packet, PacketId};
use memnet_common::stats::RunningStats;
use memnet_common::{NodeId, Payload, SplitMix64};
use std::collections::{BTreeMap, VecDeque};

/// How packets choose among paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Oblivious minimal routing, hash-spread over all minimal ports.
    #[default]
    Minimal,
    /// UGAL-style load-balanced routing: at injection, choose between the
    /// minimal path and a Valiant path through a random intermediate router
    /// by comparing (queue depth × hops); per hop, pick the least-loaded
    /// minimal port.
    Ugal,
}

/// A packet handed back to the consumer at an endpoint.
#[derive(Debug, Clone)]
pub struct EjectedPacket {
    /// The carried memory message.
    pub payload: Payload,
    /// Injecting endpoint.
    pub src: NodeId,
    /// Network residency in router cycles (injection to ejection).
    pub latency_cycles: u64,
    /// Router-to-router hops taken.
    pub hops: u32,
}

/// A packet the network could not deliver: after a link cut its current
/// router had no surviving path to the destination, so it was pulled out
/// of the fabric (credits returned) and parked here for the consumer to
/// account for. Nothing is silently dropped.
#[derive(Debug, Clone)]
pub struct FailedPacket {
    /// The carried memory message.
    pub payload: Payload,
    /// Injecting endpoint.
    pub src: NodeId,
    /// Destination it could not reach.
    pub dest: NodeId,
}

memnet_obs::snap_struct! {
    /// Aggregate network statistics.
    #[derive(Debug, Clone, Default)]
    pub struct NetStats {
        /// Packets delivered.
        pub delivered: u64,
        /// Packet latency in router cycles.
        pub latency: RunningStats,
        /// Router-to-router hop counts.
        pub hops: RunningStats,
        /// Packets that took a Valiant (non-minimal) path.
        pub nonminimal: u64,
        /// Packets forwarded at least once through an overlay pass-through.
        pub passthrough: u64,
        /// Total bytes delivered (payload + headers).
        pub bytes_delivered: u64,
        /// Flits that left endpoint injection queues onto the wire (drives the
        /// injected-flits/cycle metric epoch series).
        pub flits_injected: u64,
        /// Head packets re-routed after a link cut invalidated their chosen
        /// output port.
        pub reroutes: u64,
        /// Extra serialization slots paid to retransmits on degraded-BER
        /// channels (factor − 1 per traversal).
        pub retries: u64,
        /// Packets pulled from the fabric because no surviving path to their
        /// destination existed (drained via [`Network::poll_failed`]).
        pub dead_letters: u64,
        /// Packets accepted by [`Network::inject`]. The sanitizer's
        /// conservation law: `packets_injected == delivered + in-flight +
        /// dead_letters` at every cycle.
        pub packets_injected: u64,
        /// Flit-hops: flits committed onto any channel (endpoint injection or
        /// router crossbar). The denominator for the cycles/flit-hop cost
        /// metric in the profiling bench.
        pub flit_hops: u64,
    }
}

#[derive(Debug)]
struct Channel {
    bytes_per_cycle: f64,
    serdes_cycles: u32,
    powered: bool,
    tag: LinkTag,
    /// False while the owning link is fault-injected down; the one record
    /// of a link's state.
    up: bool,
    /// Serialization multiplier modeling retransmits on a degraded-BER
    /// link; 1 = clean.
    degrade: u32,
    busy_until: u64,
    bytes_moved: u64,
    busy_cycles: u64,
}

impl Channel {
    fn new(spec: LinkSpec, tag: LinkTag) -> Self {
        Channel {
            bytes_per_cycle: spec.bytes_per_cycle,
            serdes_cycles: spec.serdes_cycles,
            powered: spec.powered,
            tag,
            up: true,
            degrade: 1,
            busy_until: 0,
            bytes_moved: 0,
            busy_cycles: 0,
        }
    }

    #[allow(clippy::cast_possible_truncation, reason = "f64 `as` saturates; a few cycles")]
    fn ser_cycles(&self, bytes: u32) -> u64 {
        ((bytes as f64 / self.bytes_per_cycle).ceil() as u64).max(1) * self.degrade as u64
    }
}

#[derive(Debug, Clone, Copy)]
enum Peer {
    Router { idx: u32, port: u8 },
    Endpoint { idx: u32 },
}

/// Dense index of node `n` among the routers (`router`) or among the
/// endpoints, which are numbered apart.
///
/// # Panics
///
/// Panics if `n` is the other kind of node.
fn dense(kind: &[Peer], n: NodeId, router: bool) -> u32 {
    match kind[n.index()] {
        Peer::Router { idx, .. } if router => idx,
        Peer::Endpoint { idx } if !router => idx,
        Peer::Router { .. } => panic!("{n} is a router, not an endpoint"),
        Peer::Endpoint { .. } => panic!("{n} is an endpoint, not a router"),
    }
}

/// One router input VC buffer: a FIFO of packet ids threaded through
/// [`Network::next`], and the flits it holds. A packet has at least one
/// flit, so `occ == 0` means empty (`head` and `tail` are then stale).
#[derive(Debug, Clone, Copy, Default)]
struct Vc {
    head: PacketId,
    tail: PacketId,
    occ: u32,
}

/// A set of flat port or endpoint indices, as a bit vector.
#[derive(Debug)]
struct Ready(Vec<u64>);

impl Ready {
    fn new(n: usize) -> Ready {
        Ready(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    /// The least member ≥ `from`, read from the words as they are now, so
    /// a member inserted above the last one returned is still found.
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = self.0.get(w)? & (!0 << (from % 64));
        while word == 0 {
            w += 1;
            word = *self.0.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }
}

#[derive(Debug, Clone, Copy)]
struct Cand {
    in_port: u8,
    vc: u8,
    passthrough: bool,
}

/// A router port. Its input VC buffers and the credits of the peer's
/// matching buffers live in [`Network::vcs`] and [`Network::credits`].
#[derive(Debug)]
struct Port {
    peer: Peer,
    out_channel: u32,
    /// Capacity each VC's credits started from (the peer's buffer depth).
    cap: i32,
    /// Head packets routed to this *output* port, awaiting allocation.
    pending: VecDeque<Cand>,
}

impl Port {
    /// A port toward `peer` that sends on `out_channel`, whose credits
    /// start at the peer's buffer depth `cap`.
    fn new(peer: Peer, out_channel: u32, cap: i32) -> Port {
        Port {
            peer,
            out_channel,
            cap,
            pending: VecDeque::new(),
        }
    }

    /// The credits VC `vc` starts from: `cap`, except toward an endpoint,
    /// whose eject buffer's credits live in VC 0 alone.
    fn vc_cap(&self, vc: usize) -> i32 {
        match self.peer {
            Peer::Endpoint { .. } if vc != 0 => 0,
            _ => self.cap,
        }
    }
}

#[derive(Debug)]
struct Router {
    ports: Vec<Port>,
    /// Overlay pass-through next-hop: destination endpoint → output port.
    overlay_next: BTreeMap<NodeId, u8>,
}

#[derive(Debug)]
struct Endpoint {
    /// Home router (dense index).
    router: u32,
    /// Port index on the router for this endpoint's link.
    router_port: u8,
    /// Directed channel endpoint→router.
    inj_channel: u32,
    /// Credits at the router's input buffers, per VC.
    inj_credits: Vec<i32>,
    inject_q: VecDeque<PacketId>,
    eject_q: VecDeque<PacketId>,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    ArriveRouter {
        router: u32,
        port: u8,
        vc: u8,
        pid: PacketId,
    },
    ArriveEndpoint {
        ep: u32,
        pid: PacketId,
    },
    /// Credits returned to the output VC at `credits[at]`.
    Credit {
        at: u32,
        flits: u32,
    },
    CreditEp {
        ep: u32,
        vc: u8,
        flits: u32,
    },
}

/// Output-port sets indexed `[router][destination]`.
type PortTable = Vec<Vec<Vec<u8>>>;

/// A frozen, runnable network.
#[derive(Debug)]
pub struct Network {
    flit_bytes: u32,
    pipeline_cycles: u32,
    passthrough_cycles: u32,
    vcs_per_class: u32,
    energy_pj_per_bit: f64,
    idle_pj_per_bit: f64,
    policy: RoutingPolicy,

    routers: Vec<Router>,
    /// Flat index of each router's port 0, plus the port count at the end:
    /// port `p` of router `r` is `port_base[r] + p`, router-major.
    port_base: Vec<u32>,
    /// Input VC buffers, indexed `flat port × VCs per port + vc`.
    vcs: Vec<Vc>,
    /// Credits (free flits) at the peer's matching input VC, like `vcs`.
    credits: Vec<i32>,
    /// Flat ports whose `pending` may be non-empty; every non-empty one is
    /// in it. Cleared lazily, when allocation leaves a port with none.
    ready_ports: Ready,
    endpoints: Vec<Endpoint>,
    /// Endpoints whose `inject_q` may be non-empty, likewise.
    ready_eps: Ready,
    /// Directed channels. Builder link `li` owns `2·li` (`link_rtrs[li].0`
    /// → `.1`) and `2·li + 1` (the reverse); each endpoint then owns two
    /// (endpoint → router, router → endpoint).
    channels: Vec<Channel>,
    /// NodeId → (is_router, dense index).
    kind: Vec<Peer>,
    node_of_router: Vec<NodeId>,
    /// Router-to-router hop distances.
    dist: Vec<Vec<u16>>,
    /// Minimal output ports per (router, destination router); toward an
    /// endpoint, those toward its home router ([`Network::min_ports_to_ep`]).
    min_ports_rtr: PortTable,

    /// Per builder link: router pair (dense indices) and port pair. Index
    /// = builder link order, so fault targets are stable for a given
    /// topology; the link's tag and state live on its two channels.
    link_rtrs: Vec<(u32, u32)>,
    link_ports: Vec<(u8, u8)>,
    /// Undeliverable packets awaiting [`Network::poll_failed`].
    failed_q: VecDeque<PacketId>,

    events: CalendarQueue<Ev>,
    cycle: u64,
    in_network: u64,
    /// Packets waiting in eject queues for [`Network::poll_eject`].
    ejects: u64,
    packets: Vec<Option<Packet>>,
    /// Per packet slot: the packet behind it in its VC. A packet sits in
    /// at most one VC at a time.
    next: Vec<PacketId>,
    free_pids: Vec<PacketId>,
    rng: SplitMix64,
    stats: NetStats,
    /// Injection-credit capacity per VC at every endpoint (uniform; the
    /// audit's upper bound and quiescent-restore target).
    ep_inj_cap: i32,
}

impl Network {
    /// Current router-clock cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// True while any packet is buffered or in flight, or an undeliverable
    /// packet awaits [`Network::poll_failed`].
    #[inline]
    pub fn has_work(&self) -> bool {
        self.in_network > 0 || !self.failed_q.is_empty()
    }

    /// True when the fabric is settled: nothing buffered or in flight, no
    /// scheduled event (a credit return can outlive its packet by a
    /// cycle) and no undeliverable packet waiting. Stricter than
    /// [`Network::has_work`]; the snapshot and the credit audit require
    /// it.
    #[inline]
    pub fn is_quiescent(&self) -> bool {
        self.in_network == 0 && self.events.is_empty() && self.failed_q.is_empty()
    }

    /// The first cycle at which a tick can change the fabric's state:
    /// the current cycle while a ready port or ready endpoint may move a
    /// packet, else the cycle of the first scheduled event, else `None`.
    /// Every tick before it is a no-op but for the cycle count, so a
    /// caller may jump there with [`Network::skip_idle_cycles`].
    pub fn next_event(&self) -> Option<u64> {
        if self.ready_ports.next_from(0).is_some() || self.ready_eps.next_from(0).is_some() {
            return Some(self.cycle);
        }
        self.events.next_cycle(self.cycle)
    }

    /// Advances the cycle counter over `cycles` no-op ticks without
    /// executing them, never past [`Network::next_event`]. Idle cycles
    /// still count toward channel idle energy and utilization
    /// denominators, so the event-driven engine calls this when it wakes
    /// a parked net domain to keep those figures bit-identical with a
    /// cycle-stepped run.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        debug_assert!(
            self.next_event().is_none_or(|c| self.cycle + cycles <= c),
            "skipping past a scheduled event"
        );
        self.cycle += cycles;
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// True while some endpoint holds a packet for
    /// [`Network::poll_eject`].
    #[inline]
    pub fn has_ejects(&self) -> bool {
        self.ejects > 0
    }

    /// Packets currently owned by the fabric (buffered or on the wire).
    #[inline]
    pub fn in_flight(&self) -> u64 {
        self.in_network
    }

    /// Dense endpoint index for a node id.
    fn ep_idx(&self, ep: NodeId) -> usize {
        dense(&self.kind, ep, false) as usize
    }

    /// The packet behind an id the fabric holds in an injection queue, a
    /// VC buffer or a crossbar slot. Only an event's id can outlive its
    /// packet (a dead-letter while the arrival was in flight, see `tick`).
    #[allow(
        clippy::expect_used,
        reason = "a pid queued for injection, in a VC buffer or holding a crossbar slot always names a live packet"
    )]
    fn live(&mut self, pid: PacketId) -> &mut Packet {
        self.packets[pid as usize].as_mut().expect("live packet")
    }

    fn class_base(&self, class: MsgClass) -> usize {
        class.index() * self.vcs_per_class as usize
    }

    /// Index into `vcs` and `credits` of VC `vc` on port `p` of router `r`.
    fn vc_at(&self, r: usize, p: usize, vc: usize) -> usize {
        let per_port = self.vcs_per_class as usize * MsgClass::COUNT;
        (self.port_base[r] as usize + p) * per_port + vc
    }

    /// The packet at the head of input VC `vc` on port `p` of router `r`.
    fn vc_head(&self, r: usize, p: usize, vc: usize) -> Option<PacketId> {
        let buf = self.vcs[self.vc_at(r, p, vc)];
        (buf.occ != 0).then_some(buf.head)
    }
}

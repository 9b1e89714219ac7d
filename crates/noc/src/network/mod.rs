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

pub use stats::{LinkUtilization, WorkCounts};

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
    /// `bytes_per_cycle` when whole and below 2^16, else 0.
    whole_rate: u32,
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
    #[allow(clippy::cast_possible_truncation, reason = "a whole number below 2^16")]
    fn new(spec: LinkSpec, tag: LinkTag) -> Self {
        let bpc = spec.bytes_per_cycle;
        let whole = bpc.fract() == 0.0 && (1.0..65_536.0).contains(&bpc);
        Channel {
            bytes_per_cycle: bpc,
            whole_rate: if whole { bpc as u32 } else { 0 },
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

    /// `ceil(bytes / bytes_per_cycle)`, exact in integers at a whole rate
    /// below 2^16: a quotient off an integer lies 2^-16 or more from one,
    /// far beyond the f64 division's error for a `u32` byte count.
    #[allow(clippy::cast_possible_truncation, reason = "f64 `as` saturates; a few cycles")]
    fn ser_cycles(&self, bytes: u32) -> u64 {
        let cycles = match self.whole_rate {
            0 => (bytes as f64 / self.bytes_per_cycle).ceil() as u64,
            rate => u64::from(bytes.div_ceil(rate)),
        };
        cycles.max(1) * self.degrade as u64
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

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
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

/// Members of a [`Ready`] set asleep until a cycle under 64 ahead: slot
/// `cycle % 64` holds their bits in `words` words; `occupied` marks slots.
#[derive(Debug)]
struct WakeRing {
    words: usize,
    slots: Vec<u64>,
    occupied: u64,
}

#[allow(clippy::cast_possible_truncation, reason = "`% 64` is below 64")]
impl WakeRing {
    fn new(n: usize) -> WakeRing {
        let words = n.div_ceil(64);
        let slots = vec![0; 64 * words];
        WakeRing {
            words,
            slots,
            occupied: 0,
        }
    }

    fn park(&mut self, i: usize, cycle: u64) {
        let s = (cycle % 64) as usize;
        self.slots[s * self.words + i / 64] |= 1 << (i % 64);
        self.occupied |= 1 << s;
    }

    fn holds(&self, i: usize, cycle: u64) -> bool {
        let s = (cycle % 64) as usize;
        self.slots[s * self.words + i / 64] >> (i % 64) & 1 == 1
    }

    /// Moves the members asleep until `cycle` into `ready`.
    fn wake(&mut self, cycle: u64, ready: &mut Ready) {
        let s = (cycle % 64) as usize;
        if self.occupied >> s & 1 == 1 {
            self.occupied &= !(1 << s);
            for (r, w) in ready.0.iter_mut().zip(&mut self.slots[s * self.words..]) {
                *r |= std::mem::take(w);
            }
        }
    }

    /// The first cycle at or after `now` that a member sleeps until.
    fn next(&self, now: u64) -> Option<u64> {
        let ahead = self.occupied.rotate_right((now % 64) as u32);
        (ahead != 0).then(|| now + u64::from(ahead.trailing_zeros()))
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
    /// The endpoint's node id.
    node: NodeId,
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
}

/// Where a credit return goes: the output VC at `credits[at]`, or an
/// endpoint's injection VC.
#[derive(Debug, Clone, Copy)]
enum CreditTo {
    Vc(u32),
    Ep(u32, u8),
}

/// Output-port sets per (router, destination router) of `nr` routers,
/// flat: pair `(r, d)` owns `.1[.0[r·nr + d]..][..]` up to `.0[r·nr + d + 1]`.
type PortTable = (Vec<u32>, Vec<u8>);

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
    /// The router of each flat port.
    port_router: Vec<u32>,
    /// Input VC buffers, indexed `flat port × VCs per port + vc`.
    vcs: Vec<Vc>,
    /// Credits (free flits) at the peer's matching input VC, like `vcs`.
    credits: Vec<i32>,
    /// Flat ports whose `pending` may be non-empty; every non-empty one is
    /// in it or asleep in `wake_ports`. Cleared lazily, by allocation.
    ready_ports: Ready,
    wake_ports: WakeRing,
    endpoints: Vec<Endpoint>,
    /// Endpoints whose `inject_q` may be non-empty, likewise, but for one
    /// short of credits: a credit return readies it.
    ready_eps: Ready,
    wake_eps: WakeRing,
    /// Directed channels. Builder link `li` owns `2·li` (`link_rtrs[li].0`
    /// → `.1`) and `2·li + 1` (the reverse); each endpoint then owns two
    /// (endpoint → router, router → endpoint).
    channels: Vec<Channel>,
    /// NodeId → (is_router, dense index).
    kind: Vec<Peer>,
    node_of_router: Vec<NodeId>,
    /// Router-to-router hop distances, row-major ([`Network::hops`]).
    dist: Vec<u16>,
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

    /// Packet arrivals.
    events: CalendarQueue<Ev>,
    /// Credit returns `(due, to, flits)` in due order.
    credits_due: VecDeque<(u64, CreditTo, u32)>,
    cycle: u64,
    in_network: u64,
    /// Packets waiting in eject queues for [`Network::poll_eject`].
    ejects: u64,
    /// Endpoints whose eject queue holds a packet.
    eject_set: Ready,
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
    work: WorkCounts,
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
    /// scheduled arrival or credit return (one can outlive its packet by a
    /// cycle) and no undeliverable packet waiting. Stricter than
    /// [`Network::has_work`]; the snapshot and the credit audit require
    /// it.
    #[inline]
    pub fn is_quiescent(&self) -> bool {
        self.in_network == 0
            && self.events.is_empty()
            && self.credits_due.is_empty()
            && self.failed_q.is_empty()
    }

    /// The first cycle at which a tick can change the fabric's state:
    /// the current cycle while a ready port or ready endpoint may move a
    /// packet, else the first cycle with an arrival, credit or wake-up.
    /// Every tick before it is a no-op but for the cycle count, so a
    /// caller may jump there with [`Network::skip_idle_cycles`].
    pub fn next_event(&self) -> Option<u64> {
        if self.ready_ports.next_from(0).is_some() || self.ready_eps.next_from(0).is_some() {
            return Some(self.cycle);
        }
        let credit = self.credits_due.front().map(|c| c.0);
        let woken = [&self.wake_ports, &self.wake_eps].map(|w| w.next(self.cycle));
        let events = self.events.next_cycle(self.cycle).into_iter().chain(credit);
        events.chain(woken.into_iter().flatten()).min()
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

    /// Hops from router `a` to router `b`; `u16::MAX` when unreachable.
    fn hops(&self, a: usize, b: usize) -> u16 {
        self.dist[a * self.routers.len() + b]
    }

    /// The minimal output ports at router `r` toward router `d`.
    fn min_ports(&self, r: usize, d: usize) -> &[u8] {
        let ((off, ports), i) = (&self.min_ports_rtr, r * self.routers.len() + d);
        &ports[off[i] as usize..off[i + 1] as usize]
    }

    /// The cycle a sender on channel `ch` may sleep until: its
    /// `busy_until`, while the channel is up and that is 1–63 cycles ahead.
    fn sleep_until(&self, ch: usize) -> Option<u64> {
        let c = &self.channels[ch];
        let ahead = c.busy_until.wrapping_sub(self.cycle);
        (c.up && (1..64).contains(&ahead)).then_some(c.busy_until)
    }

    /// The packet at the head of input VC `vc` on port `p` of router `r`.
    fn vc_head(&self, r: usize, p: usize, vc: usize) -> Option<PacketId> {
        let buf = self.vcs[self.vc_at(r, p, vc)];
        (buf.occ != 0).then_some(buf.head)
    }
}

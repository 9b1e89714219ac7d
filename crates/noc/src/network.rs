//! The runnable network: routers, endpoints, channels, events and stats.
//!
//! See the crate docs for the model. The implementation is virtual
//! cut-through at packet granularity with per-(port, VC) credit flow
//! control, a calendar-queue event list for channel traversals, and
//! deterministic round-robin allocation.

use crate::builder::{LinkSpec, LinkTag, NetworkBuilder, NodeRec};
use crate::calq::CalendarQueue;
use crate::packet::{MsgClass, Packet, PacketId};
use memnet_common::config::fit_len;
use memnet_common::stats::RunningStats;
use memnet_common::{NodeId, Payload, SplitMix64};
use memnet_obs::{ClockDomain, TraceEventKind, Tracer};
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

/// Utilization of one builder link (both directed channels), as reported
/// by [`Network::link_utilization`] for the heatmap export. "fwd" is the
/// builder-order direction (`routers.0` → `routers.1`); "rev" the
/// opposite. Busy fractions are serialization-busy cycles over elapsed
/// network cycles.
#[derive(Debug, Clone)]
pub struct LinkUtilization {
    /// The link's class tag (PCIe, NVLink, HMC-HMC, ...).
    pub tag: LinkTag,
    /// Dense router indices of the two ends, builder order.
    pub routers: (u32, u32),
    /// False while fault-injected down.
    pub up: bool,
    /// Busy fraction of the `routers.0 → routers.1` channel.
    pub fwd_busy_frac: f64,
    /// Busy fraction of the `routers.1 → routers.0` channel.
    pub rev_busy_frac: f64,
    /// Bytes moved `routers.0 → routers.1`.
    pub fwd_bytes: u64,
    /// Bytes moved `routers.1 → routers.0`.
    pub rev_bytes: u64,
}

#[derive(Debug)]
struct Channel {
    bytes_per_cycle: f64,
    serdes_cycles: u32,
    powered: bool,
    tag: LinkTag,
    /// False while the owning link is fault-injected down.
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

    fn ser_cycles(&self, bytes: u32) -> u64 {
        ((bytes as f64 / self.bytes_per_cycle).ceil() as u64).max(1) * self.degrade as u64
    }
}

#[derive(Debug, Clone, Copy)]
enum Peer {
    Router { idx: u32, port: u8 },
    Endpoint { idx: u32 },
}

#[derive(Debug)]
struct VcBuf {
    q: VecDeque<PacketId>,
    occ: u32,
}

#[derive(Debug, Clone, Copy)]
struct Cand {
    in_port: u8,
    vc: u8,
    passthrough: bool,
}

#[derive(Debug)]
struct Port {
    peer: Peer,
    out_channel: u32,
    /// Input VC buffers for traffic arriving *from* the peer.
    vcs: Vec<VcBuf>,
    /// Credits (free flits) per VC at the peer's matching input buffers.
    credits: Vec<i32>,
    /// Capacity each VC's credits started from (the peer's buffer depth).
    cap: i32,
    /// Head packets routed to this *output* port, awaiting allocation.
    pending: VecDeque<Cand>,
}

#[derive(Debug)]
struct Router {
    ports: Vec<Port>,
    /// Overlay pass-through next-hop: destination endpoint → output port.
    overlay_next: BTreeMap<NodeId, u8>,
}

#[derive(Debug)]
struct Endpoint {
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
    Credit {
        router: u32,
        port: u8,
        vc: u8,
        flits: u32,
    },
    CreditEp {
        ep: u32,
        vc: u8,
        flits: u32,
    },
}

/// Serializable mutable state of one directed channel (see
/// [`Network::snapshot_state`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelState {
    /// False while the owning link is fault-injected down.
    pub up: bool,
    /// Retransmit serialization multiplier; 1 = clean.
    pub degrade: u32,
    /// Serialization deadline, absolute network cycles.
    pub busy_until: u64,
    /// Bytes moved (utilization/energy numerator).
    pub bytes_moved: u64,
    /// Serialization-busy cycles (utilization numerator).
    pub busy_cycles: u64,
}

/// Serializable mutable state of a quiescent [`Network`] (see
/// [`Network::snapshot_state`]).
#[derive(Debug, Clone, Default)]
pub struct NetworkState {
    /// Router-clock cycle.
    pub cycle: u64,
    /// Event tie-break sequence counter.
    pub seq: u64,
    /// Routing RNG internal state.
    pub rng_state: u64,
    /// Packet-slot arena size.
    pub packet_slots: u64,
    /// Free packet-slot ids, in stack order — determines future
    /// [`PacketId`] assignment and thus hash-spread port choices.
    pub free_pids: Vec<PacketId>,
    /// Per builder link: up/down fault state.
    pub link_up: Vec<bool>,
    /// Per directed channel: fault and utilization state.
    pub channels: Vec<ChannelState>,
    /// Aggregate delivery statistics.
    pub stats: NetStats,
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
    endpoints: Vec<Endpoint>,
    channels: Vec<Channel>,
    /// NodeId → (is_router, dense index).
    kind: Vec<Peer>,
    node_of_router: Vec<NodeId>,
    /// Router-to-router hop distances.
    dist: Vec<Vec<u16>>,
    /// Minimal output ports per (router, destination endpoint).
    min_ports_ep: PortTable,
    /// Minimal output ports per (router, destination router), for Valiant.
    min_ports_rtr: PortTable,
    /// Home router of each endpoint.
    home: Vec<u32>,

    /// Per builder link: tag, router pair (dense indices), port pair, and
    /// whether the link is currently up. Index = builder link order, so
    /// fault targets are stable for a given topology.
    link_tags: Vec<LinkTag>,
    link_rtrs: Vec<(u32, u32)>,
    link_ports: Vec<(u8, u8)>,
    link_up: Vec<bool>,
    /// Undeliverable packets awaiting [`Network::poll_failed`].
    failed_q: VecDeque<PacketId>,

    events: CalendarQueue<Ev>,
    /// Events ever scheduled. Nothing orders by it any more (the queue's
    /// buckets are FIFO), but it is part of [`NetworkState`].
    seq: u64,
    cycle: u64,
    in_network: u64,
    packets: Vec<Option<Packet>>,
    free_pids: Vec<PacketId>,
    rng: SplitMix64,
    stats: NetStats,
    /// Injection-credit capacity per VC at every endpoint (uniform; the
    /// audit's upper bound and quiescent-restore target).
    ep_inj_cap: i32,
}

/// Router-to-router hop counts over the links `up` admits, by BFS from
/// every router; `u16::MAX` marks an unreachable pair.
fn all_pairs_hops(
    nr: usize,
    link_rtrs: &[(u32, u32)],
    up: impl Fn(usize) -> bool,
) -> Vec<Vec<u16>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nr];
    for (li, &(a, b)) in link_rtrs.iter().enumerate() {
        if up(li) {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
    }
    let mut dist = vec![vec![u16::MAX; nr]; nr];
    for (s, row) in dist.iter_mut().enumerate() {
        let mut q = VecDeque::new();
        row[s] = 0;
        q.push_back(s as u32);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u as usize] {
                if row[v as usize] == u16::MAX {
                    row[v as usize] = row[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
    }
    dist
}

/// The minimal output ports per (router, destination router) and per
/// (router, destination endpoint), in port order: the ports whose channel
/// is up and whose peer is one hop closer under `dist`. An unreachable
/// destination gets an empty set.
fn min_port_tables(
    routers: &[Router],
    channels: &[Channel],
    endpoints: &[Endpoint],
    dist: &[Vec<u16>],
) -> (PortTable, PortTable) {
    let nr = routers.len();
    let to_rtr: PortTable = (0..nr)
        .map(|r| {
            (0..nr)
                .map(|d| {
                    if r == d || dist[r][d] == u16::MAX {
                        return Vec::new();
                    }
                    routers[r]
                        .ports
                        .iter()
                        .enumerate()
                        .filter_map(|(pi, port)| match port.peer {
                            Peer::Router { idx, .. }
                                if channels[port.out_channel as usize].up
                                    && dist[idx as usize][d] != u16::MAX
                                    && dist[idx as usize][d] + 1 == dist[r][d] =>
                            {
                                Some(pi as u8)
                            }
                            _ => None,
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let to_ep = (0..nr)
        .map(|r| {
            endpoints
                .iter()
                .map(|e| {
                    if r == e.router as usize {
                        vec![e.router_port]
                    } else {
                        to_rtr[r][e.router as usize].clone()
                    }
                })
                .collect()
        })
        .collect();
    (to_rtr, to_ep)
}

impl Network {
    pub(crate) fn from_builder(b: NetworkBuilder) -> Network {
        let p = b.params;
        // Dense router / endpoint indices.
        let mut kind = Vec::with_capacity(b.nodes.len());
        let mut node_of_router = Vec::new();
        let mut node_of_endpoint = Vec::new();
        for (i, n) in b.nodes.iter().enumerate() {
            match n {
                NodeRec::Router => {
                    kind.push(Peer::Router {
                        idx: node_of_router.len() as u32,
                        port: 0,
                    });
                    node_of_router.push(NodeId(i as u16));
                }
                NodeRec::Endpoint { .. } => {
                    kind.push(Peer::Endpoint {
                        idx: node_of_endpoint.len() as u32,
                    });
                    node_of_endpoint.push(NodeId(i as u16));
                }
            }
        }
        let nr = node_of_router.len();
        let ne = node_of_endpoint.len();
        assert!(nr > 0, "network needs at least one router");
        assert!(ne > 0, "network needs at least one endpoint");

        let ridx = |n: NodeId| -> u32 {
            match kind[n.index()] {
                Peer::Router { idx, .. } => idx,
                Peer::Endpoint { .. } => panic!("expected router node {n}"),
            }
        };
        let link_rtrs: Vec<(u32, u32)> = b.links.iter().map(|l| (ridx(l.a), ridx(l.b))).collect();

        // Needed before any port exists: the diameter sizes the VCs.
        let dist = all_pairs_hops(nr, &link_rtrs, |_| true);
        let diameter = dist
            .iter()
            .flat_map(|row| row.iter().copied())
            .filter(|&d| d != u16::MAX)
            .max()
            .unwrap_or(0) as u32;
        for row in &dist {
            for &d in row {
                assert!(d != u16::MAX, "router graph is disconnected");
            }
        }

        // Effective VCs per class: enough for hop-indexed VCs even on
        // Valiant paths.
        let needed = match b.policy {
            RoutingPolicy::Minimal => diameter + 1,
            RoutingPolicy::Ugal => 2 * diameter + 2,
        };
        let vcs_per_class = p.vcs_per_class.max(needed);
        let total_vcs = (vcs_per_class as usize) * MsgClass::COUNT;

        // Materialize routers: each link contributes one port on each side;
        // each endpoint contributes one port on its home router.
        let mut channels = Vec::new();
        let mut routers: Vec<Router> = (0..nr)
            .map(|_| Router {
                ports: Vec::new(),
                overlay_next: BTreeMap::new(),
            })
            .collect();
        let new_vcs = |n: usize| -> Vec<VcBuf> {
            (0..n)
                .map(|_| VcBuf {
                    q: VecDeque::new(),
                    occ: 0,
                })
                .collect()
        };
        // Buffers (and thus the credit window) must cover the link's
        // round-trip time or long-latency links (PCIe) throttle far below
        // their bandwidth: depth ≥ 2 × (serdes + pipeline) + slack.
        let depth_for = |spec: &LinkSpec| -> u32 {
            p.vc_buffer_flits
                .max(2 * (spec.serdes_cycles + p.pipeline_cycles) + 16)
        };
        // Map (link idx) -> (port on a, port on b) for overlay lookup.
        let mut link_ports: Vec<(u8, u8)> = Vec::with_capacity(b.links.len());
        for l in &b.links {
            let (ai, bi) = (ridx(l.a), ridx(l.b));
            let ch_ab = channels.len() as u32;
            channels.push(Channel::new(l.spec, l.tag));
            let ch_ba = channels.len() as u32;
            channels.push(Channel::new(l.spec, l.tag));
            let pa = routers[ai as usize].ports.len() as u8;
            let pb = routers[bi as usize].ports.len() as u8;
            let depth = depth_for(&l.spec) as i32;
            routers[ai as usize].ports.push(Port {
                peer: Peer::Router { idx: bi, port: pb },
                out_channel: ch_ab,
                vcs: new_vcs(total_vcs),
                credits: vec![depth; total_vcs],
                cap: depth,
                pending: VecDeque::new(),
            });
            routers[bi as usize].ports.push(Port {
                peer: Peer::Router { idx: ai, port: pa },
                out_channel: ch_ba,
                vcs: new_vcs(total_vcs),
                credits: vec![depth; total_vcs],
                cap: depth,
                pending: VecDeque::new(),
            });
            link_ports.push((pa, pb));
        }
        let mut endpoints = Vec::with_capacity(ne);
        let mut home = Vec::with_capacity(ne);
        for n in b.nodes.iter() {
            if let NodeRec::Endpoint { router, link } = n {
                let ri = ridx(*router);
                let ch_er = channels.len() as u32; // endpoint -> router
                channels.push(Channel::new(*link, LinkTag::Internal));
                let ch_re = channels.len() as u32; // router -> endpoint
                channels.push(Channel::new(*link, LinkTag::Internal));
                let port = routers[ri as usize].ports.len() as u8;
                routers[ri as usize].ports.push(Port {
                    peer: Peer::Endpoint {
                        idx: endpoints.len() as u32,
                    },
                    out_channel: ch_re,
                    vcs: new_vcs(total_vcs),
                    // Credits toward the endpoint's eject buffer live in VC 0.
                    credits: {
                        let mut c = vec![0i32; total_vcs];
                        c[0] = p.eject_buffer_flits as i32;
                        c
                    },
                    cap: p.eject_buffer_flits as i32,
                    pending: VecDeque::new(),
                });
                endpoints.push(Endpoint {
                    router: ri,
                    router_port: port,
                    inj_channel: ch_er,
                    inj_credits: vec![p.vc_buffer_flits as i32; total_vcs],
                    inject_q: VecDeque::new(),
                    eject_q: VecDeque::new(),
                });
                home.push(ri);
            }
        }

        let (min_ports_rtr, min_ports_ep) = min_port_tables(&routers, &channels, &endpoints, &dist);

        // Overlay chains: for each router on a chain, destination endpoints
        // homed further along the chain (in either direction) are reached
        // through the chain port toward them.
        let mut overlay: Vec<BTreeMap<NodeId, u8>> = vec![BTreeMap::new(); nr];
        for chain in &b.overlay_chains {
            let idxs: Vec<u32> = chain.iter().map(|&n| ridx(n)).collect();
            // Port used to go from chain[i] to chain[i+1] and back.
            let mut fwd_port = vec![0u8; idxs.len()];
            let mut back_port = vec![0u8; idxs.len()];
            for w in 0..idxs.len() - 1 {
                let (a, bb) = (idxs[w], idxs[w + 1]);
                let li = b
                    .links
                    .iter()
                    .position(|l| {
                        (ridx(l.a) == a && ridx(l.b) == bb) || (ridx(l.a) == bb && ridx(l.b) == a)
                    })
                    .expect("validated by overlay_chain");
                let (pa, pb) = link_ports[li];
                let a_is_link_a = ridx(b.links[li].a) == a;
                fwd_port[w] = if a_is_link_a { pa } else { pb };
                back_port[w + 1] = if a_is_link_a { pb } else { pa };
            }
            for (i, &r) in idxs.iter().enumerate() {
                for (j, &other) in idxs.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let port = if j > i { fwd_port[i] } else { back_port[i] };
                    // All endpoints homed at `other` are reachable via the chain.
                    for (e, &h) in home.iter().enumerate() {
                        if h == other {
                            overlay[r as usize].insert(node_of_endpoint[e], port);
                        }
                    }
                }
            }
        }
        for (r, map) in overlay.into_iter().enumerate() {
            routers[r].overlay_next = map;
        }

        let link_tags: Vec<LinkTag> = b.links.iter().map(|l| l.tag).collect();
        let link_up = vec![true; b.links.len()];

        Network {
            flit_bytes: p.flit_bytes,
            pipeline_cycles: p.pipeline_cycles,
            passthrough_cycles: p.passthrough_cycles,
            vcs_per_class,
            energy_pj_per_bit: p.energy_pj_per_bit,
            idle_pj_per_bit: p.idle_pj_per_bit,
            policy: b.policy,
            routers,
            endpoints,
            channels,
            kind,
            node_of_router,
            dist,
            min_ports_ep,
            min_ports_rtr,
            home,
            link_tags,
            link_rtrs,
            link_ports,
            link_up,
            failed_q: VecDeque::new(),
            events: CalendarQueue::new(),
            seq: 0,
            cycle: 0,
            in_network: 0,
            packets: Vec::new(),
            free_pids: Vec::new(),
            rng: SplitMix64::new(p.seed),
            stats: NetStats::default(),
            ep_inj_cap: p.vc_buffer_flits as i32,
        }
    }

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

    /// True when a tick would be a pure no-op: nothing buffered or in
    /// flight *and* no scheduled event (a credit return can outlive its
    /// packet by a cycle). Stricter than [`Network::has_work`]; this is
    /// the idle signal the event-driven engine parks the net domain on.
    #[inline]
    pub fn is_quiescent(&self) -> bool {
        self.in_network == 0 && self.events.is_empty() && self.failed_q.is_empty()
    }

    /// Advances the cycle counter over `cycles` quiescent ticks without
    /// executing them. Idle cycles still count toward channel idle energy
    /// and utilization denominators, so the event-driven engine calls
    /// this when it wakes a parked net domain to keep those figures
    /// bit-identical with a cycle-stepped run.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        debug_assert!(self.is_quiescent(), "skipping cycles on a busy network");
        self.cycle += cycles;
    }

    /// Effective virtual channels per message class (may exceed the
    /// configured value if the topology diameter required it).
    pub fn vcs_per_class(&self) -> u32 {
        self.vcs_per_class
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Packets currently owned by the fabric (buffered or on the wire).
    #[inline]
    pub fn in_flight(&self) -> u64 {
        self.in_network
    }

    /// Checks the fabric's conservation invariants, returning one message
    /// per violation (empty = clean). Safe to call at any cycle:
    ///
    /// * **Packet conservation** — every packet ever injected is delivered,
    ///   in flight, or dead-lettered; nothing is duplicated or leaked.
    /// * **Credit bounds** — no credit counter is negative (overdraw) or
    ///   above its buffer capacity (double return). Endpoint-facing router
    ///   ports carry eject credits in VC 0 only.
    /// * **Credit restoration** — once the fabric is quiescent and every
    ///   eject queue has been drained, every credit counter must be back
    ///   at its capacity; a shortfall means credits leaked with a packet.
    pub fn audit(&self) -> Vec<String> {
        let mut out = Vec::new();
        let cyc = self.cycle;

        let accounted = self.stats.delivered + self.in_network + self.stats.dead_letters;
        if self.stats.packets_injected != accounted {
            out.push(format!(
                "cycle {cyc}: packet conservation broken: injected {} != \
                 delivered {} + in-flight {} + dead-letters {}",
                self.stats.packets_injected,
                self.stats.delivered,
                self.in_network,
                self.stats.dead_letters
            ));
        }

        // Quiescent + drained eject queues ⇒ every credit is home.
        let settled = self.is_quiescent() && self.endpoints.iter().all(|e| e.eject_q.is_empty());
        for (r, router) in self.routers.iter().enumerate() {
            for (pi, port) in router.ports.iter().enumerate() {
                let ep_facing = matches!(port.peer, Peer::Endpoint { .. });
                for (vc, &cr) in port.credits.iter().enumerate() {
                    // Eject credits live in VC 0 only on endpoint-facing
                    // ports; the other VCs must stay pinned at 0.
                    let cap = if ep_facing && vc != 0 { 0 } else { port.cap };
                    if cr < 0 || cr > cap {
                        out.push(format!(
                            "cycle {cyc}: router {r} port {pi} vc {vc}: credits {cr} \
                             outside [0, {cap}]"
                        ));
                    } else if settled && cr != cap {
                        out.push(format!(
                            "cycle {cyc}: router {r} port {pi} vc {vc}: credits {cr} \
                             not restored to {cap} at quiescence"
                        ));
                    }
                }
            }
        }
        for (e, ep) in self.endpoints.iter().enumerate() {
            for (vc, &cr) in ep.inj_credits.iter().enumerate() {
                if cr < 0 || cr > self.ep_inj_cap {
                    out.push(format!(
                        "cycle {cyc}: endpoint {e} vc {vc}: inject credits {cr} \
                         outside [0, {}]",
                        self.ep_inj_cap
                    ));
                } else if settled && cr != self.ep_inj_cap {
                    out.push(format!(
                        "cycle {cyc}: endpoint {e} vc {vc}: inject credits {cr} \
                         not restored to {} at quiescence",
                        self.ep_inj_cap
                    ));
                }
            }
        }
        out
    }

    /// Test hook: corrupts one credit counter by `delta` so sanitizer
    /// drills can prove the audit pinpoints the damage. Not part of the
    /// simulation model.
    #[doc(hidden)]
    pub fn debug_corrupt_credit(&mut self, router: usize, port: usize, vc: usize, delta: i32) {
        self.routers[router].ports[port].credits[vc] += delta;
    }

    /// Captures the mutable state for checkpointing. Only valid while the
    /// fabric is quiescent with every eject queue drained — at that point
    /// all credits are provably back at capacity (see [`Network::audit`])
    /// and no packet slot is live, so topology, buffers and credits need
    /// no serialization. What *does* carry over: the cycle counter, the
    /// event tie-break sequence, the routing RNG, the packet-slot free
    /// list (its order determines future [`PacketId`] assignment and thus
    /// minimal-port hash spreading), fault state (links down, BER
    /// degrades), per-channel utilization counters, and the aggregate
    /// stats.
    ///
    /// # Panics
    ///
    /// Panics if the fabric still owns packets, events or queued ejects.
    pub fn snapshot_state(&self) -> NetworkState {
        assert!(
            self.is_quiescent(),
            "network snapshot requires a quiescent fabric"
        );
        assert!(
            self.endpoints
                .iter()
                .all(|e| e.eject_q.is_empty() && e.inject_q.is_empty()),
            "network snapshot requires drained endpoint queues"
        );
        assert_eq!(
            self.free_pids.len(),
            self.packets.len(),
            "network snapshot requires every packet slot to be free"
        );
        NetworkState {
            cycle: self.cycle,
            seq: self.seq,
            rng_state: self.rng.state(),
            packet_slots: self.packets.len() as u64,
            free_pids: self.free_pids.clone(),
            link_up: self.link_up.clone(),
            channels: self
                .channels
                .iter()
                .map(|c| ChannelState {
                    up: c.up,
                    degrade: c.degrade,
                    busy_until: c.busy_until,
                    bytes_moved: c.bytes_moved,
                    busy_cycles: c.busy_cycles,
                })
                .collect(),
            stats: self.stats.clone(),
        }
    }

    /// Overwrites the mutable state from a [`Network::snapshot_state`]
    /// taken on a network built from the identical topology. Route tables
    /// are recomputed from the restored link states.
    ///
    /// # Errors
    ///
    /// Refuses, untouched, a link or channel count this network does not
    /// have, and a free list that is not a permutation of the packet
    /// slots — a quiescent fabric owns no packet.
    pub fn restore_state(&mut self, s: &NetworkState) -> Result<(), String> {
        fit_len("link_up", s.link_up.len(), self.link_up.len())?;
        fit_len("channels", s.channels.len(), self.channels.len())?;
        let mut free = s.free_pids.clone();
        free.sort_unstable();
        let slots = s.packet_slots;
        if !free.iter().map(|&p| u64::from(p)).eq(0..slots) {
            return Err(format!(
                "field 'free_pids' is not a permutation of the {slots} packet slots"
            ));
        }
        self.cycle = s.cycle;
        self.seq = s.seq;
        self.rng = SplitMix64::new(s.rng_state);
        self.packets = (0..s.packet_slots).map(|_| None).collect();
        self.free_pids.clone_from(&s.free_pids);
        self.link_up.clone_from(&s.link_up);
        for (c, cs) in self.channels.iter_mut().zip(&s.channels) {
            c.up = cs.up;
            c.degrade = cs.degrade;
            c.busy_until = cs.busy_until;
            c.bytes_moved = cs.bytes_moved;
            c.busy_cycles = cs.busy_cycles;
        }
        self.events.clear();
        self.failed_q.clear();
        self.in_network = 0;
        self.stats = s.stats.clone();
        self.recompute_routes();
        Ok(())
    }

    /// Mean utilization of powered channels: busy cycles over elapsed
    /// cycles, averaged over all external channels. 0 when no time has
    /// passed.
    pub fn channel_utilization(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        let powered: Vec<&Channel> = self.channels.iter().filter(|c| c.powered).collect();
        if powered.is_empty() {
            return 0.0;
        }
        powered
            .iter()
            .map(|c| c.busy_cycles as f64 / self.cycle as f64)
            .sum::<f64>()
            / powered.len() as f64
    }

    /// Per-builder-link utilization snapshot for the heatmap export:
    /// one entry per link in builder order, with both directed channels'
    /// busy fraction and bytes moved. See [`LinkUtilization`].
    pub fn link_utilization(&self) -> Vec<LinkUtilization> {
        let cycles = self.cycle.max(1) as f64;
        let mut out = Vec::with_capacity(self.link_rtrs.len());
        for (i, &(a, b)) in self.link_rtrs.iter().enumerate() {
            let (pa, pb) = self.link_ports[i];
            // Channel owned by a's port pa carries a→b traffic; b's port
            // pb carries the reverse direction.
            let fwd =
                &self.channels[self.routers[a as usize].ports[pa as usize].out_channel as usize];
            let rev =
                &self.channels[self.routers[b as usize].ports[pb as usize].out_channel as usize];
            out.push(LinkUtilization {
                tag: fwd.tag,
                routers: (a, b),
                up: self.link_up[i],
                fwd_busy_frac: fwd.busy_cycles as f64 / cycles,
                rev_busy_frac: rev.busy_cycles as f64 / cycles,
                fwd_bytes: fwd.bytes_moved,
                rev_bytes: rev.bytes_moved,
            });
        }
        out
    }

    /// Per-router utilization: mean busy fraction over each router's
    /// powered output channels (0 for routers with none). Index = dense
    /// router index, matching [`Network::link_utilization`] endpoints.
    pub fn router_utilization(&self) -> Vec<f64> {
        let cycles = self.cycle.max(1) as f64;
        self.routers
            .iter()
            .map(|r| {
                let mut busy = 0.0;
                let mut n = 0u32;
                for p in &r.ports {
                    let ch = &self.channels[p.out_channel as usize];
                    if ch.powered {
                        busy += ch.busy_cycles as f64 / cycles;
                        n += 1;
                    }
                }
                if n == 0 {
                    0.0
                } else {
                    busy / n as f64
                }
            })
            .collect()
    }

    /// Visits the current occupancy (flits) of every router input VC
    /// buffer, for queue-depth histogram sampling.
    pub fn sample_vc_occupancy(&self, mut f: impl FnMut(u64)) {
        for r in &self.routers {
            for p in &r.ports {
                for vc in &p.vcs {
                    f(vc.occ as u64);
                }
            }
        }
    }

    /// Network energy in millijoules under the paper's model: 2.0 pJ/bit
    /// for moved bytes plus 1.5 pJ/bit-time idle on powered channels.
    pub fn energy_mj(&self) -> f64 {
        let mut pj = 0.0;
        for ch in &self.channels {
            if !ch.powered {
                continue;
            }
            let moved_bits = ch.bytes_moved as f64 * 8.0;
            pj += moved_bits * self.energy_pj_per_bit;
            let idle_cycles = self.cycle.saturating_sub(ch.busy_cycles) as f64;
            pj += idle_cycles * ch.bytes_per_cycle * 8.0 * self.idle_pj_per_bit;
        }
        pj * 1e-9
    }

    /// Number of builder links carrying `tag`.
    pub fn count_links_of(&self, tag: LinkTag) -> usize {
        self.link_tags.iter().filter(|&&t| t == tag).count()
    }

    /// Resolves (tag, ordinal) to a concrete link index, wrapping the
    /// ordinal over the tag's population so seeded plans stay valid on any
    /// topology. `None` when the topology has no links with that tag.
    pub fn resolve_link(&self, tag: LinkTag, ordinal: u64) -> Option<usize> {
        let pop: Vec<usize> = (0..self.link_tags.len())
            .filter(|&li| self.link_tags[li] == tag)
            .collect();
        if pop.is_empty() {
            None
        } else {
            Some(pop[(ordinal % pop.len() as u64) as usize])
        }
    }

    /// True while the link is not fault-injected down.
    pub fn link_is_up(&self, li: usize) -> bool {
        self.link_up[li]
    }

    /// Number of links currently down.
    pub fn links_down(&self) -> usize {
        self.link_up.iter().filter(|&&u| !u).count()
    }

    /// Takes a link down (`up == false`) or restores it. Both directed
    /// channels flip, minimal-route tables recompute over the survivors,
    /// and on a cut every head packet that had chosen the dead port is
    /// re-routed (or dead-lettered when no surviving path exists).
    /// Packets already committed to the wire still arrive — the flits
    /// were physically in flight. No-op if the link is already in the
    /// requested state.
    pub fn set_link_state(&mut self, li: usize, up: bool) {
        if self.link_up[li] == up {
            return;
        }
        self.link_up[li] = up;
        let (a, b) = self.link_rtrs[li];
        let (pa, pb) = self.link_ports[li];
        for (r, p) in [(a, pa), (b, pb)] {
            let ch = self.routers[r as usize].ports[p as usize].out_channel as usize;
            self.channels[ch].up = up;
        }
        self.recompute_routes();
        if !up {
            for (r, p) in [(a, pa), (b, pb)] {
                let stranded: Vec<Cand> = self.routers[r as usize].ports[p as usize]
                    .pending
                    .drain(..)
                    .collect();
                for cand in stranded {
                    self.stats.reroutes += 1;
                    self.route_head(r as usize, cand.in_port as usize, cand.vc as usize);
                }
            }
        }
    }

    /// Sets the retransmit multiplier on both directed channels of a link
    /// (elevated BER model): every traversal pays `factor`× serialization.
    /// `factor = 1` restores the clean channel.
    pub fn degrade_link(&mut self, li: usize, factor: u32) {
        let factor = factor.max(1);
        let (a, b) = self.link_rtrs[li];
        let (pa, pb) = self.link_ports[li];
        for (r, p) in [(a, pa), (b, pb)] {
            let ch = self.routers[r as usize].ports[p as usize].out_channel as usize;
            self.channels[ch].degrade = factor;
        }
    }

    /// True if the current route tables have a path between two endpoints.
    /// Producers check this before injecting so requests toward an
    /// unreachable destination can be failed at the source instead of
    /// dead-lettering mid-fabric.
    pub fn route_exists(&self, src: NodeId, dest: NodeId) -> bool {
        let s = self.home[self.ep_idx(src) as usize] as usize;
        let d = self.home[self.ep_idx(dest) as usize] as usize;
        self.dist[s][d] != u16::MAX
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

    /// Rebuilds `dist` and the minimal-port tables over the links that are
    /// currently up. Unreachable destinations get empty port sets (route
    /// attempts toward them dead-letter) rather than panicking like the
    /// construction-time connectivity check.
    fn recompute_routes(&mut self) {
        let nr = self.routers.len();
        self.dist = all_pairs_hops(nr, &self.link_rtrs, |li| self.link_up[li]);
        (self.min_ports_rtr, self.min_ports_ep) =
            min_port_tables(&self.routers, &self.channels, &self.endpoints, &self.dist);
    }

    /// Pulls the head packet of an input VC buffer out of the fabric:
    /// credits return upstream exactly as if it had been forwarded, the
    /// packet lands in the failed queue, and the next head (if any) gets
    /// routed.
    fn dead_letter_head(&mut self, r: usize, in_port: usize, vc: usize) {
        let (pid, flits) = {
            let buf = &mut self.routers[r].ports[in_port].vcs[vc];
            let Some(pid) = buf.q.pop_front() else {
                return;
            };
            let flits = self.packets[pid as usize]
                .as_ref()
                .map(|p| p.flits)
                .unwrap_or(0);
            buf.occ -= flits;
            (pid, flits)
        };
        match self.routers[r].ports[in_port].peer {
            Peer::Router { idx, port } => {
                self.push_event(
                    self.cycle + 1,
                    Ev::Credit {
                        router: idx,
                        port,
                        vc: vc as u8,
                        flits,
                    },
                );
            }
            Peer::Endpoint { idx } => {
                self.push_event(
                    self.cycle + 1,
                    Ev::CreditEp {
                        ep: idx,
                        vc: vc as u8,
                        flits,
                    },
                );
            }
        }
        self.in_network -= 1;
        self.stats.dead_letters += 1;
        self.failed_q.push_back(pid);
        if !self.routers[r].ports[in_port].vcs[vc].q.is_empty() {
            self.route_head(r, in_port, vc);
        }
    }

    /// Dense endpoint index for a node id.
    fn ep_idx(&self, ep: NodeId) -> u32 {
        match self.kind[ep.index()] {
            Peer::Endpoint { idx } => idx,
            Peer::Router { .. } => panic!("{ep} is a router, not an endpoint"),
        }
    }

    /// True if the endpoint can accept another packet without unbounded
    /// queueing (used by producers for backpressure).
    pub fn inject_ready(&self, ep: NodeId) -> bool {
        self.endpoints[self.ep_idx(ep) as usize].inject_q.len() < 8
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
        let e = self.ep_idx(src) as usize;
        self.endpoints[e].inject_q.push_back(pid);
        self.in_network += 1;
        self.stats.packets_injected += 1;
        self.try_inject(e);
    }

    /// True if [`Network::poll_eject`] at `ep` would return a packet.
    pub fn has_eject(&self, ep: NodeId) -> bool {
        !self.endpoints[self.ep_idx(ep) as usize].eject_q.is_empty()
    }

    /// Takes the next delivered packet at `ep`, if any, returning credits to
    /// the network.
    pub fn poll_eject(&mut self, ep: NodeId) -> Option<EjectedPacket> {
        let e = self.ep_idx(ep) as usize;
        let pid = self.endpoints[e].eject_q.pop_front()?;
        let pkt = self.free(pid);
        let (router, port) = (
            self.endpoints[e].router as usize,
            self.endpoints[e].router_port as usize,
        );
        self.routers[router].ports[port].credits[0] += pkt.flits as i32;
        Some(EjectedPacket {
            payload: pkt.payload,
            src: pkt.src,
            latency_cycles: self.cycle - pkt.injected_cycle,
            hops: pkt.hops,
        })
    }

    /// Advances the network by one router cycle.
    pub fn tick(&mut self) {
        self.tick_traced(None);
    }

    /// [`Network::tick`] with optional event tracing. Per-hop stage timing
    /// (queueing vs pipeline vs SerDes vs serialization) is recorded as
    /// [`TraceEventKind::PacketHop`] spans.
    pub fn tick_traced(&mut self, mut tracer: Option<&mut Tracer>) {
        // 1. Deliver this cycle's events, in the order they were scheduled.
        while let Some(ev) = self.events.pop(self.cycle) {
            match ev {
                Ev::ArriveRouter {
                    router,
                    port,
                    vc,
                    pid,
                } => {
                    // A packet slot can legitimately be empty under fault
                    // injection (the packet was dead-lettered while its
                    // arrival was in flight); drop the stale event rather
                    // than panicking.
                    let Some(pkt) = self.packets[pid as usize].as_mut() else {
                        continue;
                    };
                    pkt.arrived_cycle = self.cycle;
                    let flits = pkt.flits;
                    let buf =
                        &mut self.routers[router as usize].ports[port as usize].vcs[vc as usize];
                    buf.q.push_back(pid);
                    buf.occ += flits;
                    if buf.q.len() == 1 {
                        self.route_head(router as usize, port as usize, vc as usize);
                    }
                }
                Ev::ArriveEndpoint { ep, pid } => {
                    let Some(pkt) = self.packets[pid as usize].as_ref() else {
                        continue;
                    };
                    self.stats.delivered += 1;
                    self.stats.bytes_delivered += pkt.bytes as u64;
                    self.stats
                        .latency
                        .record((self.cycle - pkt.injected_cycle) as f64);
                    self.stats.hops.record(pkt.hops as f64);
                    self.endpoints[ep as usize].eject_q.push_back(pid);
                    self.in_network -= 1;
                }
                Ev::Credit {
                    router,
                    port,
                    vc,
                    flits,
                } => {
                    self.routers[router as usize].ports[port as usize].credits[vc as usize] +=
                        flits as i32;
                }
                Ev::CreditEp { ep, vc, flits } => {
                    self.endpoints[ep as usize].inj_credits[vc as usize] += flits as i32;
                }
            }
        }

        // 2. Switch allocation, one transfer per output port per cycle.
        for r in 0..self.routers.len() {
            for p in 0..self.routers[r].ports.len() {
                self.allocate(r, p, tracer.as_deref_mut());
            }
        }

        // 3. Endpoint injection.
        for e in 0..self.endpoints.len() {
            self.try_inject(e);
        }

        self.cycle += 1;
    }

    /// Runs ticks until the network drains or `max_cycles` elapse; returns
    /// cycles run.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> u64 {
        let start = self.cycle;
        while self.has_work() && self.cycle - start < max_cycles {
            self.tick();
        }
        self.cycle - start
    }

    fn alloc(&mut self, pkt: Packet) -> PacketId {
        if let Some(pid) = self.free_pids.pop() {
            self.packets[pid as usize] = Some(pkt);
            pid
        } else {
            self.packets.push(Some(pkt));
            (self.packets.len() - 1) as PacketId
        }
    }

    fn free(&mut self, pid: PacketId) -> Packet {
        let pkt = self.packets[pid as usize].take().expect("double free");
        self.free_pids.push(pid);
        pkt
    }

    fn push_event(&mut self, cycle: u64, ev: Ev) {
        self.seq += 1;
        self.events.push(self.cycle, cycle, ev);
    }

    fn class_base(&self, class: MsgClass) -> usize {
        class.index() * self.vcs_per_class as usize
    }

    /// Queue pressure toward `port`: occupied downstream credits across the
    /// packet's class VCs (used by UGAL).
    fn port_pressure(&self, r: usize, port: u8, class: MsgClass) -> i64 {
        let base = self.class_base(class);
        let port = &self.routers[r].ports[port as usize];
        (0..self.vcs_per_class as usize)
            .map(|v| port.cap as i64 - port.credits[base + v] as i64)
            .sum()
    }

    /// Decides the output port for the packet at the head of
    /// `routers[r].ports[in_port].vcs[vc]` and registers it for allocation.
    fn route_head(&mut self, r: usize, in_port: usize, vc: usize) {
        let pid = self.routers[r].ports[in_port].vcs[vc].q[0];
        let (dest, class, hops, overlay, mut via) = {
            // memnet-lint: allow(tick-unwrap, a pid queued in a VC buffer always names a live packet)
            let p = self.packets[pid as usize].as_ref().expect("live packet");
            (p.dest, p.class, p.hops, p.overlay, p.via)
        };

        // Overlay pass-through takes precedence for flagged packets — but
        // only while the chain port's channel is alive; a cut chain falls
        // back to ordinary minimal routing.
        if overlay {
            if let Some(&port) = self.routers[r].overlay_next.get(&dest) {
                let ch = self.routers[r].ports[port as usize].out_channel as usize;
                if self.channels[ch].up {
                    self.routers[r].ports[port as usize]
                        .pending
                        .push_back(Cand {
                            in_port: in_port as u8,
                            vc: vc as u8,
                            passthrough: true,
                        });
                    return;
                }
            }
        }

        // Valiant intermediate handling.
        if via == Some(self.node_of_router[r]) {
            via = None;
            // memnet-lint: allow(tick-unwrap, a pid queued in a VC buffer always names a live packet)
            self.packets[pid as usize].as_mut().expect("live").via = None;
        }

        // UGAL decision at the injection router.
        let e = self.ep_idx(dest) as usize;
        if self.policy == RoutingPolicy::Ugal && hops == 0 && via.is_none() && !overlay {
            let h_min = self.dist[r][self.home[e] as usize] as i64 + 1;
            if let Some(min_port) = self.min_ports_ep[r][e].first().copied() {
                let x = self.rng.next_below(self.routers.len() as u64) as usize;
                if x != r && x != self.home[e] as usize && !self.min_ports_rtr[r][x].is_empty() {
                    let h_non = (self.dist[r][x] + self.dist[x][self.home[e] as usize]) as i64 + 1;
                    let q_min = self.port_pressure(r, min_port, class);
                    let non_port = self.min_ports_rtr[r][x][0];
                    let q_non = self.port_pressure(r, non_port, class);
                    // Bias toward minimal (standard UGAL threshold): only
                    // divert when the minimal queue is *substantially*
                    // worse, not on noise.
                    const UGAL_THRESHOLD: i64 = 96;
                    if q_min * h_min > q_non * h_non + UGAL_THRESHOLD {
                        via = Some(self.node_of_router[x]);
                        // memnet-lint: allow(tick-unwrap, a pid queued in a VC buffer always names a live packet)
                        self.packets[pid as usize].as_mut().expect("live").via = via;
                        self.stats.nonminimal += 1;
                    }
                }
            }
        }

        // Candidate minimal ports toward the current objective. A Valiant
        // intermediate severed by a fault is abandoned in favor of the
        // direct minimal path; if the destination itself is unreachable
        // the packet is dead-lettered rather than stranded.
        let via_rtr = via.map(|v| match self.kind[v.index()] {
            Peer::Router { idx, .. } => idx as usize,
            Peer::Endpoint { .. } => unreachable!("via is always a router"),
        });
        if let Some(vi) = via_rtr {
            if self.min_ports_rtr[r][vi].is_empty() {
                // memnet-lint: allow(tick-unwrap, a pid queued in a VC buffer always names a live packet)
                self.packets[pid as usize].as_mut().expect("live").via = None;
                self.stats.reroutes += 1;
                via = None;
            }
        }
        let ports: &[u8] = match (via, via_rtr) {
            (Some(_), Some(vi)) => &self.min_ports_rtr[r][vi],
            _ => &self.min_ports_ep[r][e],
        };
        if ports.is_empty() {
            self.dead_letter_head(r, in_port, vc);
            return;
        }
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
                        // memnet-lint: allow(tick-unwrap, guarded by the routing-policy match; the candidate port list is nonempty here)
                        .expect("nonempty")
                }
            }
        };
        self.routers[r].ports[out as usize].pending.push_back(Cand {
            in_port: in_port as u8,
            vc: vc as u8,
            passthrough: false,
        });
    }

    /// Tries to send one packet through output port `p` of router `r`.
    fn allocate(&mut self, r: usize, p: usize, mut tracer: Option<&mut Tracer>) {
        if self.routers[r].ports[p].pending.is_empty() {
            return;
        }
        let ch_idx = self.routers[r].ports[p].out_channel as usize;
        if !self.channels[ch_idx].up || self.channels[ch_idx].busy_until > self.cycle {
            return;
        }
        let n = self.routers[r].ports[p].pending.len();
        for _ in 0..n {
            let Some(&cand) = self.routers[r].ports[p].pending.front() else {
                return;
            };
            // Under fault injection a candidate can go stale: its head was
            // dead-lettered or already moved. Drop it instead of panicking.
            let Some(&pid) = self.routers[r].ports[cand.in_port as usize].vcs[cand.vc as usize]
                .q
                .front()
            else {
                self.routers[r].ports[p].pending.pop_front();
                continue;
            };
            let Some((flits, bytes, class, hops)) = self.packets[pid as usize]
                .as_ref()
                .map(|pkt| (pkt.flits, pkt.bytes, pkt.class, pkt.hops))
            else {
                self.routers[r].ports[p].pending.pop_front();
                continue;
            };
            let peer = self.routers[r].ports[p].peer;
            let out_vc = match peer {
                Peer::Endpoint { .. } => 0usize,
                Peer::Router { .. } => {
                    // Hop-indexed VC, clamped: paths longer than the VC
                    // count share the last VC (still deadlock-free, the
                    // escape ordering only needs monotonicity).
                    self.class_base(class)
                        + ((hops + 1) as usize).min(self.vcs_per_class as usize - 1)
                }
            };
            if self.routers[r].ports[p].credits[out_vc] < flits as i32 {
                // Blocked: rotate and try the next candidate.
                self.routers[r].ports[p].pending.rotate_left(1);
                continue;
            }

            // Commit the transfer.
            self.routers[r].ports[p].pending.pop_front();
            self.routers[r].ports[p].credits[out_vc] -= flits as i32;
            let ser = self.channels[ch_idx].ser_cycles(bytes);
            let (pipe, serdes) = if cand.passthrough {
                self.stats.passthrough += 1;
                (self.passthrough_cycles as u64, 0u64)
            } else {
                (
                    self.pipeline_cycles as u64,
                    self.channels[ch_idx].serdes_cycles as u64,
                )
            };
            let lat = pipe + serdes + ser;
            self.channels[ch_idx].busy_until = self.cycle + ser;
            self.channels[ch_idx].bytes_moved += bytes as u64;
            self.channels[ch_idx].busy_cycles += ser;
            self.stats.flit_hops += flits as u64;
            if self.channels[ch_idx].degrade > 1 {
                self.stats.retries += self.channels[ch_idx].degrade as u64 - 1;
            }

            if let Some(tr) = tracer.as_deref_mut() {
                let arrived = self.packets[pid as usize]
                    .as_ref()
                    // memnet-lint: allow(tick-unwrap, a pid holding an allocated crossbar slot is live by construction)
                    .expect("live")
                    .arrived_cycle;
                let queue_cycles = self.cycle - arrived;
                tr.emit(
                    ClockDomain::Net,
                    arrived,
                    queue_cycles + lat,
                    TraceEventKind::PacketHop {
                        router: r as u32,
                        port: p as u8,
                        queue_cycles,
                        pipeline_cycles: pipe,
                        serdes_cycles: serdes,
                        ser_cycles: ser,
                        passthrough: cand.passthrough,
                    },
                );
            }

            match peer {
                Peer::Router { idx, port } => {
                    // memnet-lint: allow(tick-unwrap, a pid holding an allocated crossbar slot is live by construction)
                    self.packets[pid as usize].as_mut().expect("live").hops += 1;
                    self.push_event(
                        self.cycle + lat,
                        Ev::ArriveRouter {
                            router: idx,
                            port,
                            vc: out_vc as u8,
                            pid,
                        },
                    );
                }
                Peer::Endpoint { idx } => {
                    self.push_event(self.cycle + lat, Ev::ArriveEndpoint { ep: idx, pid });
                }
            }

            // Remove from the input buffer and return a credit upstream.
            {
                let buf = &mut self.routers[r].ports[cand.in_port as usize].vcs[cand.vc as usize];
                let popped = buf.q.pop_front();
                debug_assert_eq!(popped, Some(pid));
                if popped.is_some() {
                    buf.occ -= flits;
                }
            }
            let upstream = self.routers[r].ports[cand.in_port as usize].peer;
            match upstream {
                Peer::Router { idx, port } => {
                    self.push_event(
                        self.cycle + 1,
                        Ev::Credit {
                            router: idx,
                            port,
                            vc: cand.vc,
                            flits,
                        },
                    );
                }
                Peer::Endpoint { idx } => {
                    self.push_event(
                        self.cycle + 1,
                        Ev::CreditEp {
                            ep: idx,
                            vc: cand.vc,
                            flits,
                        },
                    );
                }
            }
            // New head (if any) gets routed.
            if !self.routers[r].ports[cand.in_port as usize].vcs[cand.vc as usize]
                .q
                .is_empty()
            {
                self.route_head(r, cand.in_port as usize, cand.vc as usize);
            }
            return;
        }
    }

    /// Moves packets from an endpoint's injection queue into its router.
    fn try_inject(&mut self, e: usize) {
        loop {
            let Some(&pid) = self.endpoints[e].inject_q.front() else {
                return;
            };
            let Some((flits, bytes, class)) = self.packets[pid as usize]
                .as_ref()
                .map(|pkt| (pkt.flits, pkt.bytes, pkt.class))
            else {
                self.endpoints[e].inject_q.pop_front();
                continue;
            };
            let vc = self.class_base(class); // hop 0
            let ch_idx = self.endpoints[e].inj_channel as usize;
            if self.endpoints[e].inj_credits[vc] < flits as i32
                || self.channels[ch_idx].busy_until > self.cycle
            {
                return;
            }
            self.endpoints[e].inject_q.pop_front();
            self.endpoints[e].inj_credits[vc] -= flits as i32;
            self.stats.flits_injected += flits as u64;
            self.stats.flit_hops += flits as u64;
            let ser = self.channels[ch_idx].ser_cycles(bytes);
            self.channels[ch_idx].busy_until = self.cycle + ser;
            self.channels[ch_idx].bytes_moved += bytes as u64;
            self.channels[ch_idx].busy_cycles += ser;
            let (router, port) = (self.endpoints[e].router, self.endpoints[e].router_port);
            self.push_event(
                self.cycle + ser + 1,
                Ev::ArriveRouter {
                    router,
                    port,
                    vc: vc as u8,
                    pid,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{LinkSpec, LinkTag, NetworkBuilder, NocParams};
    use memnet_common::{AccessKind, Agent, GpuId, MemReq, ReqId};

    fn payload(bytes: u32, kind: AccessKind, id: u64) -> Payload {
        Payload::Req(MemReq {
            id: ReqId(id),
            addr: 0,
            bytes,
            kind,
            src: Agent::Gpu(GpuId(0)),
        })
    }

    /// A line of `n` routers, one endpoint each.
    fn line(n: usize) -> (Network, Vec<NodeId>) {
        let mut b = NetworkBuilder::new(NocParams::default());
        let routers: Vec<NodeId> = (0..n).map(|_| b.router()).collect();
        for w in routers.windows(2) {
            b.link(w[0], w[1], LinkSpec::default(), LinkTag::HmcHmc);
        }
        let eps: Vec<NodeId> = routers.iter().map(|&r| b.endpoint(r)).collect();
        (b.build(), eps)
    }

    #[test]
    fn single_hop_delivery_and_latency() {
        let (mut net, eps) = line(2);
        net.inject(
            eps[0],
            eps[1],
            MsgClass::Req,
            payload(128, AccessKind::Read, 1),
            false,
        );
        assert!(net.has_work());
        let mut got = None;
        for _ in 0..200 {
            net.tick();
            if let Some(p) = net.poll_eject(eps[1]) {
                got = Some(p);
                break;
            }
        }
        let p = got.expect("delivered");
        assert_eq!(p.hops, 1);
        // 1-flit packet: inject ser(1)+1, hop pipeline(4)+serdes(4)+ser(1),
        // eject pipeline(4)+ser(1) — order ~16 cycles.
        assert!(
            p.latency_cycles >= 10 && p.latency_cycles <= 30,
            "latency {}",
            p.latency_cycles
        );
        assert!(!net.has_work());
    }

    #[test]
    fn multi_hop_line_increases_latency() {
        let (mut net, eps) = line(5);
        net.inject(
            eps[0],
            eps[4],
            MsgClass::Req,
            payload(128, AccessKind::Read, 1),
            false,
        );
        let mut lat5 = 0;
        for _ in 0..500 {
            net.tick();
            if let Some(p) = net.poll_eject(eps[4]) {
                assert_eq!(p.hops, 4);
                lat5 = p.latency_cycles;
                break;
            }
        }
        assert!(lat5 > 0);

        let (mut net2, eps2) = line(2);
        net2.inject(
            eps2[0],
            eps2[1],
            MsgClass::Req,
            payload(128, AccessKind::Read, 1),
            false,
        );
        let mut lat2 = 0;
        for _ in 0..500 {
            net2.tick();
            if let Some(p) = net2.poll_eject(eps2[1]) {
                lat2 = p.latency_cycles;
                break;
            }
        }
        assert!(
            lat5 > lat2 + 20,
            "5-router line ({lat5}) should be much slower than 2 ({lat2})"
        );
    }

    #[test]
    fn all_packets_delivered_under_load() {
        let (mut net, eps) = line(4);
        let n = 200;
        for i in 0..n {
            let dst = eps[1 + (i % 3) as usize];
            net.inject(
                eps[0],
                dst,
                MsgClass::Req,
                payload(128, AccessKind::Write, i),
                false,
            );
        }
        let mut delivered = 0;
        for _ in 0..200_000 {
            net.tick();
            for &e in &eps[1..] {
                while net.poll_eject(e).is_some() {
                    delivered += 1;
                }
            }
            if delivered == n {
                break;
            }
        }
        assert_eq!(delivered, n, "all packets must eventually arrive");
        assert!(!net.has_work());
        assert_eq!(net.stats().delivered, n);
    }

    #[test]
    fn bidirectional_traffic_request_response() {
        let (mut net, eps) = line(3);
        for i in 0..50u64 {
            net.inject(
                eps[0],
                eps[2],
                MsgClass::Req,
                payload(128, AccessKind::Read, i),
                false,
            );
            net.inject(
                eps[2],
                eps[0],
                MsgClass::Resp,
                payload(128, AccessKind::Read, 1000 + i),
                false,
            );
        }
        let mut got = 0;
        for _ in 0..100_000 {
            net.tick();
            while net.poll_eject(eps[0]).is_some() {
                got += 1;
            }
            while net.poll_eject(eps[2]).is_some() {
                got += 1;
            }
            if got == 100 {
                break;
            }
        }
        assert_eq!(got, 100);
    }

    #[test]
    fn slow_pcie_link_is_much_slower() {
        // Two routers joined by PCIe vs by an HMC channel.
        let build = |spec: LinkSpec| {
            let mut b = NetworkBuilder::new(NocParams::default());
            let r0 = b.router();
            let r1 = b.router();
            let e0 = b.endpoint(r0);
            let e1 = b.endpoint(r1);
            b.link(r0, r1, spec, LinkTag::Pcie);
            (b.build(), e0, e1)
        };
        let run = |mut net: Network, e0: NodeId, e1: NodeId| -> u64 {
            for i in 0..64u64 {
                net.inject(
                    e0,
                    e1,
                    MsgClass::Req,
                    payload(128, AccessKind::Write, i),
                    false,
                );
            }
            while net.has_work() && net.cycle() < 1_000_000 {
                net.tick();
                while net.poll_eject(e1).is_some() {}
            }
            assert!(!net.has_work(), "network should drain");
            net.cycle()
        };
        let (hmc_net, a0, a1) = build(LinkSpec::hmc_channel());
        let (pcie_net, b0, b1) = build(LinkSpec::pcie(300.0));
        let t_hmc = run(hmc_net, a0, a1);
        let t_pcie = run(pcie_net, b0, b1);
        assert!(t_pcie > t_hmc, "pcie {t_pcie} should exceed hmc {t_hmc}");
    }

    #[test]
    fn overlay_passthrough_reduces_latency() {
        // Chain of 4 routers; compare overlay CPU packet vs normal packet.
        let build = |use_overlay: bool| {
            let mut b = NetworkBuilder::new(NocParams::default());
            let rs: Vec<NodeId> = (0..4).map(|_| b.router()).collect();
            for w in rs.windows(2) {
                b.link(w[0], w[1], LinkSpec::default(), LinkTag::HmcHmc);
            }
            let e0 = b.endpoint(rs[0]);
            let e3 = b.endpoint(rs[3]);
            if use_overlay {
                b.overlay_chain(&rs);
            }
            (b.build(), e0, e3)
        };
        let run = |mut net: Network, e0: NodeId, e3: NodeId, overlay: bool| -> u64 {
            net.inject(
                e0,
                e3,
                MsgClass::Req,
                payload(64, AccessKind::Read, 1),
                overlay,
            );
            for _ in 0..1000 {
                net.tick();
                if let Some(p) = net.poll_eject(e3) {
                    return p.latency_cycles;
                }
            }
            panic!("not delivered");
        };
        let (n1, a, bb) = build(true);
        let (n2, c, d) = build(false);
        let lat_overlay = run(n1, a, bb, true);
        let lat_normal = run(n2, c, d, false);
        assert!(
            lat_overlay < lat_normal,
            "overlay {lat_overlay} should beat normal {lat_normal}"
        );
    }

    #[test]
    fn energy_grows_with_traffic() {
        let (mut net, eps) = line(2);
        for _ in 0..10 {
            net.tick();
        }
        let idle_only = net.energy_mj();
        assert!(idle_only > 0.0, "powered channels burn idle energy");
        for i in 0..100u64 {
            net.inject(
                eps[0],
                eps[1],
                MsgClass::Req,
                payload(128, AccessKind::Write, i),
                false,
            );
        }
        net.run_until_idle(1_000_000);
        let with_traffic = net.energy_mj();
        assert!(with_traffic > idle_only);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut net, eps) = line(4);
            for i in 0..100u64 {
                let d = eps[1 + (i % 3) as usize];
                net.inject(
                    eps[0],
                    d,
                    MsgClass::Req,
                    payload(128, AccessKind::Read, i),
                    false,
                );
            }
            net.run_until_idle(1_000_000);
            (
                net.cycle(),
                net.stats().latency.mean(),
                net.stats().hops.mean(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ugal_on_multipath_topology_delivers_everything() {
        // A 2x2 torus-ish square with path diversity.
        let mut b = NetworkBuilder::new(NocParams::default());
        let rs: Vec<NodeId> = (0..4).map(|_| b.router()).collect();
        b.link(rs[0], rs[1], LinkSpec::default(), LinkTag::HmcHmc);
        b.link(rs[1], rs[3], LinkSpec::default(), LinkTag::HmcHmc);
        b.link(rs[0], rs[2], LinkSpec::default(), LinkTag::HmcHmc);
        b.link(rs[2], rs[3], LinkSpec::default(), LinkTag::HmcHmc);
        let eps: Vec<NodeId> = rs.iter().map(|&r| b.endpoint(r)).collect();
        b.routing(RoutingPolicy::Ugal);
        let mut net = b.build();
        for i in 0..300u64 {
            net.inject(
                eps[0],
                eps[3],
                MsgClass::Req,
                payload(128, AccessKind::Write, i),
                false,
            );
        }
        while net.has_work() && net.cycle() < 1_000_000 {
            net.tick();
            while net.poll_eject(eps[3]).is_some() {}
        }
        assert_eq!(net.stats().delivered, 300);
        assert!(!net.has_work());
    }

    #[test]
    fn inject_ready_backpressure_signal() {
        let (mut net, eps) = line(2);
        assert!(net.inject_ready(eps[0]));
        for i in 0..200u64 {
            net.inject(
                eps[0],
                eps[1],
                MsgClass::Req,
                payload(128, AccessKind::Write, i),
                false,
            );
        }
        assert!(
            !net.inject_ready(eps[0]),
            "deep injection queue should report not-ready"
        );
    }

    /// A diamond: r0 reaches r3 via r1 or r2 (path diversity).
    fn diamond() -> (Network, Vec<NodeId>) {
        let mut b = NetworkBuilder::new(NocParams::default());
        let rs: Vec<NodeId> = (0..4).map(|_| b.router()).collect();
        b.link(rs[0], rs[1], LinkSpec::default(), LinkTag::HmcHmc);
        b.link(rs[1], rs[3], LinkSpec::default(), LinkTag::HmcHmc);
        b.link(rs[0], rs[2], LinkSpec::default(), LinkTag::HmcHmc);
        b.link(rs[2], rs[3], LinkSpec::default(), LinkTag::HmcHmc);
        let eps: Vec<NodeId> = rs.iter().map(|&r| b.endpoint(r)).collect();
        (b.build(), eps)
    }

    #[test]
    fn link_cut_reroutes_over_surviving_path() {
        let (mut net, eps) = diamond();
        assert_eq!(net.count_links_of(LinkTag::HmcHmc), 4);
        // Cut r0–r1; everything must flow r0→r2→r3.
        net.set_link_state(0, false);
        assert!(!net.link_is_up(0));
        assert_eq!(net.links_down(), 1);
        assert!(net.route_exists(eps[0], eps[3]));
        for i in 0..50u64 {
            net.inject(
                eps[0],
                eps[3],
                MsgClass::Req,
                payload(128, AccessKind::Write, i),
                false,
            );
        }
        let mut delivered = 0;
        while net.has_work() && net.cycle() < 100_000 {
            net.tick();
            while net.poll_eject(eps[3]).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 50, "all packets arrive over the survivor path");
        assert_eq!(net.stats().dead_letters, 0);
        assert!(net.poll_failed().is_none());
    }

    #[test]
    fn mid_flight_cut_reroutes_pending_heads() {
        let (mut net, eps) = diamond();
        for i in 0..100u64 {
            net.inject(
                eps[0],
                eps[3],
                MsgClass::Req,
                payload(256, AccessKind::Write, i),
                false,
            );
        }
        // Let traffic spread over both paths, then cut one mid-stream.
        for _ in 0..40 {
            net.tick();
        }
        net.set_link_state(1, false); // r1–r3 dies with heads en route
        let mut delivered = 0;
        while net.has_work() && net.cycle() < 200_000 {
            net.tick();
            while net.poll_eject(eps[3]).is_some() {
                delivered += 1;
            }
            while net.poll_eject(eps[1]).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 100, "cut must not strand committed traffic");
        assert!(!net.has_work());
    }

    #[test]
    fn full_cut_dead_letters_instead_of_hanging() {
        let (mut net, eps) = line(2);
        for i in 0..10u64 {
            net.inject(
                eps[0],
                eps[1],
                MsgClass::Req,
                payload(128, AccessKind::Write, i),
                false,
            );
        }
        net.set_link_state(0, false);
        assert!(!net.route_exists(eps[0], eps[1]));
        while net.has_work() && net.cycle() < 100_000 {
            net.tick();
            while net.poll_eject(eps[1]).is_some() {}
            while net.poll_failed().is_some() {}
        }
        assert!(!net.has_work(), "network must drain via dead-letters");
        let total = net.stats().delivered + net.stats().dead_letters;
        assert_eq!(total, 10, "every packet delivered or accounted as failed");
        assert!(net.stats().dead_letters > 0, "the cut must fail some");
    }

    #[test]
    fn audit_is_clean_in_flight_and_after_drain() {
        let (mut net, eps) = diamond();
        for i in 0..60u64 {
            net.inject(
                eps[0],
                eps[3],
                MsgClass::Req,
                payload(256, AccessKind::Write, i),
                false,
            );
        }
        let mut step = 0u64;
        while net.has_work() && net.cycle() < 100_000 {
            net.tick();
            step += 1;
            // Mid-flight audits must pass at every cycle, not just at rest.
            if step.is_multiple_of(7) {
                assert!(
                    net.audit().is_empty(),
                    "mid-flight audit: {:?}",
                    net.audit()
                );
            }
            while net.poll_eject(eps[3]).is_some() {}
        }
        net.tick(); // drain trailing credit events
        net.tick();
        assert!(net.is_quiescent());
        assert!(net.audit().is_empty(), "settled audit: {:?}", net.audit());
        assert_eq!(net.stats().packets_injected, 60);
        assert_eq!(net.stats().delivered, 60);
    }

    #[test]
    fn audit_is_clean_after_dead_letter_drain() {
        let (mut net, eps) = line(2);
        for i in 0..10u64 {
            net.inject(
                eps[0],
                eps[1],
                MsgClass::Req,
                payload(128, AccessKind::Write, i),
                false,
            );
        }
        net.set_link_state(0, false);
        while net.has_work() && net.cycle() < 100_000 {
            net.tick();
            while net.poll_eject(eps[1]).is_some() {}
            while net.poll_failed().is_some() {}
        }
        net.tick();
        net.tick();
        assert!(
            net.audit().is_empty(),
            "fault-path audit: {:?}",
            net.audit()
        );
        assert_eq!(
            net.stats().packets_injected,
            net.stats().delivered + net.stats().dead_letters
        );
    }

    #[test]
    fn audit_pinpoints_a_corrupted_credit() {
        let (mut net, _eps) = line(2);
        net.debug_corrupt_credit(0, 0, 0, -1);
        let viol = net.audit();
        assert_eq!(viol.len(), 1, "exactly the damaged counter: {viol:?}");
        assert!(
            viol[0].contains("router 0 port 0 vc 0"),
            "message must name the link: {}",
            viol[0]
        );
    }

    #[test]
    fn link_up_restores_service() {
        let (mut net, eps) = line(2);
        net.set_link_state(0, false);
        net.set_link_state(0, true);
        assert!(net.route_exists(eps[0], eps[1]));
        net.inject(
            eps[0],
            eps[1],
            MsgClass::Req,
            payload(128, AccessKind::Read, 1),
            false,
        );
        let mut ok = false;
        for _ in 0..500 {
            net.tick();
            if net.poll_eject(eps[1]).is_some() {
                ok = true;
                break;
            }
        }
        assert!(ok, "restored link must carry traffic again");
        assert_eq!(net.stats().dead_letters, 0);
    }

    #[test]
    fn degraded_link_pays_retransmit_latency() {
        let run = |factor: u32| -> (u64, u64) {
            let (mut net, eps) = line(2);
            net.degrade_link(0, factor);
            net.inject(
                eps[0],
                eps[1],
                MsgClass::Req,
                payload(256, AccessKind::Write, 1),
                false,
            );
            for _ in 0..10_000 {
                net.tick();
                if let Some(p) = net.poll_eject(eps[1]) {
                    return (p.latency_cycles, net.stats().retries);
                }
            }
            panic!("not delivered");
        };
        let (clean, retries_clean) = run(1);
        let (degraded, retries_deg) = run(4);
        assert!(
            degraded > clean,
            "BER 4x ({degraded}) must be slower than clean ({clean})"
        );
        assert_eq!(retries_clean, 0);
        assert!(retries_deg > 0, "degraded traversals count retries");
    }

    #[test]
    fn resolve_link_wraps_ordinal_over_population() {
        let (net, _) = diamond();
        assert_eq!(net.resolve_link(LinkTag::HmcHmc, 1), Some(1));
        assert_eq!(net.resolve_link(LinkTag::HmcHmc, 5), Some(1));
        assert_eq!(net.resolve_link(LinkTag::Pcie, 0), None);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_graph_panics() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let r0 = b.router();
        let r1 = b.router();
        let _e0 = b.endpoint(r0);
        let _e1 = b.endpoint(r1);
        let _ = b.build();
    }
}

#[cfg(test)]
mod utilization_tests {
    use crate::builder::{LinkSpec, LinkTag, NetworkBuilder, NocParams};
    use crate::packet::MsgClass;
    use memnet_common::{AccessKind, Agent, GpuId, MemReq, Payload, ReqId};

    #[test]
    fn utilization_tracks_traffic() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let r0 = b.router();
        let r1 = b.router();
        let e0 = b.endpoint(r0);
        let e1 = b.endpoint(r1);
        b.link(r0, r1, LinkSpec::default(), LinkTag::HmcHmc);
        let mut net = b.build();
        for _ in 0..50 {
            net.tick();
        }
        assert_eq!(
            net.channel_utilization(),
            0.0,
            "idle network has zero utilization"
        );
        for i in 0..200u64 {
            let req = MemReq {
                id: ReqId(i),
                addr: i * 128,
                bytes: 128,
                kind: AccessKind::Write,
                src: Agent::Gpu(GpuId(0)),
            };
            net.inject(e0, e1, MsgClass::Req, Payload::Req(req), false);
        }
        while net.has_work() && net.cycle() < 100_000 {
            net.tick();
            while net.poll_eject(e1).is_some() {}
        }
        let u = net.channel_utilization();
        assert!(u > 0.05 && u <= 1.0, "utilization {u}");
    }
}

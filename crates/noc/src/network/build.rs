//! From a [`NetworkBuilder`] to a runnable [`Network`]: dense indices,
//! ports and channels, VC sizing, minimal-route tables and overlay chains.

use super::{dense, Channel, Endpoint, NetStats, Network, Peer, Port, PortTable, Router};
use super::{Ready, RoutingPolicy, Vc, WakeRing, WorkCounts};
use crate::builder::{LinkSpec, LinkTag, NetworkBuilder, NodeRec};
use crate::calq::CalendarQueue;
use crate::packet::MsgClass;
use memnet_common::time::narrow_u32;
use memnet_common::{NodeId, SplitMix64};
use std::collections::{BTreeMap, VecDeque};

/// Router-to-router hop counts over the links `up` admits, row-major, by
/// BFS from every router; `u16::MAX` marks an unreachable pair.
#[allow(clippy::cast_possible_truncation, reason = "router indices < MAX_NODES, checked at build")]
pub(super) fn all_pairs_hops(
    nr: usize,
    link_rtrs: &[(u32, u32)],
    up: impl Fn(usize) -> bool,
) -> Vec<u16> {
    let mut arcs: Vec<(u32, u32)> = (link_rtrs.iter().enumerate())
        .filter(|&(li, _)| up(li))
        .flat_map(|(_, &(a, b))| [(a, b), (b, a)])
        .collect();
    arcs.sort_by_key(|arc| arc.0); // stable: neighbours stay in link order
    let first: Vec<usize> = (0..=nr as u32)
        .map(|u| arcs.partition_point(|arc| arc.0 < u))
        .collect();
    let (mut dist, mut q) = (vec![u16::MAX; nr * nr], Vec::with_capacity(nr));
    for (s, row) in dist.chunks_exact_mut(nr).enumerate() {
        row[s] = 0;
        q.clear();
        q.push(s);
        let mut head = 0;
        while let Some(&u) = q.get(head) {
            head += 1;
            for &(_, v) in &arcs[first[u]..first[u + 1]] {
                if row[v as usize] == u16::MAX {
                    row[v as usize] = row[u] + 1;
                    q.push(v as usize);
                }
            }
        }
    }
    dist
}

/// The minimal output ports per (router, destination router), in port
/// order: the ports whose channel is up and whose peer is one hop closer
/// under `dist` (row-major). An unreachable destination gets none.
#[allow(clippy::cast_possible_truncation, reason = "ports checked ≤ MAX_U8_IDS at build")]
pub(super) fn min_port_table(routers: &[Router], channels: &[Channel], dist: &[u16]) -> PortTable {
    let nr = routers.len();
    let (mut off, mut ports) = (Vec::with_capacity(nr * nr + 1), Vec::new());
    off.push(0);
    for (r, router) in routers.iter().enumerate() {
        for d in 0..nr {
            let to_d = dist[r * nr + d];
            for (pi, port) in router.ports.iter().enumerate() {
                if let Peer::Router { idx, .. } = port.peer {
                    let via = dist[idx as usize * nr + d];
                    if r != d
                        && to_d != u16::MAX
                        && channels[port.out_channel as usize].up
                        && via != u16::MAX
                        && via + 1 == to_d
                    {
                        ports.push(pi as u8);
                    }
                }
            }
            off.push(narrow_u32(ports.len() as u64, "the minimal-port table"));
        }
    }
    (off, ports)
}

/// Port ids and VC ids are `u8`: a router has at most this many ports, and
/// a port at most this many VCs (both message classes together).
pub(super) const MAX_U8_IDS: usize = 256;

/// Node ids are `u16`: a network has at most this many nodes. With
/// [`MAX_U8_IDS`] ports per router and VCs per port, every flat VC index
/// then fits a `u32` (at most 2^16 · 2^8 · 2^8 − 1).
pub(crate) const MAX_NODES: usize = 1 << 16;

impl Network {
    /// Freezes the builder's graph. Every id width is checked here, once:
    /// more than [`MAX_NODES`] nodes, a router with more than
    /// [`MAX_U8_IDS`] ports, or a diameter that needs more VCs per port, is
    /// refused, and so is a zero-cycle pipeline or pass-through: a credit
    /// due the cycle after its packet leaves a buffer follows every
    /// arrival due then only if each hop takes two cycles or more.
    #[allow(clippy::cast_possible_truncation, reason = "node and port counts checked here")]
    #[allow(clippy::expect_used, reason = "overlay chains are validated by overlay_chain")]
    pub(crate) fn from_builder(b: NetworkBuilder) -> Result<Network, String> {
        let p = b.params;
        for (field, cycles) in [
            ("pipeline_cycles", p.pipeline_cycles),
            ("passthrough_cycles", p.passthrough_cycles),
        ] {
            if cycles == 0 {
                return Err(format!("'{field}' must be at least 1 cycle"));
            }
        }
        if b.nodes.len() > MAX_NODES {
            return Err(format!(
                "{} nodes, more than the {MAX_NODES} that u16 node ids address",
                b.nodes.len()
            ));
        }
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

        let ridx = |n: NodeId| dense(&kind, n, true);
        let link_rtrs: Vec<(u32, u32)> = b.links.iter().map(|l| (ridx(l.a), ridx(l.b))).collect();

        // Needed before any port exists: the diameter sizes the VCs.
        let dist = all_pairs_hops(nr, &link_rtrs, |_| true);
        assert!(!dist.contains(&u16::MAX), "router graph is disconnected");
        let diameter = dist.iter().copied().max().unwrap_or(0) as u32;

        // Effective VCs per class: enough for hop-indexed VCs even on
        // Valiant paths.
        let needed = match b.policy {
            RoutingPolicy::Minimal => diameter + 1,
            RoutingPolicy::Ugal => 2 * diameter + 2,
        };
        let vcs_per_class = p.vcs_per_class.max(needed);
        let total_vcs = (vcs_per_class as usize) * MsgClass::COUNT;
        if total_vcs > MAX_U8_IDS {
            return Err(format!(
                "a diameter of {diameter} hops needs {total_vcs} VCs per port, \
                 more than the {MAX_U8_IDS} that u8 VC ids address"
            ));
        }
        let mut ports = vec![0usize; nr];
        for &(a, b) in &link_rtrs {
            ports[a as usize] += 1;
            ports[b as usize] += 1;
        }
        for n in &b.nodes {
            if let NodeRec::Endpoint { router, .. } = n {
                ports[ridx(*router) as usize] += 1;
            }
        }
        if let Some(most) = ports.into_iter().max().filter(|&n| n > MAX_U8_IDS) {
            return Err(format!(
                "a router needs {most} ports, more than the {MAX_U8_IDS} that u8 port ids address"
            ));
        }

        // Materialize routers: each link contributes one port on each side;
        // each endpoint contributes one port on its home router.
        let mut channels = Vec::new();
        let mut routers: Vec<Router> = (0..nr)
            .map(|_| Router {
                ports: Vec::new(),
                overlay_next: BTreeMap::new(),
            })
            .collect();
        // Buffers (and thus the credit window) must cover the link's
        // round-trip time or long-latency links (PCIe) throttle far below
        // their bandwidth: depth ≥ 2 × (serdes + pipeline) + slack.
        let depth_for = |spec: &LinkSpec| -> u32 {
            p.vc_buffer_flits
                .max(2 * (spec.serdes_cycles + p.pipeline_cycles) + 16)
        };
        // Map (link idx) -> (port on a, port on b) for overlay lookup.
        let mut link_ports: Vec<(u8, u8)> = Vec::with_capacity(b.links.len());
        for (l, &(ai, bi)) in b.links.iter().zip(&link_rtrs) {
            let pa = routers[ai as usize].ports.len() as u8;
            let pb = routers[bi as usize].ports.len() as u8;
            let depth = depth_for(&l.spec) as i32;
            for (from, idx, port) in [(ai, bi, pb), (bi, ai, pa)] {
                let ch = channels.len() as u32;
                channels.push(Channel::new(l.spec, l.tag));
                let ports = &mut routers[from as usize].ports;
                ports.push(Port::new(Peer::Router { idx, port }, ch, depth));
            }
            link_ports.push((pa, pb));
        }
        let mut endpoints = Vec::with_capacity(ne);
        for n in b.nodes.iter() {
            if let NodeRec::Endpoint { router, link } = n {
                let ri = ridx(*router);
                let inj_channel = channels.len() as u32; // endpoint -> router
                channels.push(Channel::new(*link, LinkTag::Internal));
                channels.push(Channel::new(*link, LinkTag::Internal)); // router -> endpoint
                let ports = &mut routers[ri as usize].ports;
                let peer = Peer::Endpoint {
                    idx: endpoints.len() as u32,
                };
                let cap = p.eject_buffer_flits as i32;
                ports.push(Port::new(peer, inj_channel + 1, cap));
                endpoints.push(Endpoint {
                    node: node_of_endpoint[endpoints.len()],
                    router: ri,
                    router_port: (ports.len() - 1) as u8,
                    inj_channel,
                    inj_credits: vec![p.vc_buffer_flits as i32; total_vcs],
                    inject_q: VecDeque::new(),
                    eject_q: VecDeque::new(),
                });
            }
        }

        let min_ports_rtr = min_port_table(&routers, &channels, &dist);

        // Overlay chains: for each router on a chain, destination endpoints
        // homed further along the chain (in either direction) are reached
        // through the chain port toward them.
        for chain in &b.overlay_chains {
            let idxs: Vec<u32> = chain.iter().map(|&n| ridx(n)).collect();
            // Port used to go from chain[i] to chain[i+1] and back.
            let mut fwd_port = vec![0u8; idxs.len()];
            let mut back_port = vec![0u8; idxs.len()];
            for w in 0..idxs.len() - 1 {
                let (a, bb) = (idxs[w], idxs[w + 1]);
                let li = link_rtrs
                    .iter()
                    .position(|&l| l == (a, bb) || l == (bb, a))
                    .expect("validated by overlay_chain");
                let (pa, pb) = link_ports[li];
                let a_is_link_a = link_rtrs[li].0 == a;
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
                    for (e, ep) in endpoints.iter().enumerate() {
                        if ep.router == other {
                            routers[r as usize]
                                .overlay_next
                                .insert(node_of_endpoint[e], port);
                        }
                    }
                }
            }
        }

        // The per-VC state, flat and router-major.
        let mut port_base = vec![0];
        for r in &routers {
            port_base.push(port_base[port_base.len() - 1] + r.ports.len() as u32);
        }
        let credits: Vec<i32> = (routers.iter().flat_map(|r| &r.ports))
            .flat_map(|port| (0..total_vcs).map(|vc| port.vc_cap(vc)))
            .collect();

        Ok(Network {
            flit_bytes: p.flit_bytes,
            pipeline_cycles: p.pipeline_cycles,
            passthrough_cycles: p.passthrough_cycles,
            vcs_per_class,
            energy_pj_per_bit: p.energy_pj_per_bit,
            idle_pj_per_bit: p.idle_pj_per_bit,
            policy: b.policy,
            ready_ports: Ready::new(port_base[nr] as usize),
            wake_ports: WakeRing::new(port_base[nr] as usize),
            vcs: vec![Vc::default(); credits.len()],
            credits,
            port_router: (routers.iter().enumerate())
                .flat_map(|(r, rt)| std::iter::repeat_n(r as u32, rt.ports.len()))
                .collect(),
            port_base,
            routers,
            ready_eps: Ready::new(ne),
            wake_eps: WakeRing::new(ne),
            endpoints,
            channels,
            kind,
            node_of_router,
            dist,
            min_ports_rtr,
            link_rtrs,
            link_ports,
            failed_q: VecDeque::new(),
            events: CalendarQueue::new(),
            credits_due: VecDeque::new(),
            cycle: 0,
            in_network: 0,
            ejects: 0,
            eject_set: Ready::new(ne),
            packets: Vec::new(),
            next: Vec::new(),
            free_pids: Vec::new(),
            rng: SplitMix64::new(p.seed),
            stats: NetStats::default(),
            ep_inj_cap: p.vc_buffer_flits as i32,
            work: WorkCounts::default(),
        })
    }
}

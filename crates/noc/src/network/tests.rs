use super::*;
use crate::builder::{LinkSpec, NetworkBuilder, NocParams};
use memnet_common::{AccessKind, Agent, GpuId, MemReq, ReqId};
use memnet_obs::json::{Field, ToJson};

fn payload(bytes: u32, kind: AccessKind, id: u64) -> Payload {
    Payload::Req(MemReq {
        id: ReqId(id),
        addr: 0,
        bytes,
        kind,
        src: Agent::Gpu(GpuId(0)),
    })
}

/// Injects `n` request packets of `bytes` data bytes from `src` to `dst`.
fn send(net: &mut Network, src: NodeId, dst: NodeId, n: u64, bytes: u32, kind: AccessKind) {
    for i in 0..n {
        net.inject(src, dst, MsgClass::Req, payload(bytes, kind, i), false);
    }
}

/// Ticks until the fabric is empty (at most 1 000 000 cycles), taking
/// every packet ejected at `eps` and every dead letter; returns how many
/// were delivered.
fn drain(net: &mut Network, eps: &[NodeId]) -> u64 {
    let mut delivered = 0;
    while net.has_work() && net.cycle() < 1_000_000 {
        net.tick();
        for &e in eps {
            while net.poll_eject(e).is_some() {
                delivered += 1;
            }
        }
        while net.poll_failed().is_some() {}
    }
    delivered
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

/// A diamond: r0 reaches r3 via r1 or r2 (path diversity).
fn diamond(policy: RoutingPolicy) -> (Network, Vec<NodeId>) {
    let mut b = NetworkBuilder::new(NocParams::default());
    let rs: Vec<NodeId> = (0..4).map(|_| b.router()).collect();
    b.link(rs[0], rs[1], LinkSpec::default(), LinkTag::HmcHmc);
    b.link(rs[1], rs[3], LinkSpec::default(), LinkTag::HmcHmc);
    b.link(rs[0], rs[2], LinkSpec::default(), LinkTag::HmcHmc);
    b.link(rs[2], rs[3], LinkSpec::default(), LinkTag::HmcHmc);
    let eps: Vec<NodeId> = rs.iter().map(|&r| b.endpoint(r)).collect();
    b.routing(policy);
    (b.build(), eps)
}

/// A star: router r0 reaches endpoint `d[i]` through its output port `i`
/// (the link to r1, then the link to r2). Endpoint `a` on r0 sends a
/// 9-flit write to `d[first]`, which holds that port busy, then two reads
/// that queue behind each other in one input VC of r0: read 1 to
/// `d[first]`, read 2 to `d[second]`. Returns the cycle each read is
/// ejected at its destination.
fn queued_pair_arrivals(first: usize, second: usize) -> [u64; 2] {
    let mut b = NetworkBuilder::new(NocParams::default());
    let rs: Vec<NodeId> = (0..3).map(|_| b.router()).collect();
    b.link(rs[0], rs[1], LinkSpec::default(), LinkTag::HmcHmc);
    b.link(rs[0], rs[2], LinkSpec::default(), LinkTag::HmcHmc);
    let a = b.endpoint(rs[0]);
    let d = [b.endpoint(rs[1]), b.endpoint(rs[2])];
    let mut net = b.build();
    for (id, dst, kind) in [
        (0, d[first], AccessKind::Write),
        (1, d[first], AccessKind::Read),
        (2, d[second], AccessKind::Read),
    ] {
        net.inject(a, dst, MsgClass::Req, payload(128, kind, id), false);
    }
    let mut at = [0; 2];
    while net.has_work() && net.cycle() < 1_000 {
        net.tick();
        for &e in &d {
            while let Some(pkt) = net.poll_eject(e) {
                if let Payload::Req(MemReq {
                    id: ReqId(id @ 1..=2),
                    ..
                }) = pkt.payload
                {
                    at[id as usize - 1] = net.cycle();
                }
            }
        }
    }
    at
}

#[test]
fn a_head_routed_onto_a_later_port_leaves_in_the_same_cycle() {
    // Read 1 leaves r0 in the cycle the write frees its port, and that
    // commit routes read 2. The allocation scan still reaches a later port
    // of the same router in this cycle; an earlier port waits a cycle.
    assert_eq!(queued_pair_arrivals(0, 1), [26, 26]);
    assert_eq!(queued_pair_arrivals(1, 0), [26, 27]);
}

#[test]
fn single_hop_delivery_and_latency() {
    let (mut net, eps) = line(2);
    send(&mut net, eps[0], eps[1], 1, 128, AccessKind::Read);
    assert!(net.has_work());
    assert_eq!(drain(&mut net, &eps), 1, "delivered");
    let (latency, hops) = (net.stats().latency.mean(), net.stats().hops.mean());
    assert_eq!(hops, 1.0);
    // 1-flit packet: inject ser(1)+1, hop pipeline(4)+serdes(4)+ser(1),
    // eject pipeline(4)+ser(1) — order ~16 cycles.
    assert!((10.0..=30.0).contains(&latency), "latency {latency}");
    assert!(!net.has_work());
}

#[test]
fn multi_hop_line_increases_latency() {
    let one_read = |n: usize| {
        let (mut net, eps) = line(n);
        send(&mut net, eps[0], eps[n - 1], 1, 128, AccessKind::Read);
        assert_eq!(drain(&mut net, &eps), 1, "delivered");
        (net.stats().latency.mean(), net.stats().hops.mean())
    };
    let (lat5, hops5) = one_read(5);
    assert_eq!(hops5, 4.0);
    assert!(lat5 > 0.0);
    let (lat2, _) = one_read(2);
    assert!(
        lat5 > lat2 + 20.0,
        "5-router line ({lat5}) should be much slower than 2 ({lat2})"
    );
}

#[test]
fn all_packets_delivered_under_load() {
    let (mut net, eps) = line(4);
    let n = 200;
    for i in 0..n {
        let dst = eps[1 + (i % 3) as usize];
        send(&mut net, eps[0], dst, 1, 128, AccessKind::Write);
    }
    assert_eq!(
        drain(&mut net, &eps),
        n,
        "all packets must eventually arrive"
    );
    assert!(!net.has_work());
    assert_eq!(net.stats().delivered, n);
}

#[test]
fn bidirectional_traffic_request_response() {
    let (mut net, eps) = line(3);
    send(&mut net, eps[0], eps[2], 50, 128, AccessKind::Read);
    for i in 0..50u64 {
        let resp = payload(128, AccessKind::Read, 1000 + i);
        net.inject(eps[2], eps[0], MsgClass::Resp, resp, false);
    }
    assert_eq!(drain(&mut net, &eps), 100);
}

#[test]
fn slow_pcie_link_is_much_slower() {
    // Two routers joined by PCIe vs by an HMC channel.
    let run = |spec: LinkSpec| {
        let mut b = NetworkBuilder::new(NocParams::default());
        let r0 = b.router();
        let r1 = b.router();
        let eps = [b.endpoint(r0), b.endpoint(r1)];
        b.link(r0, r1, spec, LinkTag::Pcie);
        let mut net = b.build();
        send(&mut net, eps[0], eps[1], 64, 128, AccessKind::Write);
        drain(&mut net, &eps);
        assert!(!net.has_work(), "network should drain");
        net.cycle()
    };
    let t_hmc = run(LinkSpec::hmc_channel());
    let t_pcie = run(LinkSpec::pcie(300.0));
    assert!(t_pcie > t_hmc, "pcie {t_pcie} should exceed hmc {t_hmc}");
}

#[test]
fn overlay_passthrough_reduces_latency() {
    // Chain of 4 routers; compare overlay CPU packet vs normal packet.
    let run = |overlay: bool| {
        let mut b = NetworkBuilder::new(NocParams::default());
        let rs: Vec<NodeId> = (0..4).map(|_| b.router()).collect();
        for w in rs.windows(2) {
            b.link(w[0], w[1], LinkSpec::default(), LinkTag::HmcHmc);
        }
        let eps = [b.endpoint(rs[0]), b.endpoint(rs[3])];
        if overlay {
            b.overlay_chain(&rs);
        }
        let mut net = b.build();
        let p = payload(64, AccessKind::Read, 1);
        net.inject(eps[0], eps[1], MsgClass::Req, p, overlay);
        assert_eq!(drain(&mut net, &eps), 1, "delivered");
        net.stats().latency.mean()
    };
    let lat_overlay = run(true);
    let lat_normal = run(false);
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
    send(&mut net, eps[0], eps[1], 100, 128, AccessKind::Write);
    drain(&mut net, &eps);
    let with_traffic = net.energy_mj();
    assert!(with_traffic > idle_only);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let (mut net, eps) = line(4);
        for i in 0..100u64 {
            let d = eps[1 + (i % 3) as usize];
            send(&mut net, eps[0], d, 1, 128, AccessKind::Read);
        }
        drain(&mut net, &eps);
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
    let (mut net, eps) = diamond(RoutingPolicy::Ugal);
    send(&mut net, eps[0], eps[3], 300, 128, AccessKind::Write);
    drain(&mut net, &eps);
    assert_eq!(net.stats().delivered, 300);
    assert!(!net.has_work());
}

#[test]
fn inject_ready_backpressure_signal() {
    let (mut net, eps) = line(2);
    assert!(net.inject_ready(eps[0]));
    send(&mut net, eps[0], eps[1], 200, 128, AccessKind::Write);
    assert!(
        !net.inject_ready(eps[0]),
        "deep injection queue should report not-ready"
    );
}

#[test]
fn link_cut_reroutes_over_surviving_path() {
    let (mut net, eps) = diamond(RoutingPolicy::Minimal);
    let links = net.link_utilization();
    assert_eq!(links.iter().filter(|l| l.tag == LinkTag::HmcHmc).count(), 4);
    // Cut r0–r1; everything must flow r0→r2→r3.
    net.set_link_state(0, false);
    let up: Vec<bool> = net.link_utilization().iter().map(|l| l.up).collect();
    assert!(!up[0]);
    assert_eq!(up.iter().filter(|&&u| !u).count(), 1);
    assert!(net.route_exists(eps[0], eps[3]));
    send(&mut net, eps[0], eps[3], 50, 128, AccessKind::Write);
    let delivered = drain(&mut net, &eps);
    assert_eq!(delivered, 50, "all packets arrive over the survivor path");
    assert_eq!(net.stats().dead_letters, 0);
    assert!(net.poll_failed().is_none());
}

#[test]
fn mid_flight_cut_reroutes_pending_heads() {
    let (mut net, eps) = diamond(RoutingPolicy::Minimal);
    send(&mut net, eps[0], eps[3], 100, 256, AccessKind::Write);
    // Let traffic spread over both paths, then cut one mid-stream.
    for _ in 0..40 {
        net.tick();
    }
    net.set_link_state(1, false); // r1–r3 dies with heads en route
    let delivered = drain(&mut net, &eps);
    assert_eq!(delivered, 100, "cut must not strand committed traffic");
    assert!(!net.has_work());
}

#[test]
fn full_cut_dead_letters_instead_of_hanging() {
    let (mut net, eps) = line(2);
    send(&mut net, eps[0], eps[1], 10, 128, AccessKind::Write);
    net.set_link_state(0, false);
    assert!(!net.route_exists(eps[0], eps[1]));
    drain(&mut net, &eps);
    assert!(!net.has_work(), "network must drain via dead-letters");
    let total = net.stats().delivered + net.stats().dead_letters;
    assert_eq!(total, 10, "every packet delivered or accounted as failed");
    assert!(net.stats().dead_letters > 0, "the cut must fail some");
}

#[test]
fn audit_is_clean_in_flight_and_after_drain() {
    let (mut net, eps) = diamond(RoutingPolicy::Minimal);
    send(&mut net, eps[0], eps[3], 60, 256, AccessKind::Write);
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
    send(&mut net, eps[0], eps[1], 10, 128, AccessKind::Write);
    net.set_link_state(0, false);
    drain(&mut net, &eps);
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
    send(&mut net, eps[0], eps[1], 1, 128, AccessKind::Read);
    let delivered = drain(&mut net, &eps);
    assert_eq!(delivered, 1, "restored link must carry traffic again");
    assert_eq!(net.stats().dead_letters, 0);
}

#[test]
fn degraded_link_pays_retransmit_latency() {
    let run = |factor: u32| {
        let (mut net, eps) = line(2);
        net.degrade_link(0, factor);
        send(&mut net, eps[0], eps[1], 1, 256, AccessKind::Write);
        assert_eq!(drain(&mut net, &eps), 1, "delivered");
        (net.stats().latency.mean(), net.stats().retries)
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
    let (net, _) = diamond(RoutingPolicy::Minimal);
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

#[test]
fn utilization_tracks_traffic() {
    let (mut net, eps) = line(2);
    for _ in 0..50 {
        net.tick();
    }
    assert_eq!(
        net.channel_utilization(),
        0.0,
        "idle network has zero utilization"
    );
    send(&mut net, eps[0], eps[1], 200, 128, AccessKind::Write);
    drain(&mut net, &eps);
    let u = net.channel_utilization();
    assert!(u > 0.05 && u <= 1.0, "utilization {u}");
}

/// A 2 × 3 mesh (r0 r1 r2 over r3 r4 r5), one endpoint per router, with an
/// overlay chain r3 → r0 → r1 → r2. Builder links: 0 r0–r1, 1 r1–r2,
/// 2 r3–r4, 3 r4–r5, 4 r0–r3, 5 r1–r4, 6 r2–r5.
fn overlay_mesh(policy: RoutingPolicy) -> (Network, Vec<NodeId>) {
    let mut b = NetworkBuilder::new(NocParams::default());
    let rs: Vec<NodeId> = (0..6).map(|_| b.router()).collect();
    for (x, y) in [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)] {
        b.link(rs[x], rs[y], LinkSpec::default(), LinkTag::HmcHmc);
    }
    b.overlay_chain(&[rs[3], rs[0], rs[1], rs[2]]);
    let eps: Vec<NodeId> = rs.iter().map(|&r| b.endpoint(r)).collect();
    b.routing(policy);
    (b.build(), eps)
}

/// Every port with a candidate is ready or asleep until its channel
/// frees, every endpoint with a queued packet is ready, asleep until its
/// channel frees, or short of credits that are out with a packet and so
/// will return, and every endpoint holding an ejected packet is in the
/// eject set: what lets the tick and the consumers skip the rest.
fn assert_ready_covers_work(net: &Network) {
    let has = |set: &Ready, i: usize| set.contains(i);
    // Asleep in the slot of the channel's `busy_until`, which is ahead.
    let asleep = |ring: &WakeRing, i: usize, ch: u32| {
        let until = net.channels[ch as usize].busy_until;
        let slot = &ring.slots[(until % 64) as usize * ring.words..];
        until >= net.cycle && slot[i / 64] >> (i % 64) & 1 == 1
    };
    for (r, router) in net.routers.iter().enumerate() {
        for (p, port) in router.ports.iter().enumerate() {
            let i = net.port_base[r] as usize + p;
            assert!(
                port.pending.is_empty()
                    || has(&net.ready_ports, i)
                    || asleep(&net.wake_ports, i, port.out_channel),
                "cycle {}: router {r} port {p} has candidates but is neither ready nor asleep",
                net.cycle
            );
        }
    }
    for (e, ep) in net.endpoints.iter().enumerate() {
        assert_eq!(
            has(&net.eject_set, e),
            !ep.eject_q.is_empty(),
            "cycle {}: endpoint {e}'s eject queue and the eject set disagree",
            net.cycle
        );
        let Some(&pid) = ep.inject_q.front() else {
            continue;
        };
        let pkt = net.packets[pid as usize]
            .as_ref()
            .expect("queued packets live");
        let credits = ep.inj_credits[net.class_base(pkt.class)];
        let short = credits < pkt.flits as i32 && credits < net.ep_inj_cap;
        assert!(
            has(&net.ready_eps, e) || asleep(&net.wake_eps, e, ep.inj_channel) || short,
            "cycle {}: endpoint {e} has queued packets but is neither ready, asleep nor \
             short of credits",
            net.cycle
        );
    }
}

/// Seeded random traffic, a third of it overlay-flagged, for 500 cycles
/// from cycle `start`: link 0 (on the overlay chain) is cut mid-flight at
/// +150 and restored at +350, link 5 degrades 3× at +250. Ticks until
/// drained, checking the ready sets after every tick; returns the number
/// of packets injected.
fn random_traffic(net: &mut Network, eps: &[NodeId], seed: u64, start: u64) -> u64 {
    let mut rng = SplitMix64::new(seed);
    let mut injected = 0;
    while net.cycle() < start + 500 || (net.has_work() && net.cycle() < start + 50_000) {
        match net.cycle() - start {
            150 => net.set_link_state(0, false),
            250 => net.degrade_link(5, 3),
            350 => net.set_link_state(0, true),
            _ => {}
        }
        let sending = net.cycle() < start + 500;
        for &src in eps.iter().filter(|_| sending) {
            if !rng.chance(0.2) {
                continue;
            }
            let dst = eps[rng.next_below(eps.len() as u64) as usize];
            if dst == src {
                continue;
            }
            let class = [MsgClass::Req, MsgClass::Resp][rng.next_below(2) as usize];
            let kind = [AccessKind::Read, AccessKind::Write][rng.next_below(2) as usize];
            let p = payload(128, kind, injected);
            net.inject(src, dst, class, p, rng.chance(0.3));
            injected += 1;
        }
        net.tick();
        assert_ready_covers_work(net);
        for &e in eps {
            while net.poll_eject(e).is_some() {}
        }
        while net.poll_failed().is_some() {}
    }
    injected
}

#[test]
fn ready_sets_cover_the_work_under_faults_and_overlay() {
    for policy in [RoutingPolicy::Minimal, RoutingPolicy::Ugal] {
        let mut seen = [0; 3];
        for seed in 1..=3 {
            let (mut net, eps) = overlay_mesh(policy);
            let injected = random_traffic(&mut net, &eps, seed, 0);
            assert!(!net.has_work(), "{policy:?} seed {seed} drains");
            let s = net.stats();
            assert_eq!(s.delivered + s.dead_letters, injected);
            for (n, v) in seen.iter_mut().zip([s.passthrough, s.reroutes, s.retries]) {
                *n += v;
            }
        }
        // The overlay chain, the heads stranded by the cut, the degrade.
        assert!(seen.iter().all(|&n| n > 0), "{policy:?}: {seen:?}");
    }
}

#[test]
fn the_eject_count_is_the_packets_in_eject_queues() {
    let (mut net, eps) = overlay_mesh(RoutingPolicy::Ugal);
    let mut rng = SplitMix64::new(11);
    let counted = |net: &Network| {
        let queued: usize = net.endpoints.iter().map(|e| e.eject_q.len()).sum();
        assert_eq!(net.ejects, queued as u64, "cycle {}", net.cycle);
        assert_eq!(net.has_ejects(), queued > 0);
    };
    let (mut injected, mut peak) = (0, 0);
    while net.cycle() < 1_000 || (net.has_work() || net.has_ejects()) && net.cycle() < 50_000 {
        let sending = net.cycle() < 1_000;
        for &src in eps.iter().filter(|_| sending) {
            let dst = eps[rng.next_below(eps.len() as u64) as usize];
            if dst != src && rng.chance(0.2) {
                let p = payload(128, AccessKind::Read, injected);
                net.inject(src, dst, MsgClass::Req, p, false);
                injected += 1;
            }
        }
        net.tick();
        counted(&net);
        peak = peak.max(net.ejects);
        // Endpoints take one packet each, on some cycles only, so the
        // queues build up.
        for &e in &eps {
            if rng.chance(0.3) && net.poll_eject(e).is_some() {
                counted(&net);
            }
        }
    }
    assert_eq!(net.stats().delivered, injected);
    assert!(!net.has_ejects() && peak > eps.len() as u64, "peak {peak}");
}

#[test]
fn a_restored_network_continues_like_the_original() {
    let (mut net, eps) = overlay_mesh(RoutingPolicy::Ugal);
    random_traffic(&mut net, &eps, 7, 0);
    net.tick(); // the last credit returns
    let record = net.snapshot();
    let (fresh, _) = overlay_mesh(RoutingPolicy::Ugal);
    let text = record.to_json();
    let mut restored = Field::root(&text, "")
        .expect("valid JSON")
        .record(|f| fresh.restored(f, net.cycle()))
        .expect("same topology");
    assert_eq!(restored.ready_ports.next_from(0), None);
    assert_eq!(restored.ready_eps.next_from(0), None);
    assert_eq!(restored.next.len(), net.packets.len());
    let outcome = |net: &mut Network| {
        let start = net.cycle();
        let injected = random_traffic(net, &eps, 8, start);
        let s = net.stats();
        (
            injected,
            net.cycle(),
            s.delivered,
            s.latency.mean(),
            s.flit_hops,
        )
    };
    assert_eq!(outcome(&mut restored), outcome(&mut net));
    assert!(restored.audit().is_empty(), "{:?}", restored.audit());
}

/// What a run of [`sparse_traffic`] leaves: every ejection as `(cycle,
/// source, latency, hops)`, every figure the network reports, how many
/// cycles it skipped, and its passthrough, reroute and retry counts.
type SparseRun = (Vec<(u64, NodeId, u64, u32)>, String, u64, [u64; 3]);

/// Seeded traffic on the overlay mesh in 100-cycle bursts every 400
/// cycles until cycle 2 000, a third of it overlay-flagged: link 0 (on
/// the overlay chain) cut at 450 and restored at 1 250, link 5 degraded
/// 3× at 850, then run to cycle 6 000. With `park`, the network jumps
/// with `skip_idle_cycles` to its `next_event()` whenever no injection
/// or fault is due before then; otherwise it ticks every cycle.
fn sparse_traffic(policy: RoutingPolicy, seed: u64, park: bool) -> SparseRun {
    let (mut net, eps) = overlay_mesh(policy);
    let mut rng = SplitMix64::new(seed);
    let mut sends = VecDeque::new();
    for c in (0..2_000).filter(|c| c % 400 < 100) {
        for &src in &eps {
            let dst = eps[rng.next_below(eps.len() as u64) as usize];
            if dst != src && rng.chance(0.2) {
                let class = [MsgClass::Req, MsgClass::Resp][rng.next_below(2) as usize];
                let kind = [AccessKind::Read, AccessKind::Write][rng.next_below(2) as usize];
                sends.push_back((c, src, dst, class, kind, rng.chance(0.3)));
            }
        }
    }
    let faults = [450, 850, 1_250];
    let (mut ejected, mut skipped) = (Vec::new(), 0);
    while net.cycle() < 6_000 {
        let now = net.cycle();
        match now {
            450 => net.set_link_state(0, false),
            850 => net.degrade_link(5, 3),
            1_250 => net.set_link_state(0, true),
            _ => {}
        }
        while let Some(&(_, src, dst, class, kind, overlay)) = sends.front().filter(|s| s.0 == now)
        {
            sends.pop_front();
            let p = payload(128, kind, ejected.len() as u64);
            net.inject(src, dst, class, p, overlay);
        }
        if park {
            let due = sends.front().map(|s| s.0).into_iter();
            let due = due.chain(faults.into_iter().filter(|&f| f > now));
            let horizon = due.fold(6_000, u64::min);
            let to = net.next_event().map_or(horizon, |e| e.min(horizon));
            if to > now {
                net.skip_idle_cycles(to - now);
                skipped += to - now;
                continue;
            }
        }
        net.tick();
        for &e in &eps {
            while let Some(p) = net.poll_eject(e) {
                ejected.push((net.cycle(), p.src, p.latency_cycles, p.hops));
            }
        }
        while net.poll_failed().is_some() {}
    }
    let s = net.stats();
    let figures = format!(
        "{s:?}\n{}\n{:?}\n{:?}",
        net.energy_mj(),
        net.link_utilization(),
        net.router_utilization()
    );
    (
        ejected,
        figures,
        skipped,
        [s.passthrough, s.reroutes, s.retries],
    )
}

#[test]
fn a_fabric_parked_until_its_next_event_matches_a_stepped_one() {
    for policy in [RoutingPolicy::Minimal, RoutingPolicy::Ugal] {
        let mut seen = [0; 3];
        for seed in 1..=3 {
            let parked = sparse_traffic(policy, seed, true);
            let stepped = sparse_traffic(policy, seed, false);
            assert_eq!(parked.0, stepped.0, "{policy:?} seed {seed}: ejections");
            assert_eq!(parked.1, stepped.1, "{policy:?} seed {seed}: figures");
            assert!(parked.0.len() > 100, "{} ejections", parked.0.len());
            assert!(parked.2 > 3_000, "the fabric skipped {} cycles", parked.2);
            for (n, v) in seen.iter_mut().zip(parked.3) {
                *n += v;
            }
        }
        // The overlay chain, the heads stranded by the cut, the degrade.
        assert!(seen.iter().all(|&n| n > 0), "{policy:?}: {seen:?}");
    }
}

#[test]
fn a_whole_rate_serializes_like_the_float_expression() {
    let spec = |bytes_per_cycle| LinkSpec {
        bytes_per_cycle,
        serdes_cycles: 0,
        powered: true,
    };
    for bpc in [1.0, 3.0, 12.0, 16.0, 64.0, 256.0, 65_535.0] {
        let ch = Channel::new(spec(bpc), LinkTag::Internal);
        assert_eq!(ch.whole_rate as f64, bpc);
        for bytes in (0..4_096).chain([1 << 31, u32::MAX - 1, u32::MAX]) {
            let float = ((bytes as f64 / bpc).ceil() as u64).max(1);
            assert_eq!(
                ch.ser_cycles(bytes),
                float,
                "{bytes} bytes at {bpc} B/cycle"
            );
        }
    }
    // Fractional or out of range: the float expression itself.
    for bpc in [12.6, 0.5, 65_536.0] {
        assert_eq!(Channel::new(spec(bpc), LinkTag::Pcie).whole_rate, 0);
    }
}

//! One router cycle: deliver the cycle's events, allocate one transfer per
//! output port, then move packets out of the endpoint injection queues.

use super::{CreditTo, Ev, Network, Peer};
use crate::packet::PacketId;
use memnet_obs::{ClockDomain, TraceEventKind, Tracer};

impl Network {
    /// Advances the network by one router cycle.
    pub fn tick(&mut self) {
        self.tick_traced(None);
    }

    /// [`Network::tick`] with optional event tracing. Per-hop stage timing
    /// (queueing vs pipeline vs SerDes vs serialization) is recorded as
    /// [`TraceEventKind::PacketHop`] spans.
    pub fn tick_traced(&mut self, mut tracer: Option<&mut Tracer>) {
        self.work.ticks += 1;
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
                    let (r, p, vc) = (router as usize, port as usize, vc as usize);
                    let at = self.vc_at(r, p, vc);
                    let buf = &mut self.vcs[at];
                    let was_empty = buf.occ == 0;
                    if was_empty {
                        buf.head = pid;
                    } else {
                        self.next[buf.tail as usize] = pid;
                    }
                    buf.tail = pid;
                    buf.occ += flits;
                    if was_empty {
                        self.route_head(r, p, vc);
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
                    self.eject_set.insert(ep as usize);
                    self.ejects += 1;
                    self.in_network -= 1;
                }
            }
        }
        // Then the credits due, pushed last cycle: after every arrival due
        // now, as every hop takes at least two cycles.
        while let Some(&(_, to, flits)) = self.credits_due.front().filter(|c| c.0 <= self.cycle) {
            self.credits_due.pop_front();
            let flits = flits as i32;
            match to {
                CreditTo::Vc(at) => self.credits[at as usize] += flits,
                CreditTo::Ep(ep, vc) => {
                    let e = &mut self.endpoints[ep as usize];
                    e.inj_credits[vc as usize] += flits;
                    if !e.inject_q.is_empty() {
                        self.ready_eps.insert(ep as usize);
                    }
                }
            }
        }
        // The walks below serve what wakes now in its usual place.
        self.wake_ports.wake(self.cycle, &mut self.ready_ports);
        self.wake_eps.wake(self.cycle, &mut self.ready_eps);

        // 2. Switch allocation, one transfer per output port per cycle, on
        // the ready ports in (router, port) order: an empty `pending` is a
        // no-op. A head routed onto a later port of the same router sets a
        // bit the walk has yet to read, so it leaves this cycle, as in a
        // scan of every port (DESIGN §3). A port left waiting on a busy
        // channel sleeps until it frees.
        let mut from = 0;
        while let Some(i) = self.ready_ports.next_from(from) {
            let r = self.port_router[i] as usize;
            let p = i - self.port_base[r] as usize;
            self.allocate(r, p, tracer.as_deref_mut());
            let port = &self.routers[r].ports[p];
            if port.pending.is_empty() {
                self.ready_ports.remove(i);
            } else if let Some(at) = self.sleep_until(port.out_channel as usize) {
                self.ready_ports.remove(i);
                self.wake_ports.park(i, at);
            }
            from = i + 1;
        }

        // 3. Endpoint injection, in endpoint order.
        let mut from = 0;
        while let Some(e) = self.ready_eps.next_from(from) {
            self.try_inject(e);
            from = e + 1;
        }

        self.cycle += 1;
    }

    /// Puts a `bytes`-byte, `flits`-flit packet on channel `ch` this cycle
    /// and returns its serialization time, for which the channel is busy.
    fn commit(&mut self, ch: usize, bytes: u32, flits: u32) -> u64 {
        self.stats.flit_hops += flits as u64;
        let c = &mut self.channels[ch];
        let ser = c.ser_cycles(bytes);
        c.busy_until = self.cycle + ser;
        c.bytes_moved += bytes as u64;
        c.busy_cycles += ser;
        ser
    }

    /// Schedules `pid`'s arrival at `peer` — in VC `vc` of a router's input
    /// port, or at an endpoint — for cycle `at`.
    fn arrive(&mut self, at: u64, peer: Peer, vc: u8, pid: PacketId) {
        let ev = match peer {
            Peer::Router { idx, port } => Ev::ArriveRouter {
                router: idx,
                port,
                vc,
                pid,
            },
            Peer::Endpoint { idx } => Ev::ArriveEndpoint { ep: idx, pid },
        };
        self.events.push(self.cycle, at, ev);
    }

    /// Tries to send one packet through output port `p` of router `r`.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "u16-id routers; ports and VCs checked ≤ MAX_U8_IDS at build"
    )]
    fn allocate(&mut self, r: usize, p: usize, mut tracer: Option<&mut Tracer>) {
        self.work.allocate_visits += 1;
        let ch_idx = self.routers[r].ports[p].out_channel as usize;
        let busy = self.channels[ch_idx].busy_until > self.cycle;
        self.work.busy_visits += u64::from(busy);
        if !self.channels[ch_idx].up || busy {
            return;
        }
        let n = self.routers[r].ports[p].pending.len();
        for _ in 0..n {
            let Some(&cand) = self.routers[r].ports[p].pending.front() else {
                return;
            };
            let (in_port, in_vc) = (cand.in_port as usize, cand.vc as usize);
            // Under fault injection a candidate can go stale: its head was
            // dead-lettered or already moved. Drop it instead of panicking.
            let Some(pid) = self.vc_head(r, in_port, in_vc) else {
                self.routers[r].ports[p].pending.pop_front();
                continue;
            };
            let pkt = self.live(pid);
            let (flits, bytes, class, hops) = (pkt.flits, pkt.bytes, pkt.class, pkt.hops);
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
            let at = self.vc_at(r, p, out_vc);
            let pending = &mut self.routers[r].ports[p].pending;
            if self.credits[at] < flits as i32 {
                // Blocked: rotate and try the next candidate.
                pending.rotate_left(1);
                continue;
            }

            // Commit the transfer.
            pending.pop_front();
            self.work.transfers += 1;
            self.credits[at] -= flits as i32;
            let (pipe, serdes) = if cand.passthrough {
                self.stats.passthrough += 1;
                (self.passthrough_cycles as u64, 0u64)
            } else {
                (
                    self.pipeline_cycles as u64,
                    self.channels[ch_idx].serdes_cycles as u64,
                )
            };
            let ser = self.commit(ch_idx, bytes, flits);
            let lat = pipe + serdes + ser;
            if self.channels[ch_idx].degrade > 1 {
                self.stats.retries += self.channels[ch_idx].degrade as u64 - 1;
            }

            if let Some(tr) = tracer.as_deref_mut() {
                let arrived = self.live(pid).arrived_cycle;
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

            if let Peer::Router { .. } = peer {
                self.live(pid).hops += 1;
            }
            self.arrive(self.cycle + lat, peer, out_vc as u8, pid);
            // Leave the input buffer, credit upstream, route the new head.
            let popped = self.pop_head(r, in_port, in_vc);
            debug_assert_eq!(popped, Some(pid));
            self.route_head(r, in_port, in_vc);
            return;
        }
    }

    /// Moves packets from an endpoint's injection queue into its router.
    /// It leaves the ready set with nothing to send or short of credits (a
    /// credit return readies it), and sleeps while its channel is busy.
    pub(super) fn try_inject(&mut self, e: usize) {
        self.work.inject_tries += 1;
        loop {
            let Some(&pid) = self.endpoints[e].inject_q.front() else {
                self.ready_eps.remove(e);
                return;
            };
            let pkt = self.live(pid);
            let (flits, bytes, class) = (pkt.flits, pkt.bytes, pkt.class);
            let vc = self.class_base(class); // hop 0
            let ep = &mut self.endpoints[e];
            let ch = ep.inj_channel as usize;
            if ep.inj_credits[vc] < flits as i32 {
                self.ready_eps.remove(e);
                return;
            }
            if self.channels[ch].busy_until > self.cycle {
                if let Some(at) = self.sleep_until(ch) {
                    self.ready_eps.remove(e);
                    self.wake_eps.park(e, at);
                }
                return;
            }
            ep.inject_q.pop_front();
            ep.inj_credits[vc] -= flits as i32;
            self.work.injections += 1;
            let to = Peer::Router {
                idx: ep.router,
                port: ep.router_port,
            };
            self.stats.flits_injected += flits as u64;
            let ser = self.commit(ch, bytes, flits);
            #[allow(
                clippy::cast_possible_truncation,
                reason = "VCs per port checked ≤ MAX_U8_IDS at build"
            )]
            self.arrive(self.cycle + ser + 1, to, vc as u8, pid);
        }
    }
}

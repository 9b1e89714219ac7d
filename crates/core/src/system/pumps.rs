//! How memory traffic crosses the driver: device → fabric → HMC vault and
//! back, with the fail-fast path for what the fabric can no longer deliver.

use super::observers::PKT_LATENCY;
use super::System;
use memnet_common::{Agent, MemReq, MemResp, NodeId, Payload};
use memnet_noc::MsgClass;
use memnet_obs::{ClockDomain, TraceEventKind};

impl System {
    /// Moves device requests into the network. Requests keep their
    /// *virtual* addresses end-to-end (responses must echo the address the
    /// device issued); the physical location is resolved here to pick the
    /// destination HMC and again at the HMC to pick the vault.
    pub(super) fn pump_into_network(&mut self) {
        let n_gpus = self.gpus.len();
        for g in 0..n_gpus {
            if self.gpus[g].has_mem_request() {
                self.inject_requests(self.gpu_eps[g], g, false, |s| s.gpus[g].pop_mem_request());
            }
        }
        // CPU core, then DMA, share the CPU endpoint (and the traffic row).
        if self.cpu.has_mem_request() {
            self.inject_requests(self.cpu_ep, n_gpus, self.use_overlay, |s| {
                s.cpu.pop_mem_request()
            });
        }
        if self.dma.has_mem_request() {
            self.inject_requests(self.cpu_ep, n_gpus, false, |s| s.dma.pop_mem_request());
        }
    }

    /// Drains one device's request queue (`pop`) into endpoint `ep` while
    /// the endpoint accepts packets; `row` is the device's traffic-matrix
    /// row. Generic over `pop`, so each caller gets its own copy: this
    /// runs every net tick.
    fn inject_requests(
        &mut self,
        ep: NodeId,
        row: usize,
        overlay: bool,
        mut pop: impl FnMut(&mut System) -> Option<MemReq>,
    ) {
        while self.net.inject_ready(ep) {
            let Some(req) = pop(self) else {
                break;
            };
            let (_, loc) = self.layout.locate(req.addr);
            let hmc = loc.hmc_global(self.cfg.hmcs_per_gpu) as usize;
            if !self.net.route_exists(ep, self.hmc_eps[hmc]) {
                self.fail_request(req);
                continue;
            }
            let bytes = req.packet_bytes() as u64;
            self.traffic.add(row, hmc, bytes);
            self.net.inject(
                ep,
                self.hmc_eps[hmc],
                MsgClass::Req,
                Payload::Req(req),
                overlay,
            );
            #[allow(clippy::cast_possible_truncation, reason = "agents and cubes are u16 nodes")]
            self.trace_inject(row as u16, hmc as u16, bytes as u32);
        }
    }

    /// Records a request-injection instant (no-op without a tracer).
    fn trace_inject(&mut self, src: u16, dst: u16, bytes: u32) {
        let cycle = self.net.cycle();
        if let Some(t) = self.tracer.as_mut() {
            t.emit_instant(
                ClockDomain::Net,
                cycle,
                TraceEventKind::PacketInject {
                    src,
                    dst,
                    class: "req",
                    bytes,
                },
            );
        }
    }

    /// Delivers ejected packets: requests into vaults, responses to devices.
    #[allow(clippy::cast_possible_truncation, reason = "GPU and CPU rows are u16-id network nodes")]
    pub(super) fn pump_out_of_network(&mut self) {
        // Dead-lettered packets (no surviving route after a link cut)
        // complete through the fail-fast recovery path: requests get a
        // synthesized response, responses are delivered out-of-band.
        while let Some(fp) = self.net.poll_failed() {
            match fp.payload {
                Payload::Req(req) => self.fail_request(req),
                Payload::Resp(resp) => {
                    self.counters.failed_requests += 1;
                    self.deliver_response(resp);
                }
            }
        }
        // Only the ports with work, in port order: a deferred request or a
        // queued response (`hmc_busy`), or a packet to eject (the fabric's
        // eject set).
        let mut visit = std::mem::take(&mut self.hmc_visit);
        visit.copy_from_slice(&self.hmc_busy);
        for n in self.net.ejecting() {
            if let Some(&i) = self.hmc_of_node.get(n.index()).filter(|&&i| i != u32::MAX) {
                visit[i as usize / 64] |= 1 << (i % 64);
            }
        }
        for (w, &word) in visit.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                self.pump_hmc_port(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.hmc_visit = visit;
        if !self.net.has_ejects() {
            return;
        }
        for g in 0..self.gpus.len() {
            while let Some(p) = self.net.poll_eject(self.gpu_eps[g]) {
                self.trace_eject(g as u16, p.latency_cycles, p.hops);
                let Payload::Resp(resp) = p.payload else {
                    debug_assert!(false, "request ejected at a GPU endpoint");
                    continue;
                };
                if self.gpus[g].is_dead() {
                    // In-flight reply raced the GPU's death: account it.
                    self.counters.failed_requests += 1;
                    continue;
                }
                self.gpus[g].push_mem_response(resp);
            }
        }
        while let Some(p) = self.net.poll_eject(self.cpu_ep) {
            self.trace_eject(self.gpus.len() as u16, p.latency_cycles, p.hops);
            let Payload::Resp(resp) = p.payload else {
                debug_assert!(false, "request ejected at the CPU endpoint");
                continue;
            };
            match resp.src {
                Agent::Cpu(_) => self.cpu.push_mem_response(resp),
                Agent::Dma(_) => self.dma.push_mem_response(resp),
                Agent::Gpu(_) => debug_assert!(false, "GPU response at CPU endpoint"),
            }
        }
    }

    /// Serves HMC port `i`: retries its deferred request, takes ejected
    /// requests into the cube while its vaults accept them, and injects
    /// its completed responses; then records whether it is left busy.
    fn pump_hmc_port(&mut self, i: usize) {
        if self.hmc_ports[i].is_idle() && !self.net.has_eject(self.hmc_eps[i]) {
            self.idle_hmc_visits += 1;
            return;
        }
        // Retry a vault-rejected request before accepting more.
        if let Some((req, loc)) = self.hmc_ports[i].deferred.take() {
            match self.hmcs[i].try_accept(req, loc.vault, loc.bank, loc.row) {
                Ok(()) => {}
                Err(r) => {
                    self.hmc_ports[i].deferred = Some((r, loc));
                }
            }
        }
        while self.hmc_ports[i].deferred.is_none() {
            let Some(p) = self.net.poll_eject(self.hmc_eps[i]) else {
                break;
            };
            let Payload::Req(req) = p.payload else {
                debug_assert!(false, "response ejected at an HMC endpoint");
                continue;
            };
            let (_, loc) = self.layout.locate(req.addr);
            debug_assert_eq!(
                loc.hmc_global(self.cfg.hmcs_per_gpu) as usize,
                i,
                "request routed to wrong HMC"
            );
            if let Err(r) = self.hmcs[i].try_accept(req, loc.vault, loc.bank, loc.row) {
                self.hmc_ports[i].deferred = Some((r, loc));
            }
        }
        // Inject completed responses back toward the requester; when a
        // cut stranded the return path, deliver out-of-band instead.
        while self.net.inject_ready(self.hmc_eps[i]) {
            let Some(resp) = self.hmc_ports[i].resp_q.pop_front() else {
                break;
            };
            let (dest, overlay) = match resp.src {
                Agent::Gpu(g) => (self.gpu_eps[g.index()], false),
                Agent::Cpu(_) => (self.cpu_ep, self.use_overlay),
                Agent::Dma(_) => (self.cpu_ep, false),
            };
            if !self.net.route_exists(self.hmc_eps[i], dest) {
                self.counters.failed_requests += 1;
                self.deliver_response(resp);
                continue;
            }
            self.net.inject(
                self.hmc_eps[i],
                dest,
                MsgClass::Resp,
                Payload::Resp(resp),
                overlay,
            );
        }
        let bit = 1 << (i % 64);
        if self.hmc_ports[i].is_idle() {
            self.hmc_busy[i / 64] &= !bit;
        } else {
            self.hmc_busy[i / 64] |= bit;
        }
    }

    /// Records a response-ejection instant at device endpoint `dst`
    /// (no-op without a tracer), plus the latency sample for the
    /// profiling and metrics histograms when either is enabled.
    fn trace_eject(&mut self, dst: u16, latency_cycles: u64, hops: u32) {
        let cycle = self.net.cycle();
        if let Some(t) = self.tracer.as_mut() {
            t.emit_instant(
                ClockDomain::Net,
                cycle,
                TraceEventKind::PacketEject {
                    dst,
                    latency_cycles,
                    hops,
                },
            );
        }
        let prof = self.prof.as_mut().map(|p| &mut p.hists);
        for m in self.metrics.iter_mut().chain(prof) {
            m.record_hist(PKT_LATENCY, latency_cycles);
        }
    }

    /// Completes a request the network could not deliver through the
    /// fail-fast recovery path: reads get an immediate synthesized
    /// response (so waiters make progress instead of hanging), writes
    /// just drop, and everything is counted in `failed_requests`.
    fn fail_request(&mut self, req: MemReq) {
        self.counters.failed_requests += 1;
        if !req.kind.returns_data() {
            return;
        }
        self.deliver_response(req.response());
    }

    /// Hands a response straight to its requester, bypassing the network
    /// (recovery delivery for dead-lettered packets). Responses to dead
    /// GPUs are dropped — the requester no longer exists.
    fn deliver_response(&mut self, resp: MemResp) {
        match resp.src {
            Agent::Gpu(g) => {
                if !self.gpus[g.index()].is_dead() {
                    self.gpus[g.index()].push_mem_response(resp);
                }
            }
            Agent::Cpu(_) => self.cpu.push_mem_response(resp),
            Agent::Dma(_) => self.dma.push_mem_response(resp),
        }
    }
}

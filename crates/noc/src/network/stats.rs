//! What the fabric reports about itself without changing it: the
//! conservation audit, channel, link and router utilization, VC
//! occupancy and energy.

use super::Network;
use crate::builder::LinkTag;

/// Host work done since the fabric was built or restored
/// ([`Network::work`]): what its loops visited and moved. No figure of
/// the model reads it, and no report or snapshot carries it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Ticks run; skipped idle cycles are not ticks.
    pub ticks: u64,
    /// Switch-allocation visits to an output port.
    pub allocate_visits: u64,
    /// Of those, visits that found the port's channel busy.
    pub busy_visits: u64,
    /// Packets moved through a router's crossbar onto a channel.
    pub transfers: u64,
    /// Packets moved from an endpoint onto its injection channel.
    pub injections: u64,
    /// Visits to an endpoint's injection queue.
    pub inject_tries: u64,
    /// Calls to [`Network::poll_eject`].
    pub eject_polls: u64,
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

impl Network {
    /// The host work done so far.
    pub fn work(&self) -> WorkCounts {
        self.work
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
                let (at, end) = (self.vc_at(r, pi, 0), self.vc_at(r, pi + 1, 0));
                for (vc, &cr) in self.credits[at..end].iter().enumerate() {
                    // Toward an endpoint, VCs above 0 stay pinned at 0.
                    let cap = port.vc_cap(vc);
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
        let at = self.vc_at(router, port, vc);
        self.credits[at] += delta;
    }

    /// Mean utilization of powered channels: busy cycles over elapsed
    /// cycles, averaged over all external channels. 0 when no time has
    /// passed.
    pub fn channel_utilization(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        let powered: Vec<_> = self.channels.iter().filter(|c| c.powered).collect();
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
        let link = |(li, &routers): (usize, &(u32, u32))| {
            let [fwd, rev] = Self::link_channels(li).map(|ch| &self.channels[ch]);
            LinkUtilization {
                tag: fwd.tag,
                routers,
                up: fwd.up,
                fwd_busy_frac: fwd.busy_cycles as f64 / cycles,
                rev_busy_frac: rev.busy_cycles as f64 / cycles,
                fwd_bytes: fwd.bytes_moved,
                rev_bytes: rev.bytes_moved,
            }
        };
        self.link_rtrs.iter().enumerate().map(link).collect()
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
        for vc in &self.vcs {
            f(vc.occ as u64);
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
}

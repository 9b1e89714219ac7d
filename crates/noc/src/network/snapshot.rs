//! What a quiescent network carries across a checkpoint, and the checks a
//! restored state must pass before it replaces the live one.

use super::{NetStats, Network};
use crate::packet::PacketId;
use memnet_common::config::fit_len;
use memnet_common::SplitMix64;

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

impl Network {
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
            link_up: (0..self.link_rtrs.len())
                .map(|li| self.channels[Self::link_channels(li)[0]].up)
                .collect(),
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
    /// have, a free list that is not a permutation of the packet slots — a
    /// quiescent fabric owns no packet — and a channel no run can reach: a
    /// degrade of 0 (a free wire), an `up` that disagrees with its link's
    /// `link_up`, or an endpoint channel that is down (no fault takes one
    /// down, and nothing would bring it back).
    pub fn restore_state(&mut self, s: &NetworkState) -> Result<(), String> {
        fit_len("link_up", s.link_up.len(), self.link_rtrs.len())?;
        fit_len("channels", s.channels.len(), self.channels.len())?;
        let mut free = s.free_pids.clone();
        free.sort_unstable();
        let slots = s.packet_slots;
        if !free.iter().map(|&p| u64::from(p)).eq(0..slots) {
            return Err(format!(
                "field 'free_pids' is not a permutation of the {slots} packet slots"
            ));
        }
        for (i, c) in s.channels.iter().enumerate() {
            if c.degrade == 0 {
                return Err(format!(
                    "field 'channels[{i}]' has degrade 0; a clean channel has 1"
                ));
            }
            // Link `li` owns channels 2·li and 2·li + 1; the rest are
            // endpoints' links, which are always up.
            let up = s.link_up.get(i / 2).copied().unwrap_or(true);
            if c.up != up {
                let state = |up: bool| if up { "up" } else { "down" };
                let (got, want) = (state(c.up), state(up));
                return Err(format!(
                    "field 'channels[{i}]' is {got}, but its link is {want}"
                ));
            }
        }
        self.cycle = s.cycle;
        self.seq = s.seq;
        self.rng = SplitMix64::new(s.rng_state);
        self.packets = (0..s.packet_slots).map(|_| None).collect();
        self.next = vec![0; self.packets.len()];
        self.ready_ports.0.fill(0);
        self.ready_eps.0.fill(0);
        self.free_pids.clone_from(&s.free_pids);
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
}

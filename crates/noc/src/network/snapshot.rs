//! What a quiescent network writes into a checkpoint, and the checks its
//! record must pass before a restored network runs.

use super::{NetStats, Network};
use memnet_common::SplitMix64;
use memnet_obs::json::{snaps, Fields, JsonValue, Snap};

impl Network {
    /// The snapshot record. Only valid while the fabric is quiescent with
    /// every eject queue drained — at that point all credits are provably
    /// back at capacity (see [`Network::audit`]) and no packet slot is
    /// live, so topology, buffers and credits need no record. What *does*
    /// carry over: the cycle counter, the routing RNG, the packet-slot
    /// free list (its order determines future
    /// [`PacketId`](crate::PacketId) assignment and thus minimal-port hash
    /// spreading), fault state (links down, BER degrades), per-channel
    /// utilization counters, and the aggregate stats.
    ///
    /// # Panics
    ///
    /// Panics if the fabric still owns packets, events or queued ejects.
    pub fn snapshot(&self) -> JsonValue {
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
        let link_up =
            (0..self.link_rtrs.len()).map(|li| self.channels[Self::link_channels(li)[0]].up);
        // Per channel: [up, degrade, busy_until, bytes_moved, busy_cycles].
        let channels = self.channels.iter().flat_map(|c| {
            let (up, degrade) = (u64::from(c.up), u64::from(c.degrade));
            [up, degrade, c.busy_until, c.bytes_moved, c.busy_cycles]
        });
        JsonValue::object([
            ("cycle", self.cycle.snap()),
            ("rng_state", self.rng.state().snap()),
            ("packet_slots", (self.packets.len() as u64).snap()),
            ("free_pids", self.free_pids.snap()),
            ("link_up", snaps(link_up)),
            ("channels", snaps(channels)),
            ("stats", JsonValue::object(self.stats.members())),
        ])
    }

    /// This network, fresh from its builder, holding a
    /// [`Network::snapshot`] record taken on a network built from the
    /// identical topology. `cycle` is the network clock's restored cycle,
    /// which the fabric's own count equals there. Route tables are
    /// recomputed from the restored link states.
    ///
    /// # Errors
    ///
    /// Refuses a mistyped field, a cycle off the clock, a link or channel
    /// count this network does not have, a free list that is not a
    /// permutation of the packet slots — a quiescent fabric owns no
    /// packet; checked before the slab is allocated — and a channel no run
    /// can reach: a degrade of 0 (a free wire), an `up` that disagrees
    /// with its link's `link_up`, or an endpoint channel that is down (no
    /// fault takes one down, and nothing would bring it back).
    pub fn restored(mut self, f: &Fields, cycle: u64) -> Result<Self, String> {
        let at = f.req("cycle")?;
        if at.uint_str()? != cycle {
            let path = at.path();
            return Err(format!(
                "field '{path}' is not the network clock's cycle {cycle}"
            ));
        }
        self.cycle = cycle;
        // A version 1 record carries the count of events ever scheduled,
        // which nothing reads any more.
        f.opt("seq")?.map(|s| s.uint_str()).transpose()?;
        self.rng = SplitMix64::new(f.req("rng_state")?.u64_str()?);
        let slots = f.get("packet_slots")?;
        let free = f.req("free_pids")?;
        self.free_pids = Vec::<u32>::unsnap(free)?;
        let mut sorted = self.free_pids.clone();
        sorted.sort_unstable();
        if !sorted.iter().map(|&p| u64::from(p)).eq(0..slots) {
            let path = free.path();
            return Err(format!(
                "field '{path}' is not a permutation of the {slots} 'packet_slots'"
            ));
        }
        self.packets = (0..slots).map(|_| None).collect();
        self.next = vec![0; self.packets.len()];
        let link_up = f
            .req("link_up")?
            .list_of(self.link_rtrs.len(), |x| x.bool())?;
        let rows = f.req("channels")?;
        let channels = rows.rows(5, Some(self.channels.len()), |c| {
            let up = c[0].uint_str()? != 0;
            let counts = (c[2].uint_str()?, c[3].uint_str()?, c[4].uint_str()?);
            Ok((up, u32::unsnap(c[1])?, counts))
        })?;
        let path = rows.path();
        for (i, (c, (up, degrade, counts))) in self.channels.iter_mut().zip(channels).enumerate() {
            if degrade == 0 {
                return Err(format!(
                    "field '{path}[{i}]' has degrade 0; a clean channel has 1"
                ));
            }
            // Link `li` owns channels 2·li and 2·li + 1; the rest are
            // endpoints' links, which are always up.
            let link = link_up.get(i / 2).copied().unwrap_or(true);
            if up != link {
                let state = |up: bool| if up { "up" } else { "down" };
                let (got, want) = (state(up), state(link));
                return Err(format!(
                    "field '{path}[{i}]' is {got}, but its link is {want}"
                ));
            }
            c.up = up;
            c.degrade = degrade;
            (c.busy_until, c.bytes_moved, c.busy_cycles) = counts;
        }
        self.stats = f.req("stats")?.record(NetStats::read)?;
        self.recompute_routes();
        Ok(self)
    }
}

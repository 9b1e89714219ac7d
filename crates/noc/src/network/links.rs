//! Link faults: which link a (tag, ordinal) names, taking one down or
//! back up, degrading it, and the route tables that follow from the links
//! that are up.

use super::build::{all_pairs_hops, min_port_table};
use super::Network;
use crate::builder::LinkTag;
use memnet_common::NodeId;

impl Network {
    /// The two directed channels of builder link `li`: `routers.0 →
    /// routers.1`, then the reverse.
    pub(super) fn link_channels(li: usize) -> [usize; 2] {
        [2 * li, 2 * li + 1]
    }

    /// Resolves (tag, ordinal) to a concrete link index, wrapping the
    /// ordinal over the tag's population so seeded plans stay valid on any
    /// topology. `None` when the topology has no links with that tag.
    #[allow(clippy::cast_possible_truncation, reason = "`% len` is below pop.len()")]
    pub fn resolve_link(&self, tag: LinkTag, ordinal: u64) -> Option<usize> {
        let pop: Vec<usize> = (0..self.link_rtrs.len())
            .filter(|&li| self.channels[Self::link_channels(li)[0]].tag == tag)
            .collect();
        if pop.is_empty() {
            None
        } else {
            Some(pop[(ordinal % pop.len() as u64) as usize])
        }
    }

    /// Takes a link down (`up == false`) or restores it. Both directed
    /// channels flip, minimal-route tables recompute over the survivors,
    /// and on a cut every head packet that had chosen the dead port is
    /// re-routed (or dead-lettered when no surviving path exists).
    /// Packets already committed to the wire still arrive — the flits
    /// were physically in flight. No-op if the link is already in the
    /// requested state.
    pub fn set_link_state(&mut self, li: usize, up: bool) {
        let chs = Self::link_channels(li);
        if self.channels[chs[0]].up == up {
            return;
        }
        for ch in chs {
            self.channels[ch].up = up;
        }
        self.recompute_routes();
        if !up {
            let (a, b) = self.link_rtrs[li];
            let (pa, pb) = self.link_ports[li];
            for (r, p) in [(a, pa), (b, pb)] {
                let stranded =
                    std::mem::take(&mut self.routers[r as usize].ports[p as usize].pending);
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
        for ch in Self::link_channels(li) {
            self.channels[ch].degrade = factor.max(1);
        }
    }

    /// True if the current route tables have a path between two endpoints.
    /// Producers check this before injecting so requests toward an
    /// unreachable destination can be failed at the source instead of
    /// dead-lettering mid-fabric.
    pub fn route_exists(&self, src: NodeId, dest: NodeId) -> bool {
        let s = self.endpoints[self.ep_idx(src)].router as usize;
        let d = self.endpoints[self.ep_idx(dest)].router as usize;
        self.hops(s, d) != u16::MAX
    }

    /// Rebuilds `dist` and the minimal-port tables over the links that are
    /// currently up. Unreachable destinations get empty port sets (route
    /// attempts toward them dead-letter) rather than panicking like the
    /// construction-time connectivity check.
    pub(super) fn recompute_routes(&mut self) {
        let nr = self.routers.len();
        self.dist = all_pairs_hops(nr, &self.link_rtrs, |li| {
            self.channels[Self::link_channels(li)[0]].up
        });
        self.min_ports_rtr = min_port_table(&self.routers, &self.channels, &self.dist);
    }
}

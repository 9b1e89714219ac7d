//! Network construction.
//!
//! A [`NetworkBuilder`] accumulates routers, endpoints, links, overlay
//! chains and a routing policy, then [`NetworkBuilder::build`] freezes the
//! graph into a runnable [`crate::Network`] (computing minimal route tables
//! and sizing virtual channels).

use crate::network::{Network, RoutingPolicy};
use memnet_common::config::NocConfig;
use memnet_common::NodeId;

/// Immutable per-network parameters, usually derived from the Table I
/// [`NocConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocParams {
    /// Flit size in bytes.
    pub flit_bytes: u32,
    /// Router pipeline depth in cycles.
    pub pipeline_cycles: u32,
    /// Requested virtual channels per message class (raised automatically
    /// if the topology's diameter needs more).
    pub vcs_per_class: u32,
    /// VC buffer depth in flits.
    pub vc_buffer_flits: u32,
    /// Default external-channel bandwidth in bytes per router cycle.
    pub channel_bytes_per_cycle: f64,
    /// Default SerDes latency in router cycles.
    pub serdes_cycles: u32,
    /// Latency of one overlay pass-through hop in cycles.
    pub passthrough_cycles: u32,
    /// Energy per bit moved, picojoules.
    pub energy_pj_per_bit: f64,
    /// Idle energy per bit-time on powered external channels, picojoules.
    pub idle_pj_per_bit: f64,
    /// Endpoint ejection buffer in flits.
    pub eject_buffer_flits: u32,
    /// Seed for oblivious route spreading and UGAL sampling.
    pub seed: u64,
}

impl NocParams {
    /// Derives parameters from a Table I [`NocConfig`].
    pub fn from_config(c: &NocConfig) -> Self {
        NocParams {
            flit_bytes: c.flit_bytes,
            pipeline_cycles: c.pipeline_stages,
            vcs_per_class: c.vcs_per_class,
            vc_buffer_flits: c.vc_buffer_flits(),
            channel_bytes_per_cycle: c.bytes_per_cycle(),
            serdes_cycles: c.serdes_cycles(),
            passthrough_cycles: c.passthrough_cycles,
            energy_pj_per_bit: c.energy_pj_per_bit,
            idle_pj_per_bit: c.idle_pj_per_bit,
            eject_buffer_flits: 4 * c.vc_buffer_flits(),
            seed: 0x5EED,
        }
    }
}

impl Default for NocParams {
    /// Paper defaults (Section VI-A).
    fn default() -> Self {
        let c = memnet_common::SystemConfig::paper().noc;
        NocParams::from_config(&c)
    }
}

/// Physical properties of one (bidirectional) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bytes per router cycle in each direction.
    pub bytes_per_cycle: f64,
    /// SerDes latency in router cycles per traversal.
    pub serdes_cycles: u32,
    /// Whether idle energy is charged (external high-speed channels are
    /// always powered; internal on-die links are not).
    pub powered: bool,
}

impl LinkSpec {
    /// A 20 GB/s external HMC channel (16 B/cycle, 4-cycle SerDes).
    pub fn hmc_channel() -> Self {
        LinkSpec {
            bytes_per_cycle: 16.0,
            serdes_cycles: 4,
            powered: true,
        }
    }

    /// An `n`-wide trunk of HMC channels modeled as one fat link.
    pub fn hmc_trunk(n: u32) -> Self {
        LinkSpec {
            bytes_per_cycle: 16.0 * n as f64,
            serdes_cycles: 4,
            powered: true,
        }
    }

    /// A 16-lane PCIe v3.0 channel: 15.75 GB/s = 12.6 B per 1.25 GHz cycle,
    /// with a long protocol latency folded into `serdes_cycles`.
    #[allow(clippy::cast_possible_truncation, reason = "f64 `as` saturates; ~100s of cycles")]
    pub fn pcie(latency_ns: f64) -> Self {
        LinkSpec {
            bytes_per_cycle: 12.6,
            serdes_cycles: (latency_ns / 0.8).ceil() as u32,
            powered: false,
        }
    }

    /// A wide on-die connection between a device and its network interface.
    pub fn internal() -> Self {
        LinkSpec {
            bytes_per_cycle: 256.0,
            serdes_cycles: 0,
            powered: false,
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::hmc_channel()
    }
}

/// What a link is — owned by `memnet_common`, which fault plans share.
pub use memnet_common::LinkTag;

/// A recorded bidirectional link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkRec {
    pub a: NodeId,
    pub b: NodeId,
    pub spec: LinkSpec,
    pub tag: LinkTag,
}

/// Node kinds known to the builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum NodeRec {
    Router,
    /// Endpoint attached to a router via an implicit internal link.
    Endpoint {
        router: NodeId,
        link: LinkSpec,
    },
}

/// Builds a network graph.
#[derive(Debug)]
pub struct NetworkBuilder {
    pub(crate) params: NocParams,
    pub(crate) nodes: Vec<NodeRec>,
    pub(crate) links: Vec<LinkRec>,
    pub(crate) overlay_chains: Vec<Vec<NodeId>>,
    pub(crate) policy: RoutingPolicy,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new(params: NocParams) -> Self {
        NetworkBuilder {
            params,
            nodes: Vec::new(),
            links: Vec::new(),
            overlay_chains: Vec::new(),
            policy: RoutingPolicy::Minimal,
        }
    }

    /// Adds a router (an HMC logic layer, a device network interface, or a
    /// PCIe switch) and returns its node id.
    #[allow(clippy::cast_possible_truncation, reason = "u16 ids; try_build refuses > MAX_NODES")]
    pub fn router(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u16);
        self.nodes.push(NodeRec::Router);
        id
    }

    /// Adds an endpoint attached to `router` with a wide internal link.
    ///
    /// # Panics
    ///
    /// Panics if `router` is not a router node.
    pub fn endpoint(&mut self, router: NodeId) -> NodeId {
        self.endpoint_with(router, LinkSpec::internal())
    }

    /// Adds an endpoint attached to `router` with an explicit link spec.
    #[allow(clippy::cast_possible_truncation, reason = "u16 ids; try_build refuses > MAX_NODES")]
    pub fn endpoint_with(&mut self, router: NodeId, link: LinkSpec) -> NodeId {
        assert!(
            matches!(self.nodes.get(router.index()), Some(NodeRec::Router)),
            "endpoint must attach to a router"
        );
        let id = NodeId(self.nodes.len() as u16);
        self.nodes.push(NodeRec::Endpoint { router, link });
        id
    }

    /// Connects two routers with a bidirectional link.
    ///
    /// # Panics
    ///
    /// Panics if either node is not a router or if `a == b`.
    pub fn link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec, tag: LinkTag) {
        assert_ne!(a, b, "self links are not allowed");
        for n in [a, b] {
            assert!(
                matches!(self.nodes.get(n.index()), Some(NodeRec::Router)),
                "links connect routers"
            );
        }
        self.links.push(LinkRec { a, b, spec, tag });
    }

    /// Declares an overlay pass-through chain over existing links
    /// (Section V-C). Every consecutive pair in `chain` must already be
    /// linked. Overlay-flagged packets travelling along the chain bypass the
    /// router pipeline and SerDes.
    ///
    /// # Panics
    ///
    /// Panics if a consecutive pair is not linked.
    pub fn overlay_chain(&mut self, chain: &[NodeId]) {
        for w in chain.windows(2) {
            let linked = self
                .links
                .iter()
                .any(|l| (l.a == w[0] && l.b == w[1]) || (l.a == w[1] && l.b == w[0]));
            assert!(
                linked,
                "overlay chain requires an existing link {} - {}",
                w[0], w[1]
            );
        }
        self.overlay_chains.push(chain.to_vec());
    }

    /// Sets the routing policy (default: minimal).
    pub fn routing(&mut self, policy: RoutingPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Number of bidirectional links with the given tag — the Fig. 12
    /// channel count when called with [`LinkTag::HmcHmc`].
    pub fn count_links(&self, tag: LinkTag) -> usize {
        self.links.iter().filter(|l| l.tag == tag).count()
    }

    /// Maximum router radix used (ports on the busiest router), counting
    /// endpoint attachments. HMCs have 8 external channels, so topologies
    /// exceeding that on an HMC router are flagged by callers.
    pub fn max_radix(&self) -> usize {
        let mut deg = vec![0usize; self.nodes.len()];
        for l in &self.links {
            deg[l.a.index()] += 1;
            deg[l.b.index()] += 1;
        }
        for n in &self.nodes {
            if let NodeRec::Endpoint { router, .. } = n {
                deg[router.index()] += 1;
            }
        }
        deg.into_iter().max().unwrap_or(0)
    }

    /// Freezes the graph into a runnable [`Network`].
    ///
    /// # Errors
    ///
    /// More nodes than `u16` ids address, a router with more ports, or a
    /// port with more VCs, than `u8` ids address; a `pipeline_cycles` or
    /// `passthrough_cycles` of 0 (every hop takes at least two cycles,
    /// which the credit return relies on).
    ///
    /// # Panics
    ///
    /// Panics if the router graph is disconnected (some endpoint pair would
    /// be unreachable).
    pub fn try_build(self) -> Result<Network, String> {
        Network::from_builder(self)
    }

    /// [`NetworkBuilder::try_build`], panicking with its error.
    ///
    /// # Panics
    ///
    /// As `try_build`, and on the graphs it refuses.
    pub fn build(self) -> Network {
        self.try_build().unwrap_or_else(|why| panic!("{why}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let r0 = b.router();
        let r1 = b.router();
        let e = b.endpoint(r0);
        assert_eq!(r0, NodeId(0));
        assert_eq!(r1, NodeId(1));
        assert_eq!(e, NodeId(2));
    }

    #[test]
    fn link_counting_by_tag() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let r0 = b.router();
        let r1 = b.router();
        let r2 = b.router();
        b.link(r0, r1, LinkSpec::default(), LinkTag::HmcHmc);
        b.link(r1, r2, LinkSpec::default(), LinkTag::DeviceHmc);
        assert_eq!(b.count_links(LinkTag::HmcHmc), 1);
        assert_eq!(b.count_links(LinkTag::DeviceHmc), 1);
        assert_eq!(b.count_links(LinkTag::Pcie), 0);
    }

    #[test]
    fn max_radix_counts_endpoints() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let r0 = b.router();
        let r1 = b.router();
        b.link(r0, r1, LinkSpec::default(), LinkTag::HmcHmc);
        let _e0 = b.endpoint(r0);
        let _e1 = b.endpoint(r0);
        assert_eq!(b.max_radix(), 3); // r0: link + two endpoints
    }

    #[test]
    #[should_panic(expected = "attach to a router")]
    fn endpoint_on_endpoint_panics() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let r = b.router();
        let e = b.endpoint(r);
        let _ = b.endpoint(e);
    }

    #[test]
    #[should_panic(expected = "self links")]
    fn self_link_panics() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let r = b.router();
        b.link(r, r, LinkSpec::default(), LinkTag::HmcHmc);
    }

    #[test]
    #[should_panic(expected = "existing link")]
    fn overlay_requires_links() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let r0 = b.router();
        let r1 = b.router();
        b.overlay_chain(&[r0, r1]);
    }

    #[test]
    fn zero_cycle_hops_are_refused_naming_the_field() {
        for (field, zero) in [
            (
                "pipeline_cycles",
                NocParams {
                    pipeline_cycles: 0,
                    ..NocParams::default()
                },
            ),
            (
                "passthrough_cycles",
                NocParams {
                    passthrough_cycles: 0,
                    ..NocParams::default()
                },
            ),
        ] {
            let mut b = NetworkBuilder::new(zero);
            let r = b.router();
            b.endpoint(r);
            let why = b.try_build().expect_err("refused");
            assert_eq!(why, format!("'{field}' must be at least 1 cycle"));
        }
    }

    #[test]
    fn pcie_link_is_slower_than_hmc() {
        let p = LinkSpec::pcie(300.0);
        let h = LinkSpec::hmc_channel();
        assert!(p.bytes_per_cycle < h.bytes_per_cycle);
        assert!(p.serdes_cycles > h.serdes_cycles);
    }
}

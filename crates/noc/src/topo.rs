//! Memory-network topologies (Section V).
//!
//! A multi-GPU memory network is organized in *clusters*: each device (GPU
//! or CPU) owns `hmcs_per_cluster` local HMCs, reached through the device's
//! channels. *Slices* group the i-th HMC of every cluster; inter-cluster
//! connectivity lives inside slices.
//!
//! Supported topologies:
//!
//! * **Sliced** mesh / torus / flattened butterfly ([`TopologyKind::Sliced`])
//!   — no intra-cluster HMC-HMC channels; the device itself bridges its
//!   local HMCs (Fig. 11(d)). The optional `double` flag models the
//!   `-2x` configurations of Fig. 16 by doubling every slice channel.
//! * **Distributor-based flattened butterfly** (dFBFLY, Fig. 11(c)) — the
//!   sliced FBFLY plus full intra-cluster connectivity.
//! * **Distributor-based dragonfly** (dDFLY, Fig. 11(a)) — full
//!   intra-cluster connectivity plus a single global channel per cluster
//!   pair, distributed across the cluster's HMCs.
//! * **Isolated** — clusters only (used by the PCIe / CMN / GMN
//!   organizations for the parts of the system that are *not* in a memory
//!   network).
//!
//! Slice shape follows the paper's calibration: up to 4 clusters use 1-D
//! slices (path / ring / complete graph); more clusters use a near-square
//! 2-D arrangement (4×4 2D FBFLY per slice for 16 GPUs), which reproduces
//! the Fig. 12 channel counts (−50 % for 4 GPUs, −43 % for 8 GPUs).

use crate::builder::{LinkSpec, LinkTag, NetworkBuilder};
use memnet_common::NodeId;

/// Inter-cluster wiring style within each slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlicedKind {
    /// Grid without wraparound (path for ≤4 clusters).
    Mesh,
    /// Grid with wraparound (ring for ≤4 clusters).
    Torus,
    /// Flattened butterfly: complete graph per row/column (complete graph
    /// for ≤4 clusters).
    Fbfly,
}

/// Complete memory-network topology selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Clusters with no inter-cluster HMC channels.
    Isolated,
    /// A sliced topology; `double` doubles every slice channel (`-2x`).
    Sliced { kind: SlicedKind, double: bool },
    /// Distributor-based flattened butterfly (adds intra-cluster channels).
    DistributorFbfly,
    /// Distributor-based dragonfly.
    DistributorDfly,
}

impl TopologyKind {
    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Isolated => "isolated",
            TopologyKind::Sliced {
                kind: SlicedKind::Mesh,
                double: false,
            } => "sMESH",
            TopologyKind::Sliced {
                kind: SlicedKind::Mesh,
                double: true,
            } => "sMESH-2x",
            TopologyKind::Sliced {
                kind: SlicedKind::Torus,
                double: false,
            } => "sTORUS",
            TopologyKind::Sliced {
                kind: SlicedKind::Torus,
                double: true,
            } => "sTORUS-2x",
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false,
            } => "sFBFLY",
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: true,
            } => "sFBFLY-2x",
            TopologyKind::DistributorFbfly => "dFBFLY",
            TopologyKind::DistributorDfly => "dDFLY",
        }
    }
}

/// Node handles produced by [`build_clusters`].
#[derive(Debug, Clone)]
pub struct Clusters {
    /// One network-interface router per device (GPU or CPU).
    pub device_routers: Vec<NodeId>,
    /// One endpoint per device, attached to its NIC router.
    pub device_eps: Vec<NodeId>,
    /// HMC logic-layer routers, `[cluster][local index]`.
    pub hmc_routers: Vec<Vec<NodeId>>,
    /// HMC vault-controller endpoints, `[cluster][local index]`.
    pub hmc_eps: Vec<Vec<NodeId>>,
}

impl Clusters {
    /// Number of clusters (devices).
    pub fn n_clusters(&self) -> usize {
        self.device_routers.len()
    }

    /// Local HMCs per cluster.
    pub fn hmcs_per_cluster(&self) -> usize {
        self.hmc_routers.first().map_or(0, Vec::len)
    }

    /// Flattened HMC endpoint list in global HMC-id order
    /// (`cluster * hmcs_per_cluster + local`).
    pub fn hmc_eps_flat(&self) -> Vec<NodeId> {
        self.hmc_eps.iter().flatten().copied().collect()
    }
}

/// Near-square 2-D factorization `(rows, cols)` with `rows ≤ cols`.
///
/// Used for slice shapes beyond 4 clusters.
pub fn grid_dims(n: usize) -> (usize, usize) {
    assert!(n > 0, "grid needs at least one node");
    #[allow(clippy::cast_possible_truncation, reason = "sqrt(n) ≤ n")]
    let mut a = (n as f64).sqrt() as usize;
    while a > 1 && !n.is_multiple_of(a) {
        a -= 1;
    }
    (a.max(1), n / a.max(1))
}

/// Creates `n_clusters` device+HMC clusters and wires the inter-cluster
/// memory network per `kind`.
///
/// Each device gets `channels_per_device` channels spread evenly over its
/// local HMCs (the paper's *distribution*: 8 channels → 2 per local HMC),
/// modeled as one trunk link per (device, local HMC).
///
/// # Panics
///
/// Panics if `channels_per_device` is not divisible by `hmcs_per_cluster`.
#[allow(clippy::cast_possible_truncation, reason = "a device has a handful of local HMCs")]
pub fn build_clusters(
    b: &mut NetworkBuilder,
    n_clusters: usize,
    hmcs_per_cluster: usize,
    channels_per_device: u32,
    kind: TopologyKind,
) -> Clusters {
    assert!(
        n_clusters > 0 && hmcs_per_cluster > 0,
        "need clusters and HMCs"
    );
    assert_eq!(
        channels_per_device % hmcs_per_cluster as u32,
        0,
        "device channels must distribute evenly over local HMCs"
    );
    let trunk = channels_per_device / hmcs_per_cluster as u32;

    let mut c = Clusters {
        device_routers: Vec::new(),
        device_eps: Vec::new(),
        hmc_routers: Vec::new(),
        hmc_eps: Vec::new(),
    };
    for _ in 0..n_clusters {
        let dev = b.router();
        let dev_ep = b.endpoint(dev);
        let mut hr = Vec::new();
        let mut he = Vec::new();
        for _ in 0..hmcs_per_cluster {
            let h = b.router();
            let e = b.endpoint(h);
            b.link(dev, h, LinkSpec::hmc_trunk(trunk), LinkTag::DeviceHmc);
            hr.push(h);
            he.push(e);
        }
        c.device_routers.push(dev);
        c.device_eps.push(dev_ep);
        c.hmc_routers.push(hr);
        c.hmc_eps.push(he);
    }

    match kind {
        TopologyKind::Isolated => {}
        TopologyKind::Sliced { kind, double } => {
            wire_slices(b, &c, kind, double);
        }
        TopologyKind::DistributorFbfly => {
            wire_slices(b, &c, SlicedKind::Fbfly, false);
            wire_intra_cluster_full(b, &c);
        }
        TopologyKind::DistributorDfly => {
            wire_intra_cluster_full(b, &c);
            wire_dragonfly_globals(b, &c);
        }
    }
    c
}

/// Wires every slice (the s-th HMC of each cluster) per `kind`.
fn wire_slices(b: &mut NetworkBuilder, c: &Clusters, kind: SlicedKind, double: bool) {
    let n = c.n_clusters();
    let reps = if double { 2 } else { 1 };
    for s in 0..c.hmcs_per_cluster() {
        let slice: Vec<NodeId> = (0..n).map(|cl| c.hmc_routers[cl][s]).collect();
        let pairs = slice_pairs(n, kind);
        for _ in 0..reps {
            for &(i, j) in &pairs {
                b.link(slice[i], slice[j], LinkSpec::hmc_channel(), LinkTag::HmcHmc);
            }
        }
    }
}

/// The set of links for one slice of `n` clusters.
fn slice_pairs(n: usize, kind: SlicedKind) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    if n == 1 {
        return pairs;
    }
    if n <= 4 {
        // 1-D slice: path / ring / complete graph.
        match kind {
            SlicedKind::Mesh => {
                for i in 0..n - 1 {
                    pairs.push((i, i + 1));
                }
            }
            SlicedKind::Torus => {
                for i in 0..n - 1 {
                    pairs.push((i, i + 1));
                }
                if n > 2 {
                    pairs.push((n - 1, 0));
                }
            }
            SlicedKind::Fbfly => {
                for i in 0..n {
                    for j in i + 1..n {
                        pairs.push((i, j));
                    }
                }
            }
        }
        return pairs;
    }
    // 2-D slice: near-square grid, row-major cluster placement.
    let (rows, cols) = grid_dims(n);
    let at = |r: usize, col: usize| r * cols + col;
    match kind {
        SlicedKind::Mesh | SlicedKind::Torus => {
            for r in 0..rows {
                for col in 0..cols {
                    if col + 1 < cols {
                        pairs.push((at(r, col), at(r, col + 1)));
                    }
                    if r + 1 < rows {
                        pairs.push((at(r, col), at(r + 1, col)));
                    }
                }
            }
            if kind == SlicedKind::Torus {
                if cols > 2 {
                    for r in 0..rows {
                        pairs.push((at(r, cols - 1), at(r, 0)));
                    }
                }
                if rows > 2 {
                    for col in 0..cols {
                        pairs.push((at(rows - 1, col), at(0, col)));
                    }
                }
            }
        }
        SlicedKind::Fbfly => {
            for r in 0..rows {
                for a in 0..cols {
                    for bb in a + 1..cols {
                        pairs.push((at(r, a), at(r, bb)));
                    }
                }
            }
            for col in 0..cols {
                for a in 0..rows {
                    for bb in a + 1..rows {
                        pairs.push((at(a, col), at(bb, col)));
                    }
                }
            }
        }
    }
    pairs
}

/// Fully connects the HMCs within each cluster (the channels sFBFLY removes).
fn wire_intra_cluster_full(b: &mut NetworkBuilder, c: &Clusters) {
    for cl in 0..c.n_clusters() {
        let h = &c.hmc_routers[cl];
        for i in 0..h.len() {
            for j in i + 1..h.len() {
                b.link(h[i], h[j], LinkSpec::hmc_channel(), LinkTag::HmcHmc);
            }
        }
    }
}

/// One global channel per cluster pair, spread over the clusters' HMCs
/// (the dragonfly *distributor*).
fn wire_dragonfly_globals(b: &mut NetworkBuilder, c: &Clusters) {
    let h = c.hmcs_per_cluster();
    for i in 0..c.n_clusters() {
        for j in i + 1..c.n_clusters() {
            let hi = c.hmc_routers[i][j % h];
            let hj = c.hmc_routers[j][i % h];
            b.link(hi, hj, LinkSpec::hmc_channel(), LinkTag::HmcHmc);
        }
    }
}

/// Adds the CPU overlay pass-through chains of Fig. 13: in every slice, a
/// serial path from the CPU cluster's HMC through each other cluster's HMC.
///
/// Requires a slice topology where consecutive chain hops are linked, i.e.
/// FBFLY slices (complete per row/column). For 1-D FBFLY slices the chain
/// visits clusters in index order starting at `cpu_cluster`.
///
/// # Panics
///
/// Panics (via [`NetworkBuilder::overlay_chain`]) if a chain hop is not
/// linked — e.g. when called on a mesh slice.
pub fn add_cpu_overlay(b: &mut NetworkBuilder, c: &Clusters, cpu_cluster: usize) {
    let n = c.n_clusters();
    for s in 0..c.hmcs_per_cluster() {
        let mut chain = vec![c.hmc_routers[cpu_cluster][s]];
        for d in 1..n {
            chain.push(c.hmc_routers[(cpu_cluster + d) % n][s]);
        }
        if chain.len() >= 2 {
            b.overlay_chain(&chain);
        }
    }
}

/// Connects devices to a PCIe switch in a star (Fig. 1(a)): the
/// conventional multi-GPU interconnect. Returns the switch router.
pub fn add_pcie_tree(b: &mut NetworkBuilder, device_routers: &[NodeId], latency_ns: f64) -> NodeId {
    let switch = b.router();
    for &d in device_routers {
        b.link(switch, d, LinkSpec::pcie(latency_ns), LinkTag::Pcie);
    }
    switch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NocParams;

    fn count_hmc_links(n_clusters: usize, kind: TopologyKind) -> usize {
        let mut b = NetworkBuilder::new(NocParams::default());
        let _ = build_clusters(&mut b, n_clusters, 4, 8, kind);
        b.count_links(LinkTag::HmcHmc)
    }

    #[test]
    fn fig12_channel_counts() {
        // Paper: sFBFLY removes 50 % of channels for 4 GPUs, 43 % for 8.
        let s4 = count_hmc_links(
            4,
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false,
            },
        );
        let d4 = count_hmc_links(4, TopologyKind::DistributorFbfly);
        assert_eq!(s4, 24); // 4 slices × C(4,2)
        assert_eq!(d4, 48); // + 4 clusters × C(4,2)
        assert!((1.0 - s4 as f64 / d4 as f64 - 0.50).abs() < 1e-9);

        let s8 = count_hmc_links(
            8,
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false,
            },
        );
        let d8 = count_hmc_links(8, TopologyKind::DistributorFbfly);
        assert_eq!(s8, 64); // 4 slices × (2 rows × C(4,2) + 4 cols × C(2,2))
        assert_eq!(d8, 112); // + 8 clusters × C(4,2)
        assert!((1.0 - s8 as f64 / d8 as f64 - 0.4286).abs() < 0.01);
    }

    #[test]
    fn ddfly_channel_count() {
        // 4 clusters: 4 × C(4,2) intra + C(4,2) globals = 24 + 6.
        let d = count_hmc_links(4, TopologyKind::DistributorDfly);
        assert_eq!(d, 30);
    }

    #[test]
    fn doubling_doubles_slice_channels() {
        let s = count_hmc_links(
            4,
            TopologyKind::Sliced {
                kind: SlicedKind::Torus,
                double: false,
            },
        );
        let s2 = count_hmc_links(
            4,
            TopologyKind::Sliced {
                kind: SlicedKind::Torus,
                double: true,
            },
        );
        assert_eq!(s2, 2 * s);
    }

    #[test]
    fn sliced_mesh_vs_torus_vs_fbfly_link_counts() {
        let m = count_hmc_links(
            4,
            TopologyKind::Sliced {
                kind: SlicedKind::Mesh,
                double: false,
            },
        );
        let t = count_hmc_links(
            4,
            TopologyKind::Sliced {
                kind: SlicedKind::Torus,
                double: false,
            },
        );
        let f = count_hmc_links(
            4,
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false,
            },
        );
        assert_eq!(m, 12); // 4 slices × path(3)
        assert_eq!(t, 16); // 4 slices × ring(4)
        assert_eq!(f, 24); // 4 slices × K4(6)
    }

    #[test]
    fn grid_dims_near_square() {
        assert_eq!(grid_dims(8), (2, 4));
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(6), (2, 3));
        assert_eq!(grid_dims(5), (1, 5));
        assert_eq!(grid_dims(1), (1, 1));
    }

    #[test]
    fn hmc_radix_stays_within_8_channels_for_sfbfly_16gpu() {
        // The scalability argument: 16-GPU sFBFLY fits the HMC's 8 channels
        // (one GPU trunk port + 6 slice ports), while dFBFLY would not.
        let mut b = NetworkBuilder::new(NocParams::default());
        let _ = build_clusters(
            &mut b,
            16,
            4,
            8,
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false,
            },
        );
        assert!(b.max_radix() <= 8, "radix {}", b.max_radix());
    }

    #[test]
    fn all_topologies_are_connected_and_routable() {
        use crate::packet::MsgClass;
        use memnet_common::{AccessKind, Agent, GpuId, MemReq, Payload, ReqId};
        for kind in [
            TopologyKind::Sliced {
                kind: SlicedKind::Mesh,
                double: false,
            },
            TopologyKind::Sliced {
                kind: SlicedKind::Torus,
                double: false,
            },
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false,
            },
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: true,
            },
            TopologyKind::DistributorFbfly,
            TopologyKind::DistributorDfly,
        ] {
            for n_clusters in [2usize, 4, 8] {
                let mut b = NetworkBuilder::new(NocParams::default());
                let c = build_clusters(&mut b, n_clusters, 4, 8, kind);
                let mut net = b.build();
                // Send one packet from every device to every HMC endpoint.
                let mut expected = 0;
                for &dev in &c.device_eps {
                    for &hmc in &c.hmc_eps_flat() {
                        let req = MemReq {
                            id: ReqId(expected),
                            addr: 0,
                            bytes: 128,
                            kind: AccessKind::Read,
                            src: Agent::Gpu(GpuId(0)),
                        };
                        net.inject(dev, hmc, MsgClass::Req, Payload::Req(req), false);
                        expected += 1;
                    }
                }
                let eps = c.hmc_eps_flat();
                let mut got = 0u64;
                for _ in 0..200_000 {
                    net.tick();
                    for &e in &eps {
                        while net.poll_eject(e).is_some() {
                            got += 1;
                        }
                    }
                    if got == expected {
                        break;
                    }
                }
                assert_eq!(got, expected, "{} with {n_clusters} clusters", kind.name());
            }
        }
    }

    #[test]
    fn overlay_chain_builds_on_fbfly() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let c = build_clusters(
            &mut b,
            4,
            4,
            8,
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false,
            },
        );
        add_cpu_overlay(&mut b, &c, 0);
        let _ = b.build(); // must not panic
    }

    #[test]
    #[should_panic(expected = "existing link")]
    fn overlay_chain_panics_on_mesh() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let c = build_clusters(
            &mut b,
            4,
            4,
            8,
            TopologyKind::Sliced {
                kind: SlicedKind::Mesh,
                double: false,
            },
        );
        // Mesh slices are paths 0-1-2-3; a chain starting at cluster 2 would
        // need link 3-0 which does not exist.
        add_cpu_overlay(&mut b, &c, 2);
    }

    #[test]
    fn pcie_tree_connects_devices() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let c = build_clusters(&mut b, 2, 4, 8, TopologyKind::Isolated);
        let _switch = add_pcie_tree(&mut b, &c.device_routers, 300.0);
        assert_eq!(b.count_links(LinkTag::Pcie), 2);
        let _ = b.build(); // connected through the switch
    }

    #[test]
    fn topology_names() {
        assert_eq!(
            TopologyKind::Sliced {
                kind: SlicedKind::Fbfly,
                double: false
            }
            .name(),
            "sFBFLY"
        );
        assert_eq!(
            TopologyKind::Sliced {
                kind: SlicedKind::Mesh,
                double: true
            }
            .name(),
            "sMESH-2x"
        );
        assert_eq!(TopologyKind::DistributorDfly.name(), "dDFLY");
    }
}

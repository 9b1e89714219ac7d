//! Synthetic traffic generation and load–latency measurement.
//!
//! A standard interconnection-network evaluation harness (Dally & Towles):
//! endpoints inject fixed-size packets under a Bernoulli process at a given
//! offered load, following a spatial pattern, and the network's average
//! packet latency is measured after warm-up. Used by the
//! `noc_loadlatency` bench to characterize the memory-network topologies
//! independently of full-system behavior, and by tests to sanity-check
//! saturation behavior.

use crate::network::{EjectedPacket, Network};
use crate::packet::MsgClass;
use memnet_common::stats::RunningStats;
use memnet_common::time::narrow_u32;
use memnet_common::{AccessKind, Agent, GpuId, MemReq, NodeId, Payload, ReqId, SplitMix64};

/// Spatial traffic patterns over a set of endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Uniform random destination (the self-balancing pattern the paper
    /// observes for data-parallel workloads, Section V-A).
    Uniform,
    /// All sources target one hot endpoint.
    Hotspot,
    /// Bit-reversal-style permutation: source `i` always sends to
    /// `n - 1 - i` (adversarial for minimal routing on some topologies).
    Transpose,
}

impl Pattern {
    fn dest(self, src: usize, n: usize, rng: &mut SplitMix64) -> usize {
        match self {
            Pattern::Uniform => {
                #[allow(clippy::cast_possible_truncation, reason = "below n, a usize")]
                let mut d = rng.next_below(n as u64 - 1) as usize;
                if d >= src {
                    d += 1;
                }
                d
            }
            Pattern::Hotspot => {
                if src == 0 {
                    1 % n
                } else {
                    0
                }
            }
            Pattern::Transpose => n - 1 - src,
        }
    }
}

/// Results of one load point.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered load in packets per endpoint per cycle.
    pub offered: f64,
    /// Accepted throughput in packets per endpoint per cycle.
    pub accepted: f64,
    /// Mean packet latency in router cycles (measurement phase only).
    pub latency: RunningStats,
    /// True if injection queues kept growing (post-saturation).
    pub saturated: bool,
}

/// Polls every destination holding a packet in `dests` order, the order
/// packet slots are freed and reused: at `first[node]`, its first place.
fn drain(
    net: &mut Network,
    dests: &[NodeId],
    first: &[u32],
    due: &mut Vec<u32>,
    mut take: impl FnMut(EjectedPacket),
) {
    due.clear();
    due.extend(net.ejecting().filter_map(|n| first.get(n.index())));
    due.retain(|&i| i != u32::MAX);
    due.sort_unstable();
    for &i in due.iter() {
        let d = dests[i as usize];
        while let Some(p) = net.poll_eject(d) {
            take(p);
            if !net.has_eject(d) {
                break;
            }
        }
    }
}

/// Runs one load point on `net` between `sources` and `dests`.
///
/// Injects 9-flit write packets (128 B payload + header — the dominant
/// packet size in the memory network) from every source endpoint at
/// `offered` packets/cycle with pattern `pattern`, for `warmup + measure`
/// cycles, then drains.
///
/// # Panics
///
/// Panics if `sources` or `dests` is empty.
#[allow(clippy::too_many_arguments, reason = "a load point *is* eight knobs")]
pub fn run_load_point(
    net: &mut Network,
    sources: &[NodeId],
    dests: &[NodeId],
    pattern: Pattern,
    offered: f64,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> LoadPoint {
    assert!(
        !sources.is_empty() && !dests.is_empty(),
        "need sources and destinations"
    );
    let mut first = vec![u32::MAX; dests.iter().map(|d| d.index() + 1).max().unwrap_or(0)];
    for (i, d) in dests.iter().enumerate().rev() {
        first[d.index()] = narrow_u32(i as u64, "a dests position");
    }
    let mut due = Vec::new();
    let mut rng = SplitMix64::new(seed);
    let mut sent = 0u64;
    let mut backlog = 0u64;
    let mut latency = RunningStats::new();
    let mut accepted = 0u64;

    let mut id = 0u64;
    for step in 0..(warmup + measure) {
        let measuring = step >= warmup;
        for (si, &s) in sources.iter().enumerate() {
            if rng.chance(offered) {
                if net.inject_ready(s) {
                    let d = dests[pattern.dest(si, dests.len(), &mut rng) % dests.len()];
                    id += 1;
                    #[allow(clippy::cast_possible_truncation, reason = "sources are u16 nodes")]
                    let req = MemReq {
                        id: ReqId(id),
                        addr: id * 128,
                        bytes: 128,
                        kind: AccessKind::Write,
                        src: Agent::Gpu(GpuId(si as u16)),
                    };
                    net.inject(s, d, MsgClass::Req, Payload::Req(req), false);
                    sent += 1;
                } else {
                    backlog += 1;
                }
            }
        }
        net.tick();
        drain(net, dests, &first, &mut due, |p| {
            if measuring {
                latency.record(p.latency_cycles as f64);
                accepted += 1;
            }
        });
    }
    // Drain what's in flight (not measured).
    let mut spin = 0;
    while net.has_work() && spin < 1_000_000 {
        net.tick();
        drain(net, dests, &first, &mut due, |_| {});
        spin += 1;
    }
    LoadPoint {
        offered,
        accepted: accepted as f64 / (measure.max(1) as f64 * sources.len() as f64),
        latency,
        saturated: backlog > sent / 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NetworkBuilder, NocParams};
    use crate::topo::{build_clusters, SlicedKind, TopologyKind};

    fn sfbfly() -> (Network, Vec<NodeId>, Vec<NodeId>) {
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
        let eps = c.hmc_eps_flat();
        (b.build(), c.device_eps.clone(), eps)
    }

    #[test]
    fn low_load_has_low_latency_and_full_throughput() {
        let (mut net, src, dst) = sfbfly();
        let p = run_load_point(&mut net, &src, &dst, Pattern::Uniform, 0.05, 500, 2000, 1);
        assert!(!p.saturated);
        assert!(p.latency.count() > 0);
        let zero_load = p.latency.mean();
        assert!(
            (10.0..60.0).contains(&zero_load),
            "zero-load latency {zero_load}"
        );
        assert!((p.accepted - 0.05).abs() < 0.02, "accepted {}", p.accepted);
    }

    #[test]
    fn latency_rises_with_load() {
        let (mut a, src_a, dst_a) = sfbfly();
        let lo = run_load_point(&mut a, &src_a, &dst_a, Pattern::Uniform, 0.05, 500, 2000, 1);
        let (mut b, src_b, dst_b) = sfbfly();
        let hi = run_load_point(&mut b, &src_b, &dst_b, Pattern::Uniform, 0.6, 500, 2000, 1);
        assert!(
            hi.latency.mean() > lo.latency.mean(),
            "latency must rise with load: {} vs {}",
            hi.latency.mean(),
            lo.latency.mean()
        );
    }

    #[test]
    fn hotspot_saturates_before_uniform() {
        let offered = 0.5;
        let (mut a, src_a, dst_a) = sfbfly();
        let uni = run_load_point(
            &mut a,
            &src_a,
            &dst_a,
            Pattern::Uniform,
            offered,
            500,
            3000,
            1,
        );
        let (mut b, src_b, dst_b) = sfbfly();
        let hot = run_load_point(
            &mut b,
            &src_b,
            &dst_b,
            Pattern::Hotspot,
            offered,
            500,
            3000,
            1,
        );
        assert!(
            hot.accepted < uni.accepted,
            "hotspot throughput {} must trail uniform {}",
            hot.accepted,
            uni.accepted
        );
    }

    /// The harness drains the destinations in `dests` order, and that
    /// order is the order packet slots are freed and so reused: a reused
    /// slot's id spreads the next packet over the minimal ports. A
    /// shuffled `dests` (neither endpoint nor node order) past saturation
    /// on the 8-cluster sFBFLY, where the drain order moves the result
    /// (draining in endpoint order delivers 3 041 packets), pinned to the
    /// figures it gave while every destination was polled every cycle:
    /// the latency record's bits, the accepted rate's and the drained
    /// cycle.
    #[test]
    fn a_shuffled_dests_list_drains_in_its_own_order() {
        let mut b = NetworkBuilder::new(NocParams::default());
        let kind = TopologyKind::Sliced {
            kind: SlicedKind::Fbfly,
            double: false,
        };
        let c = build_clusters(&mut b, 8, 4, 8, kind);
        let (mut net, mut dst) = (b.build(), c.hmc_eps_flat());
        let mut rng = SplitMix64::new(5);
        for i in (1..dst.len()).rev() {
            dst.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let p = run_load_point(
            &mut net,
            &c.device_eps,
            &dst,
            Pattern::Uniform,
            0.8,
            200,
            1000,
            3,
        );
        let (count, sum, min, max) = p.latency.raw();
        assert_eq!(
            (count, sum.to_bits(), min, max),
            (3078, 0x4109_9608_0000_0000, 31.0, 132.0)
        );
        assert_eq!(
            (p.accepted.to_bits(), net.cycle()),
            (0x3fd8_9fbe_76c8_b439, 1286)
        );
    }

    #[test]
    fn transpose_pattern_is_a_permutation() {
        let mut rng = SplitMix64::new(1);
        let n = 8;
        let dests: Vec<usize> = (0..n)
            .map(|s| Pattern::Transpose.dest(s, n, &mut rng))
            .collect();
        let mut sorted = dests.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "must be a permutation");
        assert!((0..n).all(|s| dests[s] != s), "no self traffic");
    }

    #[test]
    fn uniform_never_targets_self() {
        let mut rng = SplitMix64::new(2);
        for s in 0..8 {
            for _ in 0..200 {
                assert_ne!(Pattern::Uniform.dest(s, 8, &mut rng), s);
            }
        }
    }
}

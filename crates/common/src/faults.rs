//! Deterministic fault plans: seed-driven failure schedules for chaos runs.
//!
//! A [`FaultPlan`] is a sorted list of [`FaultEvent`]s, each firing at a
//! simulated femtosecond timestamp. The plan is pure data — the engine
//! resolves abstract targets (a [`LinkTag`] plus ordinal, a vault index,
//! a GPU id) against the concrete system it built, then applies each
//! event on the first clock edge of the owning domain at or after the
//! event's timestamp. Because application points are derived from clock
//! arithmetic alone, the same plan produces bit-identical reports under
//! both engine modes.
//!
//! Plans come from three places: hand-written JSON (`memnet run --faults
//! plan.json`), the seeded generator [`FaultPlan::random`] used by the
//! chaos tests, or programmatic construction in benches.

use crate::rng::SplitMix64;
use crate::time::Fs;

/// What a link is: the physical populations the organizations differ in
/// (memory-network trunks, device taps, the PCIe tree, the PCN mesh) plus
/// the on-die device attachment. The network tags every link it builds
/// (Fig. 12 channel counts, energy scoping, heatmap classes), and a link
/// fault names its target as a tag and an `ordinal` into that tag's
/// population (modulo the population size, so random plans stay valid
/// across topologies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkTag {
    /// HMC-to-HMC memory-network channel.
    HmcHmc,
    /// GPU/CPU-to-local-HMC channel.
    DeviceHmc,
    /// PCIe channel.
    Pcie,
    /// NVLink-class processor-to-processor channel (PCN organizations).
    Nvlink,
    /// On-die device-to-endpoint connection (not a physical channel).
    Internal,
}

impl LinkTag {
    /// The tags a fault may name, in a fixed order (the random generator
    /// draws by index). `Internal` is no physical channel, so it is absent.
    pub const FAULTABLE: [LinkTag; 4] = [
        LinkTag::HmcHmc,
        LinkTag::DeviceHmc,
        LinkTag::Pcie,
        LinkTag::Nvlink,
    ];

    /// Stable lowercase name (JSON plans, heatmap link classes).
    pub fn name(self) -> &'static str {
        match self {
            LinkTag::HmcHmc => "hmc-hmc",
            LinkTag::DeviceHmc => "device-hmc",
            LinkTag::Pcie => "pcie",
            LinkTag::Nvlink => "nvlink",
            LinkTag::Internal => "internal",
        }
    }

    /// Parses the name of a [`LinkTag::FAULTABLE`] tag; `internal` is
    /// refused like any unknown name.
    pub fn parse(s: &str) -> Option<LinkTag> {
        LinkTag::FAULTABLE.into_iter().find(|c| c.name() == s)
    }
}

/// One injectable failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Takes a link down: both directed channels stop accepting flits and
    /// routing recomputes over the survivors.
    LinkDown { class: LinkTag, ordinal: u64 },
    /// Restores a previously downed link (routing recomputes again).
    LinkUp { class: LinkTag, ordinal: u64 },
    /// Elevated BER on a link: every flit crossing it pays `factor`× the
    /// serialization latency (modeling deterministic retransmits).
    /// `factor == 1` restores the clean channel.
    LinkDegrade {
        class: LinkTag,
        ordinal: u64,
        factor: u32,
    },
    /// Stalls one vault of one HMC for `stall_tcks` DRAM clocks measured
    /// from the fault's own edge; queued requests wait it out.
    VaultStall {
        hmc: u64,
        vault: u64,
        stall_tcks: u64,
    },
    /// Permanently loses a whole GPU: resident and pending CTAs are
    /// reassigned to survivors, in-flight responses to it are dropped.
    GpuLoss { gpu: u64 },
}

impl FaultKind {
    /// Stable lowercase name (used in JSON plans and trace events).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link-down",
            FaultKind::LinkUp { .. } => "link-up",
            FaultKind::LinkDegrade { .. } => "link-degrade",
            FaultKind::VaultStall { .. } => "vault-stall",
            FaultKind::GpuLoss { .. } => "gpu-loss",
        }
    }
}

/// A failure scheduled at a simulated timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated time of injection, femtoseconds. The effect lands on the
    /// first owning-domain clock edge at or after this time.
    pub at_fs: Fs,
    /// What fails.
    pub kind: FaultKind,
}

/// A deterministic failure schedule.
///
/// # Example
///
/// ```
/// use memnet_common::faults::{FaultPlan, FaultKind, LinkTag};
/// let mut plan = FaultPlan::new();
/// plan.push(1_000_000, FaultKind::LinkDown { class: LinkTag::HmcHmc, ordinal: 0 });
/// assert_eq!(plan.events().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Inserts an event after every event at or before `at_fs`, so the
    /// plan stays sorted and same-timestamp events keep insertion order:
    /// application order is a pure function of the plan's contents.
    pub fn push(&mut self, at_fs: Fs, kind: FaultKind) {
        let i = self.events.partition_point(|e| e.at_fs <= at_fs);
        self.events.insert(i, FaultEvent { at_fs, kind });
    }

    /// The schedule, sorted by timestamp (ties in insertion order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if the plan contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a random plan from a seed.
    ///
    /// The generator is pure SplitMix64, so a seed fully determines the
    /// plan. Invariants the generator maintains so chaos runs always
    /// terminate meaningfully:
    ///
    /// - at least one GPU survives (at most `n_gpus - 1` distinct
    ///   [`FaultKind::GpuLoss`] events);
    /// - every `LinkDown` is followed by a matching `LinkUp` later in the
    ///   horizon with probability ~1/2, so some cuts heal and some stick;
    /// - degrade factors stay in `2..=8` and vault stalls in
    ///   `64..=4096` tCK — disruptive but finite.
    #[allow(clippy::cast_possible_truncation, reason = "next_below(4) and (7) fit any type")]
    pub fn random(seed: u64, n_events: usize, n_gpus: usize, horizon_fs: Fs) -> FaultPlan {
        let mut rng = SplitMix64::new(seed ^ 0xFA01_7000_FA01_7000);
        let mut plan = FaultPlan::new();
        let mut lost_gpus = Vec::new();
        for _ in 0..n_events {
            let at_fs = 1 + rng.next_below(horizon_fs.max(2) - 1);
            let roll = rng.next_below(100);
            let kind = if roll < 35 {
                let class = LinkTag::FAULTABLE[rng.next_below(4) as usize];
                let ordinal = rng.next_below(16);
                if rng.chance(0.5) {
                    let up_at = at_fs + 1 + rng.next_below(horizon_fs.max(2) / 2);
                    plan.push(up_at, FaultKind::LinkUp { class, ordinal });
                }
                FaultKind::LinkDown { class, ordinal }
            } else if roll < 55 {
                FaultKind::LinkDegrade {
                    class: LinkTag::FAULTABLE[rng.next_below(4) as usize],
                    ordinal: rng.next_below(16),
                    factor: 2 + rng.next_below(7) as u32,
                }
            } else if roll < 85 {
                FaultKind::VaultStall {
                    hmc: rng.next_below(64),
                    vault: rng.next_below(64),
                    stall_tcks: 64 + rng.next_below(4033),
                }
            } else {
                let gpu = rng.next_below(n_gpus.max(1) as u64);
                if lost_gpus.len() + 1 >= n_gpus || lost_gpus.contains(&gpu) {
                    // Would kill the last survivor (or re-kill): degrade a
                    // link instead so the event count stays as asked.
                    FaultKind::LinkDegrade {
                        class: LinkTag::FAULTABLE[rng.next_below(4) as usize],
                        ordinal: rng.next_below(16),
                        factor: 2 + rng.next_below(7) as u32,
                    }
                } else {
                    lost_gpus.push(gpu);
                    FaultKind::GpuLoss { gpu }
                }
            };
            plan.push(at_fs, kind);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_sorted_by_time() {
        let mut p = FaultPlan::new();
        p.push(30, FaultKind::GpuLoss { gpu: 1 });
        p.push(10, FaultKind::GpuLoss { gpu: 0 });
        p.push(
            20,
            FaultKind::VaultStall {
                hmc: 0,
                vault: 0,
                stall_tcks: 64,
            },
        );
        let times: Vec<Fs> = p.events().iter().map(|e| e.at_fs).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn same_timestamp_keeps_insertion_order() {
        let mut p = FaultPlan::new();
        p.push(5, FaultKind::GpuLoss { gpu: 7 });
        p.push(5, FaultKind::GpuLoss { gpu: 8 });
        assert_eq!(p.events()[0].kind, FaultKind::GpuLoss { gpu: 7 });
        assert_eq!(p.events()[1].kind, FaultKind::GpuLoss { gpu: 8 });
    }

    #[test]
    fn random_plans_are_deterministic() {
        let a = FaultPlan::random(42, 20, 4, 1_000_000_000);
        let b = FaultPlan::random(42, 20, 4, 1_000_000_000);
        assert_eq!(a, b);
        let c = FaultPlan::random(43, 20, 4, 1_000_000_000);
        assert_ne!(a, c);
    }

    #[test]
    fn random_plans_spare_at_least_one_gpu() {
        for seed in 0..50 {
            for n_gpus in 1..=4usize {
                let p = FaultPlan::random(seed, 32, n_gpus, 1_000_000_000);
                let lost: std::collections::BTreeSet<u64> = p
                    .events()
                    .iter()
                    .filter_map(|e| match e.kind {
                        FaultKind::GpuLoss { gpu } => Some(gpu),
                        _ => None,
                    })
                    .collect();
                assert!(lost.len() < n_gpus, "seed {seed}: all {n_gpus} GPUs lost");
            }
        }
    }

    #[test]
    fn link_class_names_round_trip() {
        for c in LinkTag::FAULTABLE {
            assert_eq!(LinkTag::parse(c.name()), Some(c));
        }
        assert_eq!(LinkTag::parse("bogus"), None);
        assert_eq!(LinkTag::parse("internal"), None, "no fault targets it");
    }
}

//! Fig. 12 — bidirectional HMC-HMC channel counts: dFBFLY vs. sFBFLY.
//!
//! The paper reports the sliced flattened butterfly removes **50 %** of the
//! memory-network channels for a 4-GPU system and **43 %** for 8 GPUs,
//! because no intra-cluster path diversity is needed. The counts here are
//! derived from the actual constructed network graphs; max router radix is
//! shown to illustrate the scalability claim (HMCs have 8 channels).

use crate::{ensure, find, Size};
use memnet_noc::topo::{build_clusters, SlicedKind, TopologyKind};
use memnet_noc::{LinkTag, NetworkBuilder, NocParams};

memnet_obs::to_json_struct! {
    pub struct Row {
        pub gpus: usize,
        pub dfbfly_channels: usize,
        pub sfbfly_channels: usize,
        pub reduction_pct: f64,
        pub dfbfly_max_radix: usize,
        pub sfbfly_max_radix: usize,
    }
}

fn count(n: usize, kind: TopologyKind) -> (usize, usize) {
    let mut b = NetworkBuilder::new(NocParams::default());
    let _ = build_clusters(&mut b, n, 4, 8, kind);
    (b.count_links(LinkTag::HmcHmc), b.max_radix())
}

/// Channel counts and radix at 2, 4, 8 and 16 GPUs; graphs only, so the
/// same at every size.
pub fn run(_size: Size) -> Vec<Row> {
    let sf = crate::sliced(SlicedKind::Fbfly, false);
    [2usize, 4, 8, 16]
        .into_iter()
        .map(|gpus| {
            let (d, dr) = count(gpus, TopologyKind::DistributorFbfly);
            let (s, sr) = count(gpus, sf);
            Row {
                gpus,
                dfbfly_channels: d,
                sfbfly_channels: s,
                reduction_pct: 100.0 * (1.0 - s as f64 / d as f64),
                dfbfly_max_radix: dr,
                sfbfly_max_radix: sr,
            }
        })
        .collect()
}

/// Prints the counts per GPU count.
pub fn print(rows: &[Row]) {
    let title = "Fig. 12: memory-network channel count, dFBFLY vs sFBFLY (4 HMCs/GPU)";
    crate::table(title, rows, &["paper: -50% at 4 GPUs, -43% at 8 GPUs"]);
}

/// Fig. 12's bands: the paper's reductions, exactly.
pub fn check(rows: &[Row], _size: Size) -> Result<(), String> {
    let r4 = find(rows, "4-GPU", |r| r.gpus == 4)?;
    let r8 = find(rows, "8-GPU", |r| r.gpus == 8)?;
    let (d4, s4, pct4) = (r4.dfbfly_channels, r4.sfbfly_channels, r4.reduction_pct);
    let (d8, s8, pct8) = (r8.dfbfly_channels, r8.sfbfly_channels, r8.reduction_pct);
    ensure!(d4 == 2 * s4, "4 GPUs: {d4} vs {s4} channels");
    ensure!((pct4 - 50.0).abs() < 0.1, "4 GPUs: {pct4:.2}%");
    let red8 = 1.0 - s8 as f64 / d8 as f64;
    ensure!((red8 - 0.43).abs() < 0.01, "8 GPUs: {red8:.3}");
    ensure!((pct8 - 42.86).abs() < 0.1, "8 GPUs: {pct8:.2}%");
    Ok(())
}

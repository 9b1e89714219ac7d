//! Fig. 12 — bidirectional HMC-HMC channel counts: dFBFLY vs. sFBFLY.
//!
//! The paper reports the sliced flattened butterfly removes **50 %** of the
//! memory-network channels for a 4-GPU system and **43 %** for 8 GPUs,
//! because no intra-cluster path diversity is needed. The counts here are
//! derived from the actual constructed network graphs; max router radix is
//! shown to illustrate the scalability claim (HMCs have 8 channels).

use memnet_noc::topo::{build_clusters, SlicedKind, TopologyKind};
use memnet_noc::{LinkTag, NetworkBuilder, NocParams};

memnet_obs::to_json_struct! {
    struct Row {
        gpus: usize,
        dfbfly_channels: usize,
        sfbfly_channels: usize,
        reduction_pct: f64,
        dfbfly_max_radix: usize,
        sfbfly_max_radix: usize,
    }
}

fn count(n: usize, kind: TopologyKind) -> (usize, usize) {
    let mut b = NetworkBuilder::new(NocParams::default());
    let _ = build_clusters(&mut b, n, 4, 8, kind);
    (b.count_links(LinkTag::HmcHmc), b.max_radix())
}

fn main() {
    memnet_bench::header("Fig. 12: memory-network channel count, dFBFLY vs sFBFLY (4 HMCs/GPU)");
    let sf = TopologyKind::Sliced {
        kind: SlicedKind::Fbfly,
        double: false,
    };
    let mut rows = Vec::new();
    println!("  GPUs   dFBFLY   sFBFLY   removed   max radix (d/s)");
    for gpus in [2usize, 4, 8, 16] {
        let (d, dr) = count(gpus, TopologyKind::DistributorFbfly);
        let (s, sr) = count(gpus, sf);
        let red = 100.0 * (1.0 - s as f64 / d as f64);
        println!("  {gpus:>4}   {d:>6}   {s:>6}   {red:>6.1}%   {dr}/{sr}");
        rows.push(Row {
            gpus,
            dfbfly_channels: d,
            sfbfly_channels: s,
            reduction_pct: red,
            dfbfly_max_radix: dr,
            sfbfly_max_radix: sr,
        });
    }
    println!("  paper: -50% at 4 GPUs, -43% at 8 GPUs");
    let r4 = rows.iter().find(|r| r.gpus == 4).expect("4-GPU row");
    let r8 = rows.iter().find(|r| r.gpus == 8).expect("8-GPU row");
    assert!(
        (r4.reduction_pct - 50.0).abs() < 0.1,
        "4-GPU reduction must be 50%"
    );
    assert!(
        (r8.reduction_pct - 42.86).abs() < 0.1,
        "8-GPU reduction must be ~43%"
    );
    println!("  [check] measured reductions match the paper exactly");
    memnet_bench::write_json("fig12_channels", &rows);
}

//! Fig. 15 — minimal (MIN) vs. load-balanced (UGAL) routing on the
//! distributor-based dragonfly and flattened butterfly.
//!
//! Paper: adaptive routing gains only ~1–2 % for balanced workloads
//! (KMN, CP) because random traffic self-balances; CG.S gains **9.5 %** on
//! dFBFLY because its traffic is imbalanced (Fig. 10(b)).

use crate::{ensure, Size};
use memnet_core::Organization;
use memnet_noc::topo::TopologyKind;
use memnet_noc::RoutingPolicy;
use memnet_workloads::Workload;

memnet_obs::to_json_struct! {
    pub struct Row {
        pub workload: &'static str,
        pub topology: &'static str,
        pub min_kernel_ns: f64,
        pub ugal_kernel_ns: f64,
        pub ugal_gain_pct: f64,
        pub nonminimal_packets: u64,
    }
}

/// KMN, CP and CG.S on both distributor fabrics under both routings; the
/// test size runs KMN and CG.S.
pub fn run(size: Size) -> Vec<Row> {
    use Workload::{CgS, Cp, Kmn};
    let topos = [
        TopologyKind::DistributorDfly,
        TopologyKind::DistributorFbfly,
    ];
    let workloads = size.pick(vec![Kmn, CgS], vec![Kmn, Cp, CgS]);
    let routings = [RoutingPolicy::Minimal, RoutingPolicy::Ugal];
    let dims = [workloads.len(), topos.len(), routings.len()];
    let reports = crate::grid(dims, |[wi, ti, ri]| {
        (size.builder(Organization::Gmn, workloads[wi]))
            .topology(topos[ti])
            .routing(routings[ri])
    });
    let mut rows = Vec::new();
    for (wi, w) in workloads.into_iter().enumerate() {
        for (ti, topo) in topos.into_iter().enumerate() {
            let (min, ugal) = (&reports[[wi, ti, 0]], &reports[[wi, ti, 1]]);
            rows.push(Row {
                workload: w.abbr(),
                topology: topo.name(),
                min_kernel_ns: min.kernel_ns,
                ugal_kernel_ns: ugal.kernel_ns,
                ugal_gain_pct: 100.0 * (min.kernel_ns / ugal.kernel_ns - 1.0),
                nonminimal_packets: ugal.nonminimal,
            });
        }
    }
    rows
}

/// Prints MIN and UGAL kernel times and the gain per (workload, fabric).
pub fn print(rows: &[Row]) {
    let title = "Fig. 15: MIN vs UGAL on dDFLY and dFBFLY (GMN kernel time)";
    crate::table(
        title,
        rows,
        &["paper: ~1-2% for KMN/CP; +9.5% for CG.S on dFBFLY"],
    );
}

/// Fig. 15's band: UGAL gains under 3 % on dFBFLY, whose random traffic
/// self-balances. That includes CG.S (Known deviation 3: its scaled-down
/// traffic never congests dFBFLY, so the paper's 9.5 % does not appear).
pub fn check(rows: &[Row], _size: Size) -> Result<(), String> {
    for r in rows.iter().filter(|r| r.topology == "dFBFLY") {
        let (w, gain) = (r.workload, r.ugal_gain_pct);
        ensure!(gain < 3.0, "{w} dFBFLY: UGAL {gain:.1}%");
    }
    Ok(())
}

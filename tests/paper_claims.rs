//! The paper's shape claims at the test size: each figure of the bench
//! harness (`crates/bench/src/`, one module per figure) runs small and is
//! held to its own `check`. The bench targets run the same functions at
//! the larger sizes, so every claim is stated once. The Fig. 7(b) test
//! below also runs its two cases on their own, as a direct regression of
//! that claim.

use memnet::sim::{Organization, SimBuilder};
use memnet::workloads::Workload;
use memnet_bench::Size;

/// One test per figure, named for its headline claim where it has one:
/// the figure's runs at [`Size::Test`], then its bands.
macro_rules! figures {
    ($($fig:ident => $test:ident),+ $(,)?) => {$(
        #[test]
        fn $test() {
            let rows = memnet_bench::$fig::run(Size::Test);
            if let Err(why) = memnet_bench::$fig::check(&rows, Size::Test) {
                panic!("{why}");
            }
        }
    )+};
}

figures! {
    table1 => table1,
    fig07_remote_access => fig7a_pcie_remote_access_is_costly,
    fig10_traffic => fig10_cgs_is_more_imbalanced_than_kmn,
    fig12_channels => fig12_channel_reductions_match_paper,
    fig14_orgs => fig14_zero_copy_crossover,
    fig15_adaptive => fig15_adaptive,
    fig16_topology => fig16_17_sfbfly_beats_smesh,
    fig18_overlay => fig18_overlay,
    fig19_scaling => fig19_scaling,
    ablation_cta_sched => sec3b_static_assignment_has_better_locality_than_round_robin,
    ablation_pcn => ablation_pcn,
    ablation_placement => ablation_placement,
    noc_loadlatency => noc_loadlatency,
    fault_resilience => fault_resilience,
}

/// Fig. 7(b): on a memory network, distributing data does not hurt —
/// added memory parallelism compensates for extra hops.
#[test]
fn fig7b_memory_network_tolerates_remote_data() {
    let run = |clusters: Vec<u32>| {
        SimBuilder::new(Organization::Gmn)
            .gpus(4)
            .sms_per_gpu(2)
            .workload(Workload::VecAdd.spec_small())
            .active_gpus(1)
            .data_clusters(clusters)
            .run()
    };
    let local = run(vec![0]);
    let spread = run(vec![0, 1]);
    assert!(!local.timed_out && !spread.timed_out);
    assert!(
        spread.kernel_ns < 1.3 * local.kernel_ns,
        "50% remote on GMN must not degrade much: {} vs {}",
        spread.kernel_ns,
        local.kernel_ns
    );
}

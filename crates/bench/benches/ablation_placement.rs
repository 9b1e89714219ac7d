//! Extension — page placement policy (`memnet_bench::ablation_placement`).

memnet_bench::bench_main!(ablation_placement);

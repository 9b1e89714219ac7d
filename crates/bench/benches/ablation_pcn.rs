//! Extension — memory-centric vs processor-centric networks (`memnet_bench::ablation_pcn`).

memnet_bench::bench_main!(ablation_pcn);

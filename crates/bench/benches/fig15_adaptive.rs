//! Fig. 15 — MIN vs UGAL routing (`memnet_bench::fig15_adaptive`).

memnet_bench::bench_main!(fig15_adaptive);

//! Fig. 19 — kernel speedup vs GPU count (`memnet_bench::fig19_scaling`).

memnet_bench::bench_main!(fig19_scaling);

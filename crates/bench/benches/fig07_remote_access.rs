//! Fig. 7 — cost of remote memory access for vectorAdd (`memnet_bench::fig07_remote_access`).

memnet_bench::bench_main!(fig07_remote_access);

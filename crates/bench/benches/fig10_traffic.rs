//! Fig. 10 — GPU×HMC traffic distribution (`memnet_bench::fig10_traffic`).

memnet_bench::bench_main!(fig10_traffic);

//! Fig. 12 — HMC-HMC channel counts, dFBFLY vs sFBFLY (`memnet_bench::fig12_channels`).

memnet_bench::bench_main!(fig12_channels);

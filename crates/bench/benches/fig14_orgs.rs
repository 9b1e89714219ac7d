//! Fig. 14 — runtime breakdown across multi-GPU organizations (`memnet_bench::fig14_orgs`).

memnet_bench::bench_main!(fig14_orgs);

//! Fig. 18 — host-thread performance under the UMN designs (`memnet_bench::fig18_overlay`).

memnet_bench::bench_main!(fig18_overlay);

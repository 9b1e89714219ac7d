//! Extension — load–latency curves of the topologies (`memnet_bench::noc_loadlatency`).

memnet_bench::bench_main!(noc_loadlatency);

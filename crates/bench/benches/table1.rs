//! Table I — system configuration (`memnet_bench::table1`).

memnet_bench::bench_main!(table1);

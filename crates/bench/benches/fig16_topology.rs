//! Figs. 16 and 17 — kernel time and network energy of the sliced
//! topologies: one sweep over `memnet_bench::fig16_topology`, printed once
//! and written as both figures' artifacts.

memnet_bench::bench_main!(fig16_topology, "fig17_energy" => memnet_bench::fig16_topology::energy);

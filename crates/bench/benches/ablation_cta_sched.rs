//! Section III-B ablation — CTA assignment policies (`memnet_bench::ablation_cta_sched`).

memnet_bench::bench_main!(ablation_cta_sched);

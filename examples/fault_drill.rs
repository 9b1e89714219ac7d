//! Fault drill: inject a deterministic failure plan — a degraded link, a
//! cut trunk, a stalled vault and a lost GPU — into one run and compare
//! it against the clean baseline.
//!
//! ```sh
//! cargo run --release --example fault_drill
//! ```
//!
//! The same plan also round-trips through the JSON format accepted by
//! `memnet run --faults plan.json`.

use memnet::common::time::ns_to_fs;
use memnet::common::{FaultKind, FaultPlan, LinkTag};
use memnet::sim::{plan_from_json, plan_to_json, Organization, SimBuilder};
use memnet::workloads::Workload;

fn builder() -> SimBuilder {
    SimBuilder::new(Organization::Umn)
        .gpus(2)
        .sms_per_gpu(4)
        .workload(Workload::Kmn.spec_small())
}

fn main() {
    let mut plan = FaultPlan::new();
    plan.push(
        ns_to_fs(10.0),
        FaultKind::LinkDegrade {
            class: LinkTag::HmcHmc,
            ordinal: 2,
            factor: 4,
        },
    );
    plan.push(
        ns_to_fs(25.0),
        FaultKind::LinkDown {
            class: LinkTag::HmcHmc,
            ordinal: 0,
        },
    );
    plan.push(
        ns_to_fs(40.0),
        FaultKind::VaultStall {
            hmc: 1,
            vault: 5,
            stall_tcks: 2_000,
        },
    );
    plan.push(ns_to_fs(60.0), FaultKind::GpuLoss { gpu: 1 });

    // The plan is plain data: it serializes to the JSON the CLI accepts.
    let json = plan_to_json(&plan);
    assert_eq!(plan_from_json(&json).expect("round trip"), plan);
    println!("fault plan ({} events):\n{json}\n", plan.events().len());

    let clean = builder().run();
    let drill = builder().faults(plan).run();

    println!("                 {:>12}  {:>12}", "clean", "faulted");
    println!(
        "kernel time      {:>10.1} ns {:>10.1} ns  ({:.2}x)",
        clean.kernel_ns,
        drill.kernel_ns,
        drill.kernel_ns / clean.kernel_ns
    );
    println!(
        "pkt latency      {:>10.1} ns {:>10.1} ns",
        clean.avg_pkt_latency_ns, drill.avg_pkt_latency_ns
    );
    println!();
    println!("faults injected  : {}", drill.faults_injected);
    println!("faults skipped   : {}", drill.faults_skipped);
    println!("reroutes         : {}", drill.reroutes);
    println!("retries          : {}", drill.retries);
    println!("dead letters     : {}", drill.dead_letters);
    println!("failed requests  : {}", drill.failed_requests);
    println!("GPUs lost        : {}", drill.lost_gpus);
    println!("CTAs rebalanced  : {}", drill.rebalanced_ctas);
    for (i, g) in drill.per_gpu.iter().enumerate() {
        println!("  GPU{i}: {} CTAs retired", g.ctas_done);
    }

    assert!(!drill.timed_out, "faulted run must still complete");
    assert_eq!(drill.lost_gpus, 1);
    assert!(
        drill.kernel_ns >= clean.kernel_ns,
        "losing half the machine cannot speed the kernel up"
    );
}

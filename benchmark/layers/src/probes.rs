//! The per-layer probes: each one times calls into one public function of
//! one crate, after a warm-up, as the median of [`BATCHES`] batches, and
//! records a span around every batch.
//!
//! Traffic and request inputs are fixed (not taken from `--seed`), so the
//! model counts the probes report — `noc.accepted_load`,
//! `noc.latency_cycles_mean` — are identical in every run of one commit.

use crate::{load_point, sfbfly8};
use bench_common::host::max_threads;
use bench_common::json::Json;
use bench_common::spans::Spans;
use bench_common::stats::median;
use memnet_common::{AccessKind, Agent, Clock, GpuId, MemReq, Payload, ReqId, SystemConfig};
use memnet_core::{Organization, SimBuilder};
use memnet_engine::{run_jobs, Calendar, PoolConfig};
use memnet_gpu::kernel::StreamKernel;
use memnet_gpu::{Cache, Gpu};
use memnet_hmc::{AddressMap, HmcDevice, Vault};
use memnet_noc::MsgClass;
use memnet_serve::{JobSpec, ResultCache, ServeConfig, Server};
use memnet_workloads::Workload;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 7;
const LAYER: &str = "layers";

struct Probes {
    spans: Spans,
    metrics: Vec<(String, Json)>,
    /// Divides every iteration count (`--smoke`).
    shrink: u64,
}

impl Probes {
    fn iters(&self, n: u64) -> u64 {
        (n / self.shrink).max(1)
    }

    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), Json::Num(value)));
    }

    /// Median over the batches of `batch()`, which returns (elapsed ns,
    /// operations); one untimed batch first. Reports ns per operation.
    fn per_op(&mut self, name: &str, mut batch: impl FnMut() -> (u64, u64)) -> f64 {
        batch();
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let start = self.spans.now_ns();
                let (ns, ops) = batch();
                self.spans.add(name, LAYER, start, self.spans.now_ns());
                ns as f64 / ops.max(1) as f64
            })
            .collect();
        median(&samples)
    }

    /// `f` called `iters` times per batch, timed as a whole.
    fn looped(&mut self, name: &str, iters: u64, mut f: impl FnMut()) -> f64 {
        let iters = self.iters(iters);
        self.per_op(name, || {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            (t.elapsed().as_nanos() as u64, iters)
        })
    }
}

fn read_req(i: u64) -> MemReq {
    MemReq {
        id: ReqId(i),
        addr: i * 128,
        bytes: 128,
        kind: AccessKind::Read,
        src: Agent::Gpu(GpuId((i % 8) as u16)),
    }
}

/// ns between `t` and now.
fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn noc(p: &mut Probes) {
    let v = p.looped("noc.build_us", 40, || {
        black_box(sfbfly8());
    });
    p.put("noc.build_us", v / 1e3);

    let (mut net, clusters) = sfbfly8();
    let v = p.looped("noc.tick_idle_ns", 40_000, || net.tick());
    p.put("noc.tick_idle_ns", v);

    // Offered 0.02 packets/endpoint/cycle is the lightly loaded fabric of
    // the kernel-only reference run; 0.8 is past saturation.
    let cycles = p.iters(40_000);
    let v = p.per_op("noc.tick_light_ns", || {
        let t = Instant::now();
        let (_, _, c) = load_point(0.02, 0, cycles, 1);
        (since(t), c)
    });
    p.put("noc.tick_light_ns", v);

    let cycles = p.iters(20_000);
    let mut last = None;
    let mut per_hop = Vec::new();
    let v = p.per_op("noc.tick_saturated_ns", || {
        let t = Instant::now();
        let (point, hops, c) = load_point(0.8, cycles / 10, cycles, 1);
        let ns = since(t);
        per_hop.push(ns as f64 / hops.max(1) as f64);
        last = Some(point);
        (ns, c)
    });
    p.put("noc.tick_saturated_ns", v);
    // The first entry is the untimed warm-up batch.
    p.put("noc.ns_per_flit_hop_saturated", median(&per_hop[1..]));
    let point = last.expect("at least one batch ran");
    p.put("noc.accepted_load", point.accepted);
    p.put("noc.latency_cycles_mean", point.latency.mean());

    // Injection and ejection: a round injects one packet per GPU (timed),
    // lets the fabric deliver them (untimed), then polls every HMC
    // endpoint until empty (timed).
    let (mut net, _) = sfbfly8();
    let dests = clusters.hmc_eps_flat();
    let rounds = p.iters(2_000);
    let mut next = 0u64;
    let mut polls = (0u64, 0u64);
    let v = p.per_op("noc.inject_ns", || {
        let (mut inject_ns, mut injected) = (0, 0);
        polls = (0, 0);
        for _ in 0..rounds {
            let t = Instant::now();
            for &src in &clusters.device_eps {
                if net.inject_ready(src) {
                    next += 1;
                    let dst = dests[(next % dests.len() as u64) as usize];
                    net.inject(src, dst, MsgClass::Req, Payload::Req(read_req(next)), false);
                    injected += 1;
                }
            }
            inject_ns += since(t);
            for _ in 0..64 {
                net.tick();
            }
            let t = Instant::now();
            for &d in &dests {
                polls.1 += 1;
                while black_box(net.poll_eject(d)).is_some() {
                    polls.1 += 1;
                }
            }
            polls.0 += since(t);
        }
        (inject_ns, injected)
    });
    p.put("noc.inject_ns", v);
    // Poll cost of the last batch (every batch does the same work).
    p.put("noc.poll_eject_ns", polls.0 as f64 / polls.1.max(1) as f64);
}

fn gpu(p: &mut Probes) {
    let cfg = SystemConfig::paper().gpu;
    let mut l1 = Cache::new(&cfg.l1);
    for i in 0..256u64 {
        l1.fill(i * 128);
    }
    let mut i = 0u64;
    let v = p.looped("gpu.l1_probe_ns", 400_000, || {
        i += 1;
        black_box(l1.read((i % 512) * 128));
    });
    p.put("gpu.l1_probe_ns", v);

    // One GPU with a flat-latency memory looped back behind it; core and
    // L2 ticks are timed call by call because they interleave (the L2 runs
    // at half the core clock).
    let ticks = p.iters(20_000);
    let kernel = || {
        Arc::new(StreamKernel {
            ctas: 4096,
            rounds: 64,
            gap: 4,
        })
    };
    let mut l2_ns_per_tick = Vec::new();
    let v = p.per_op("gpu.tick_core_busy_ns", || {
        let mut g = Gpu::new(GpuId(0), &cfg);
        g.launch(kernel(), 0..4096);
        let mut pending: VecDeque<(u64, MemReq)> = VecDeque::new();
        let (mut core_ns, mut l2_ns, mut l2_ticks) = (0u64, 0u64, 0u64);
        for now in 0..ticks {
            let t = Instant::now();
            g.tick_core();
            core_ns += since(t);
            if now % 2 == 0 {
                let t = Instant::now();
                g.tick_l2();
                l2_ns += since(t);
                l2_ticks += 1;
            }
            while let Some(r) = g.pop_mem_request() {
                pending.push_back((now + 100, r));
            }
            while pending.front().is_some_and(|&(due, _)| due <= now) {
                let (_, r) = pending.pop_front().expect("front checked");
                if r.kind != AccessKind::Write {
                    g.push_mem_response(r.response());
                }
            }
        }
        assert!(g.busy(), "the busy probe must not run out of CTAs");
        l2_ns_per_tick.push(l2_ns as f64 / l2_ticks.max(1) as f64);
        (core_ns, ticks)
    });
    p.put("gpu.tick_core_busy_ns", v);
    p.put("gpu.tick_l2_ns", median(&l2_ns_per_tick[1..]));

    // Every SM stalled on memory that never answers: the ticks an SM wake
    // cycle would skip.
    let mut g = Gpu::new(GpuId(0), &cfg);
    g.launch(kernel(), 0..4096);
    for now in 0..4_000u64 {
        g.tick_core();
        if now % 2 == 0 {
            g.tick_l2();
        }
        while g.pop_mem_request().is_some() {}
    }
    let v = p.looped("gpu.tick_core_idle_ns", 20_000, || g.tick_core());
    assert!(
        g.busy() && !g.has_mem_request(),
        "the idle probe's SMs must all be waiting"
    );
    p.put("gpu.tick_core_idle_ns", v);
}

fn hmc(p: &mut Probes) {
    let cfg = SystemConfig::paper().hmc;
    // The same FR-FCFS scan fed two ways: one open row per bank (every
    // access a row hit), or a new row on every access to a bank (every
    // access a conflict).
    for (name, conflict) in [
        ("hmc.vault_tick_hit_ns", false),
        ("hmc.vault_tick_conflict_ns", true),
    ] {
        let mut vault = Vault::new(&cfg);
        let (mut now, mut i) = (0u64, 0u64);
        let v = p.looped(name, 100_000, || {
            if vault.can_accept() {
                let row = if conflict { i } else { 0 };
                vault
                    .try_enqueue(read_req(i), (i % 16) as u32, row)
                    .expect("space checked");
                i += 1;
            }
            black_box(vault.tick(now));
            now += 1;
        });
        p.put(name, v);
    }

    let mut device = HmcDevice::new(&cfg);
    let mut now = 0u64;
    let v = p.looped("hmc.device_tick_idle_ns", 100_000, || {
        device.tick(now);
        now += 1;
    });
    p.put("hmc.device_tick_idle_ns", v);

    let map = AddressMap::new(&SystemConfig::paper());
    let mut a = 0u64;
    let v = p.looped("hmc.decode_ns", 400_000, || {
        a = a.wrapping_add(0x9E37_79B9);
        black_box(map.decode(a & ((1 << 40) - 1)));
    });
    p.put("hmc.decode_ns", v);
}

fn engine(p: &mut Probes) {
    // The driver loop's calendar work for one timestep over the five
    // Table I clock domains: find the earliest edge, tick what is due.
    let cfg = SystemConfig::paper();
    let mut cal = Calendar::new(vec![
        Clock::from_freq_mhz(cfg.gpu.core_mhz),
        Clock::from_freq_mhz(cfg.gpu.l2_mhz),
        Clock::from_freq_mhz(cfg.cpu.freq_mhz),
        Clock::from_freq_mhz(cfg.noc.router_mhz),
        Clock::new(memnet_common::time::ns_to_fs(cfg.hmc.tck_ns)),
    ]);
    let v = p.looped("engine.calendar_step_ns", 400_000, || {
        let now = cal.earliest().expect("no domain is parked");
        for d in 0..cal.len() {
            if cal.due(d, now) {
                cal.advance(d);
            }
        }
    });
    p.put("engine.calendar_step_ns", v);

    let pool = PoolConfig {
        workers: max_threads(),
        ..PoolConfig::default()
    };
    let jobs = p.iters(1_000);
    let v = p.per_op("engine.pool_job_overhead_us", || {
        let t = Instant::now();
        let out = run_jobs(&pool, (0..jobs).map(|i| move || i).collect());
        assert!(out.iter().all(Result::is_ok), "no-op jobs cannot fail");
        (since(t), jobs)
    });
    p.put("engine.pool_job_overhead_us", v / 1e3);
}

/// The smallest whole simulation: VECADD `small` on 2 GPUs × 2 SMs.
fn min_builder() -> SimBuilder {
    SimBuilder::new(Organization::Umn)
        .gpus(2)
        .sms_per_gpu(2)
        .workload(Workload::VecAdd.spec_small())
}

fn core(p: &mut Probes) {
    let v = p.looped("core.min_run_ms", 1, || {
        black_box(min_builder().try_run().expect("the minimal run is valid"));
    });
    p.put("core.min_run_ms", v / 1e6);

    let mut snapshot = None;
    let v = p.looped("core.checkpoint_ms", 1, || {
        snapshot = Some(
            min_builder()
                .try_run_checkpointed("bench-layers")
                .expect("the minimal run checkpoints"),
        );
    });
    p.put("core.checkpoint_ms", v / 1e6);
    let (report, snapshot) = snapshot.expect("at least one batch ran");

    let v = p.looped("core.restore_run_ms", 1, || {
        let restored = min_builder()
            .try_run_restored(&snapshot)
            .expect("the snapshot restores onto its own configuration");
        assert_eq!(
            restored.to_json_compact(),
            report.to_json_compact(),
            "a restored run must reproduce the straight run"
        );
    });
    p.put("core.restore_run_ms", v / 1e6);

    let v = p.looped("core.report_json_us", 2_000, || {
        black_box(report.to_json_compact());
    });
    p.put("core.report_json_us", v / 1e3);

    let builder = min_builder();
    let v = p.looped("core.fingerprint_us", 2_000, || {
        black_box(builder.fingerprint());
    });
    p.put("core.fingerprint_us", v / 1e3);

    // obs::json on the largest document the workspace writes itself.
    let text = snapshot.to_json_string();
    let mb = text.len() as f64 / 1e6;
    let iters = (4_000_000 / text.len() as u64).max(1);
    let v = p.looped("obs.json_parse_mb_s", iters, || {
        black_box(memnet_obs::parse(&text).expect("the snapshot is valid JSON"));
    });
    p.put("obs.json_parse_mb_s", mb / (v / 1e9));
    let doc = memnet_obs::parse(&text).expect("the snapshot is valid JSON");
    let v = p.looped("obs.json_write_mb_s", iters, || {
        let mut w = memnet_obs::JsonWriter::new();
        w.value(&doc);
        black_box(w.finish());
    });
    p.put("obs.json_write_mb_s", mb / (v / 1e9));
}

fn wdl(p: &mut Probes) {
    let spec = Workload::Kmn.spec_small();
    let text = memnet_wdl::spec_to_json(&spec);
    let v = p.looped("wdl.parse_us", 2_000, || {
        black_box(memnet_wdl::spec_from_json(&text).expect("an exported model parses"));
    });
    p.put("wdl.parse_us", v / 1e3);
    let v = p.looped("wdl.export_us", 2_000, || {
        black_box(memnet_wdl::spec_to_json(&spec));
    });
    p.put("wdl.export_us", v / 1e3);
}

fn serve(p: &mut Probes) {
    const PARAMS: &str = r#"{"org":"gmn","workload":"vecadd","small":true,"gpus":2,"sms":2}"#;
    let by_name = format!(r#"{{"id":1,"method":"run","params":{PARAMS}}}"#);
    // The same job with the workload sent as an inline model object.
    let model: String = memnet_wdl::spec_to_json(&Workload::VecAdd.spec_small())
        .lines()
        .map(str::trim)
        .collect();
    let by_model = format!(
        r#"{{"id":2,"method":"run","params":{{"org":"gmn","model":{model},"gpus":2,"sms":2}}}}"#
    );
    let bad = r#"{"id":3,"method":"run","params":{"org":"gmn","gpu":2}}"#;

    let mut server = Server::new(&ServeConfig {
        cache_capacity: 64,
        workers: max_threads(),
        retries: 0,
    });
    let cold = server.handle_line(&by_name).text;
    assert!(
        cold.contains("\"cached\":false"),
        "first request runs: {cold}"
    );
    for (name, line, want) in [
        ("serve.handle_hit_ns", by_name.as_str(), "\"cached\":true"),
        (
            "serve.handle_hit_model_ns",
            by_model.as_str(),
            "\"cached\":true",
        ),
        ("serve.handle_error_ns", bad, "\"error\""),
    ] {
        let v = p.looped(name, 4_000, || {
            let reply = server.handle_line(line);
            assert!(reply.text.contains(want), "{name}: {}", reply.text);
        });
        p.put(name, v);
    }

    let params = memnet_obs::parse(PARAMS).expect("literal params parse");
    let v = p.looped("serve.jobspec_parse_ns", 4_000, || {
        let spec = JobSpec::from_json(&params).expect("literal params are a valid job");
        black_box(spec.fingerprint());
    });
    p.put("serve.jobspec_parse_ns", v);

    // A full cache, read and written: `get` over resident keys, then
    // `insert` of new keys, each of which evicts.
    let report = cold;
    let mut cache = ResultCache::new(64);
    for k in 0..64u64 {
        cache.insert(k, report.clone());
    }
    let mut k = 0u64;
    let v = p.looped("serve.cache_get_ns", 200_000, || {
        k += 1;
        black_box(cache.get(k % 64));
    });
    p.put("serve.cache_get_ns", v);
    let inserts = p.iters(20_000);
    let mut key = 64u64;
    let v = p.per_op("serve.cache_insert_evict_ns", || {
        let mut reports: Vec<String> = (0..inserts).map(|_| report.clone()).collect();
        let t = Instant::now();
        while let Some(r) = reports.pop() {
            key += 1;
            assert!(cache.insert(key, r), "a full cache evicts on insert");
        }
        (since(t), inserts)
    });
    p.put("serve.cache_insert_evict_ns", v);
}

/// Runs every probe; `smoke` shrinks iteration counts twentyfold.
pub fn run(smoke: bool) -> Json {
    let mut p = Probes {
        spans: Spans::new(),
        metrics: Vec::new(),
        shrink: if smoke { 20 } else { 1 },
    };
    for (layer, probe) in [
        ("noc", noc as fn(&mut Probes)),
        ("gpu", gpu),
        ("hmc", hmc),
        ("engine", engine),
        ("core+obs", core),
        ("wdl", wdl),
        ("serve", serve),
    ] {
        let id = p.spans.open(layer, LAYER);
        probe(&mut p);
        p.spans.close(id);
    }
    Json::obj([
        ("metrics", Json::Obj(p.metrics)),
        ("spans", p.spans.to_json()),
    ])
}

//! Seeded byte-level mutation of every outside input format.
//!
//! Each format's valid document is flipped, cut and padded a few bytes at
//! a time under a `SplitMix64` seed, then handed to the format's own
//! parser. The contract (ROADMAP, robustness bar; DESIGN, "Input formats:
//! one reader") is that the parser answers `Ok` or an error that says
//! something — it never panics, and never lets through a number it would
//! have had to round. A snapshot that parses is also restored and run.

use memnet::common::rng::SplitMix64;
use memnet::common::{FaultPlan, SystemConfig};
use memnet::noc::{NetworkBuilder, NocParams};
use memnet::obs::{JsonValue, ToJson, MAX_SAFE_INT};
use memnet::serve::JobSpec;
use memnet::sim::{
    plan_from_json, plan_to_json, Organization, SanitizeMode, SimBuilder, SimError, SystemSnapshot,
};
use memnet::wdl;
use memnet::workloads::Workload;

const SEEDS: u64 = 200;

/// One to three byte edits: a bit flip, a deletion, or an inserted byte
/// that means something to a JSON parser.
fn mutate(doc: &str, seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..=rng.next_below(3) {
        let at = rng.next_below(bytes.len() as u64) as usize;
        match rng.next_below(3) {
            0 => bytes[at] ^= 1 << rng.next_below(8),
            1 => drop(bytes.remove(at)),
            _ => {
                let alphabet = b"0123456789-+.eE\"\\{}[],: ntf";
                bytes.insert(at, alphabet[rng.next_below(alphabet.len() as u64) as usize]);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `parse` over every mutation of `doc`; returns the accepted values.
fn survive<T>(what: &str, doc: &str, parse: impl Fn(&str) -> Result<T, String>) -> Vec<T> {
    assert!(parse(doc).is_ok(), "{what}: the unmutated document parses");
    let (mut accepted, mut refused) = (Vec::new(), 0);
    for seed in 0..SEEDS {
        match parse(&mutate(doc, seed)) {
            Ok(v) => accepted.push(v),
            Err(e) => {
                assert!(!e.trim().is_empty(), "{what} seed {seed}: empty error");
                refused += 1;
            }
        }
    }
    assert!(refused > 0, "{what}: no mutation was refused in {SEEDS}");
    accepted
}

#[test]
fn mutated_workload_models_are_refused_or_valid() {
    let doc = wdl::spec_to_json(&Workload::CgS.spec_small());
    for spec in survive("wdl", &doc, wdl::spec_from_json) {
        wdl::validate_spec(&spec).expect("an accepted model is a valid one");
    }
}

#[test]
fn mutated_fault_plans_never_carry_an_unreachable_timestamp() {
    let doc = plan_to_json(&FaultPlan::random(7, 12, 4, 1_000_000_000));
    for plan in survive("fault plan", &doc, plan_from_json) {
        assert!(plan.events().iter().all(|e| e.at_fs <= MAX_SAFE_INT));
    }
}

#[test]
fn mutated_job_params_are_refused_or_in_range() {
    let doc = r#"{"org":"gmn","workload":"vecadd","small":true,"gpus":2,"sms":2,"topology":"dfbfly","routing":"ugal","cta":"stealing","overlay":false,"budget_ms":5.5,"chaos_seed":7,"engine":"cycle","sanitize":true}"#;
    let parse = |text: &str| {
        let params = memnet::obs::parse(text).map_err(|e| e.to_string())?;
        JobSpec::from_json(&params)
    };
    for spec in survive("job params", doc, parse) {
        spec.validate()
            .expect("an accepted job passed the validator");
    }
}

/// VecAdd after a warm CPU (host-pre is CG.S's host-post), so the CPU
/// caches' records hold rows. The caches are shrunk to 8 KiB, so hundreds
/// of restores stay well inside the tier-1 budget, and the phase budget
/// too, so a restored run a damaged value stalls ends quickly. The
/// sanitizer records, never panics: a run from a corrupted state may well
/// break a law.
fn snapshot_builder() -> SimBuilder {
    let mut cfg = SystemConfig::scaled();
    for cache in [&mut cfg.cpu.l1, &mut cfg.cpu.l2, &mut cfg.gpu.l2] {
        cache.size_bytes = 8 * 1024;
    }
    let mut spec = Workload::VecAdd.spec_small();
    spec.host_pre = Workload::CgS.spec_small().host_post;
    SimBuilder::new(Organization::Gmn)
        .config(cfg)
        .gpus(2)
        .sms_per_gpu(2)
        .phase_budget_ns(2e5)
        .sanitize(SanitizeMode::Record)
        .workload(spec)
}

#[test]
fn mutated_snapshots_are_refused_or_parse() {
    let builder = snapshot_builder;
    let (_, snap) = builder()
        .try_run_checkpointed("hostile_inputs")
        .expect("checkpoint");
    let mut ran = 0;
    for snap in survive(
        "snapshot",
        &snap.to_json_string(),
        SystemSnapshot::from_json,
    ) {
        // A report (`timed_out` allowed) or a typed refusal, never a panic.
        match builder().try_run_restored(&snap) {
            Ok(_) => ran += 1,
            Err(SimError::Snapshot(why)) => assert!(!why.trim().is_empty()),
            Err(e) => panic!("restoring a parsed snapshot: {e}"),
        }
    }
    assert!(ran > 0, "no parsed mutation restored and ran");
}

/// The `n`th distinct string leaf under `v`, with its key, counting `n`
/// down: the first element of an array stands for all of them, and each
/// cell of the first row of a flattened array for its column.
fn leaf<'a>(v: &'a mut JsonValue, key: &str, n: &mut usize) -> Option<(String, &'a mut JsonValue)> {
    if matches!(v, JsonValue::String(_)) {
        if *n == 0 {
            return Some((key.to_string(), v));
        }
        *n -= 1;
        return None;
    }
    match v {
        JsonValue::Object(members) => members.iter_mut().find_map(|(k, m)| leaf(m, k, n)),
        JsonValue::Array(items) => {
            let width = match key {
                "rows" => 4,
                "banks" | "channels" => 5,
                "page_table" => 2,
                _ => 1,
            };
            items.iter_mut().take(width).find_map(|x| leaf(x, key, n))
        }
        _ => None,
    }
}

#[test]
fn every_snapshot_leaf_at_the_integer_limits_is_refused_or_runs() {
    let (_, snap) = snapshot_builder()
        .try_run_checkpointed("hostile_inputs")
        .expect("checkpoint");
    let doc = memnet::obs::parse(&snap.to_json_string()).expect("a snapshot parses");
    let (mut ran, mut refused, mut rows) = (0, 0, 0);
    for value in [u64::MAX, MAX_SAFE_INT] {
        for n in 0.. {
            let mut bad = doc.clone();
            let Some((key, at)) = leaf(&mut bad, "", &mut { n }) else {
                break;
            };
            *at = JsonValue::String(value.to_string());
            // A report (`timed_out` allowed) or a refusal naming the
            // field, never a panic.
            let outcome = SystemSnapshot::from_json(&bad.to_json())
                .map_err(SimError::Snapshot)
                .and_then(|s| snapshot_builder().try_run_restored(&s));
            match outcome {
                Ok(_) => ran += 1,
                Err(SimError::Snapshot(why)) if why.contains(key.as_str()) => {
                    refused += 1;
                    rows += usize::from(key == "rows");
                }
                Err(e) => panic!("{key} = {value}: {e}"),
            }
        }
    }
    assert!(ran > 0 && refused > 80, "{ran} ran, {refused} refused");
    // Both CPU caches' first rows: the index at either limit, and the
    // tag, valid flag and LRU stamp at u64::MAX.
    assert!(rows >= 8, "{rows} cache-row cells refused");
}

/// The member `key` of object `v`, for editing.
fn member<'a>(v: &'a mut JsonValue, key: &str) -> Option<&'a mut JsonValue> {
    match v {
        JsonValue::Object(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, m)| m),
        _ => None,
    }
}

/// A page-table row whose virtual page lies in no declared region is one
/// first touch never makes. Restore refuses it naming the field, so a
/// snapshot cannot make the layout hold pages no access reaches.
#[test]
fn a_page_table_row_outside_every_region_is_refused() {
    let (_, snap) = snapshot_builder()
        .try_run_checkpointed("hostile_inputs")
        .expect("checkpoint");
    let mut doc = memnet::obs::parse(&snap.to_json_string()).expect("a snapshot parses");
    let table = member(&mut doc, "memory").and_then(|m| member(m, "page_table"));
    let Some(JsonValue::Array(rows)) = table else {
        panic!("the snapshot has a page table");
    };
    // Virtual page 2^27 lies between the device region at 0 and the host
    // region at 2^40 bytes; its physical page is the first row's.
    let ppage = rows[1].clone();
    rows.extend([JsonValue::String((1u64 << 27).to_string()), ppage]);
    let outcome = SystemSnapshot::from_json(&doc.to_json())
        .map_err(SimError::Snapshot)
        .and_then(|s| snapshot_builder().try_run_restored(&s));
    match outcome {
        Err(SimError::Snapshot(why)) => assert!(why.contains("page_table"), "{why}"),
        Ok(_) => panic!("a page outside every region was restored"),
        Err(e) => panic!("refused for another reason: {e}"),
    }
}

/// Systems the `u8` router-port and VC ids cannot address: a PCIe switch
/// or a PCN device router past 256 ports, and a sliced mesh whose
/// diameter needs more than 256 VCs per port. Each is refused, by the job
/// validator or the network build, naming `gpus`. Each runs on its own
/// thread under one 10 s deadline, so a system that hangs fails the test
/// instead of the suite.
#[test]
fn systems_past_the_u8_port_and_vc_ids_are_refused_in_time() {
    let rows = [
        r#""org":"pcie","gpus":256"#,
        r#""org":"gmn","gpus":256"#,
        r#""org":"umn","gpus":256"#,
        r#""org":"pcn","gpus":252"#,
        r#""org":"umn","topology":"smesh","gpus":250"#,
    ];
    // The refusal, or "ran" for a system that ran to the end.
    let refusal = |row: &str| -> String {
        let params = format!(r#"{{"workload":"vecadd","small":true,"sms":1,{row}}}"#);
        let run = || -> Result<_, String> {
            let params = memnet::obs::parse(&params).map_err(|e| e.to_string())?;
            let spec = JobSpec::from_json(&params)?;
            spec.builder().try_run().map_err(|e| e.to_string())
        };
        run().err().unwrap_or_else(|| "ran".into())
    };
    #[allow(clippy::disallowed_methods, reason = "a hung run must not hang the suite")]
    let runs: Vec<_> = (rows.iter())
        .map(|&row| (row, std::thread::spawn(move || refusal(row))))
        .collect();
    for _ in 0..100 {
        if runs.iter().all(|(_, run)| run.is_finished()) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    for (row, run) in runs {
        assert!(run.is_finished(), "{row}: still running after 10 s");
        let why = run.join().expect("no panic");
        assert!(
            why.contains("gpus"),
            "{row}: the refusal must name gpus: {why}"
        );
    }
}

/// Inputs built in code skip the parsers' ceilings, so the library holds
/// them itself: a kernel of `u32::MAX` CTAs (the whole grid is queued up
/// front) and a network of 65 537 routers plus one endpoint (node ids are
/// `u16`). Each is refused with a typed error naming what is too large,
/// on its own thread under one 1 s deadline.
#[test]
fn code_built_kernels_and_networks_past_their_ceilings_are_refused_in_time() {
    let kernel = || {
        let mut w = Workload::VecAdd.spec_small();
        std::sync::Arc::make_mut(&mut w.kernel).ctas = u32::MAX;
        let b = SimBuilder::new(Organization::Gmn).gpus(2).sms_per_gpu(2);
        match b.workload(w).try_run() {
            Err(SimError::InvalidConfig(why)) => why,
            Err(e) => format!("not a configuration error: {e}"),
            Ok(_) => "ran".into(),
        }
    };
    let network = || {
        let mut nb = NetworkBuilder::new(NocParams::default());
        let r0 = nb.router();
        for _ in 1..65_537 {
            nb.router();
        }
        nb.endpoint(r0);
        nb.try_build().err().unwrap_or_else(|| "built".into())
    };
    #[allow(clippy::disallowed_methods, reason = "a run that allocates must not hang the suite")]
    let runs = [
        ("'ctas'", std::thread::spawn(kernel)),
        ("65538 nodes", std::thread::spawn(network)),
    ];
    for _ in 0..10 {
        if runs.iter().all(|(_, run)| run.is_finished()) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    for (names, run) in runs {
        assert!(run.is_finished(), "{names}: still running after 1 s");
        let why = run.join().expect("no panic");
        assert!(why.contains(names), "the refusal must name {names}: {why}");
    }
}

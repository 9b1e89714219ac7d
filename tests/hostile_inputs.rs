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
use memnet::obs::MAX_SAFE_INT;
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

#[test]
fn mutated_snapshots_are_refused_or_parse() {
    // The stock caches make an 11 MB snapshot; shrink them so 200 parses
    // stay well inside the tier-1 budget, and the phase budget too, so a
    // restored run a mutation stalls ends quickly. The sanitizer records,
    // never panics: a run from a corrupted state may well break a law.
    let mut cfg = SystemConfig::scaled();
    for cache in [&mut cfg.cpu.l1, &mut cfg.cpu.l2, &mut cfg.gpu.l2] {
        cache.size_bytes = 8 * 1024;
    }
    let builder = || {
        SimBuilder::new(Organization::Gmn)
            .config(cfg.clone())
            .gpus(2)
            .sms_per_gpu(2)
            .phase_budget_ns(2e6)
            .sanitize(SanitizeMode::Record)
            .workload(Workload::VecAdd.spec_small())
    };
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

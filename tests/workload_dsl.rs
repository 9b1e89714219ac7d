//! Differential conformance for the runtime workload model format.
//!
//! The DSL (`memnet::wdl`) must be a *lossless* second front door into the
//! simulator: a model exported from a built-in workload and loaded back
//! has to drive every engine to the byte-identical `SimReport` its
//! hard-coded twin produces, or the runtime surface silently forks the
//! physics. The two proven-equivalent engines and the runtime sanitizer
//! are the oracle:
//!
//! 1. **Round-trip conformance** — all 15 built-ins, exported → reloaded,
//!    byte-identical reports vs the hard-coded spec in both engine
//!    modes.
//! 2. **Fuzz conformance** — `WorkloadFuzzer` models (seed count from
//!    `MEMNET_FUZZ_SEEDS`, default 8; CI runs 32) run sanitizer-clean and
//!    bit-identically across engines, and survive checkpoint/restore.
//! 3. **Golden files** — the committed exports under `tests/data/` match
//!    what `memnet export` writes today, so format drift is a diff, not a
//!    surprise (regenerate: `memnet export --dir tests/data`).

use memnet::sim::{EngineMode, Organization, SanitizeMode, SimBuilder, SimReport};
use memnet::wdl::{self, fuzz::WorkloadFuzzer};
use memnet::workloads::WorkloadSpec;

/// Every engine mode, reference first.
const ALL_MODES: [EngineMode; 2] = [EngineMode::CycleStepped, EngineMode::EventDriven];

/// The conformance rig: small but multi-GPU, so CTA distribution, the
/// memory network and (for host-phase models) the CPU all participate.
fn rig(org: Organization, spec: WorkloadSpec) -> SimBuilder {
    SimBuilder::new(org)
        .gpus(2)
        .sms_per_gpu(2)
        .workload(spec)
        .sanitize(SanitizeMode::Record)
}

/// Number of fuzzer seeds to exercise: `MEMNET_FUZZ_SEEDS`, default 8.
fn fuzz_seeds() -> u64 {
    std::env::var("MEMNET_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

fn assert_clean(r: &SimReport, label: &str) {
    let san = r.sanitizer.as_ref().expect("sanitizer was enabled");
    assert!(san.checks > 0, "{label}: sanitizer never checked anything");
    assert!(
        san.is_clean(),
        "{label}: sanitizer violations: {:?}",
        san.violations
    );
}

#[test]
fn builtin_models_conform_across_all_engines() {
    // Export each built-in's small spec, reload it through the DSL, and
    // demand identical reports vs the hard-coded twin under every engine.
    for w in wdl::all_builtins() {
        let twin = w.spec_small();
        let loaded = wdl::spec_from_json(&wdl::spec_to_json(&twin))
            .unwrap_or_else(|e| panic!("{}: model did not reload: {e}", twin.abbr));
        assert_eq!(twin, loaded, "{}: spec-level round trip", twin.abbr);
        let reference = rig(Organization::Umn, twin.clone())
            .engine(ALL_MODES[0])
            .run();
        for mode in ALL_MODES {
            let from_model = rig(Organization::Umn, loaded.clone()).engine(mode).run();
            assert_clean(&from_model, &format!("{}[{mode:?}]", twin.abbr));
            assert_eq!(
                reference, from_model,
                "{}: model-driven {mode:?} run diverged from the hard-coded twin",
                twin.abbr
            );
        }
    }
}

#[test]
fn fuzzed_models_run_sanitizer_clean_and_bit_identical() {
    for seed in 0..fuzz_seeds() {
        let spec = WorkloadFuzzer::spec(seed);
        let label = spec.abbr.clone();
        // The textual form must be stable through a reload (the DSL adds
        // or loses nothing), and the reloaded model must be the spec.
        let json = wdl::spec_to_json(&spec);
        let back = wdl::spec_from_json(&json).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(spec, back, "{label}: reload changed the spec");
        assert_eq!(json, wdl::spec_to_json(&back), "{label}: textual drift");
        // Differential oracle: two independent engines, one report.
        let reference = rig(Organization::Umn, back.clone())
            .engine(ALL_MODES[0])
            .run();
        for mode in ALL_MODES {
            let r = rig(Organization::Umn, back.clone()).engine(mode).run();
            assert_clean(&r, &format!("{label}[{mode:?}]"));
            assert!(!r.timed_out, "{label}[{mode:?}]: fuzzed model hung");
            assert_eq!(reference, r, "{label}: engines disagree on a fuzzed model");
        }
    }
}

#[test]
fn fuzzed_models_survive_checkpoint_restore() {
    // Checkpoint at the warmup boundary, restore under every engine: the
    // stitched run must be byte-identical to the uncheckpointed one.
    for seed in [2u64, 5] {
        let spec = WorkloadFuzzer::spec(seed);
        let label = spec.abbr.clone();
        let plain = rig(Organization::Pcie, spec.clone())
            .engine(EngineMode::EventDriven)
            .run();
        let (at_checkpoint, snap) = rig(Organization::Pcie, spec.clone())
            .try_run_checkpointed("workload_dsl conformance")
            .unwrap_or_else(|e| panic!("{label}: checkpoint run failed: {e}"));
        assert_eq!(
            plain, at_checkpoint,
            "{label}: checkpointing perturbed the run"
        );
        for mode in ALL_MODES {
            let restored = rig(Organization::Pcie, spec.clone())
                .engine(mode)
                .try_run_restored(&snap)
                .unwrap_or_else(|e| panic!("{label}[{mode:?}]: restore failed: {e}"));
            assert_eq!(plain, restored, "{label}[{mode:?}]: restored run diverged");
        }
    }
}

#[test]
fn golden_model_files_match_the_exporter() {
    // The committed exports are the format's compatibility contract: if
    // this fails, either regenerate them (memnet export --dir tests/data)
    // and review the diff as a deliberate format change, or fix the
    // regression that moved the output.
    let dir = format!("{}/tests/data", env!("CARGO_MANIFEST_DIR"));
    for w in wdl::all_builtins() {
        let spec = w.spec();
        let path = format!("{dir}/{}", wdl::model_file_name(&spec.abbr));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: missing golden file: {e}"));
        let mut expect = wdl::spec_to_json(&spec);
        expect.push('\n');
        assert_eq!(
            golden, expect,
            "{path}: golden file drifted from the exporter"
        );
        let parsed = wdl::spec_from_json(&golden)
            .unwrap_or_else(|e| panic!("{path}: golden file no longer parses: {e}"));
        assert_eq!(
            parsed, spec,
            "{path}: golden file decodes to a different spec"
        );
    }
}

#[test]
fn model_errors_name_the_offending_field() {
    // The harness-level smoke over the strict parser (the full error
    // matrix lives in memnet-wdl's unit tests): every rejection must name
    // what to fix.
    let json = wdl::spec_to_json(&WorkloadFuzzer::spec(0));
    let doped = json.replacen("\"kernel\"", "\"warp_size\": 32,\n  \"kernel\"", 1);
    let err = wdl::spec_from_json(&doped).unwrap_err();
    assert!(err.contains("warp_size"), "{err}");
    let err = wdl::spec_from_json("{ not json").unwrap_err();
    assert!(err.contains("workload model"), "{err}");
}

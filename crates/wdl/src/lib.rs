//! The memnet workload description language (WDL).
//!
//! Every built-in workload is a [`WorkloadSpec`]: a [`SyntheticKernel`]
//! plus host staging sizes and optional CPU phases. This crate gives that
//! surface a runtime form — a small, versioned JSON model format — so new
//! scenarios can be opened without recompiling:
//!
//! ```json
//! {
//!   "format": "memnet-wdl-v1",
//!   "abbr": "MYKERN",
//!   "name": "My kernel",
//!   "kernel": {
//!     "ctas": 64, "iters": 8, "compute_gap": 40,
//!     "seq_reads": 2, "rand_reads": 0, "dep_reads": 0, "writes": 1,
//!     "halo_reads": 0, "atomic_every": 0, "reuse": 1,
//!     "shared_bytes": 0, "read_bytes": 1048576, "write_bytes": 524288,
//!     "stride": 128, "seed": 7
//!   },
//!   "h2d_bytes": 1048576,
//!   "d2h_bytes": 524288,
//!   "host_post": { "reads": 8192, "region_base": 1048576,
//!                  "region_bytes": 524288, "stride": 64,
//!                  "compute_per_read": 4, "tail_compute": 0 }
//! }
//! ```
//!
//! `h2d_bytes`/`d2h_bytes` are optional and default to the staging sizes
//! the built-in constructors use (`shared + read` and `write`). Parsing
//! goes through the workspace's one strict reader (`memnet_obs::Fields`;
//! DESIGN, "Input formats: one reader"): unknown or duplicate fields,
//! missing kernel parameters, wrong types and semantically invalid kernels
//! are all reported by full field path. [`spec_to_json`] is the inverse, and
//! round-trips every built-in model exactly; [`fuzz::WorkloadFuzzer`]
//! generates random-but-valid models for the differential conformance
//! harness.
#![forbid(unsafe_code)]

pub mod fuzz;

use memnet_obs::json::{Field, Fields, MAX_SAFE_INT};
use memnet_obs::JsonWriter;
use memnet_workloads::{HostWork, SyntheticKernel, Workload, WorkloadSpec};
use std::sync::Arc;

/// Format tag required in every model file. Bump on breaking changes.
pub const FORMAT: &str = "memnet-wdl-v1";

/// Cap on any byte-size field: 1 TB of virtual footprint is far beyond
/// anything the simulator models and catches nonsense like `1e30`.
const MAX_BYTES: u64 = 1 << 40;

/// Every built-in workload the exporter ships (VECADD + Table II).
pub fn all_builtins() -> Vec<Workload> {
    let mut v = vec![Workload::VecAdd];
    v.extend(Workload::table2());
    v
}

/// Canonical model file name for a workload abbreviation
/// (e.g. `KMN` → `kmn.json`, `CG.S` → `cg.s.json`).
pub fn model_file_name(abbr: &str) -> String {
    format!("{}.json", abbr.to_lowercase())
}

/// Serializes a spec as a pretty-printed `memnet-wdl-v1` model.
///
/// The output is canonical — field order and formatting are fixed — so
/// export → parse → export is textually stable, which is what the golden
/// drift check in CI relies on.
pub fn spec_to_json(s: &WorkloadSpec) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field("format", FORMAT);
    w.field("abbr", s.abbr.as_str());
    w.field("name", s.name.as_str());
    w.field("kernel", s.kernel.as_ref());
    w.field("h2d_bytes", &s.h2d_bytes);
    w.field("d2h_bytes", &s.d2h_bytes);
    if let Some(h) = &s.host_pre {
        w.field("host_pre", h);
    }
    if let Some(h) = &s.host_post {
        w.field("host_post", h);
    }
    w.end_object();
    w.finish()
}

fn read_host_work(f: &Fields) -> Result<HostWork, String> {
    Ok(HostWork {
        reads: f.req("reads")?.uint(MAX_SAFE_INT)?,
        region_base: f.req("region_base")?.uint(MAX_BYTES)?,
        region_bytes: f.req("region_bytes")?.uint(MAX_BYTES)?,
        stride: f.req("stride")?.uint(MAX_BYTES)?,
        compute_per_read: f.req("compute_per_read")?.uint(MAX_SAFE_INT)?,
        tail_compute: f.req("tail_compute")?.uint(MAX_SAFE_INT)?,
    })
}

fn read_kernel(f: &Fields) -> Result<SyntheticKernel, String> {
    let u32_of = |key| Ok::<_, String>(f.req(key)?.uint(u64::from(u32::MAX))? as u32);
    Ok(SyntheticKernel {
        ctas: u32_of("ctas")?,
        iters: u32_of("iters")?,
        compute_gap: u32_of("compute_gap")?,
        seq_reads: u32_of("seq_reads")?,
        rand_reads: u32_of("rand_reads")?,
        dep_reads: u32_of("dep_reads")?,
        writes: u32_of("writes")?,
        halo_reads: u32_of("halo_reads")?,
        atomic_every: u32_of("atomic_every")?,
        reuse: u32_of("reuse")?,
        shared_bytes: f.req("shared_bytes")?.uint(MAX_BYTES)?,
        read_bytes: f.req("read_bytes")?.uint(MAX_BYTES)?,
        write_bytes: f.req("write_bytes")?.uint(MAX_BYTES)?,
        stride: f.req("stride")?.uint(MAX_BYTES)?,
        seed: f.req("seed")?.uint(MAX_SAFE_INT)?,
    })
}

fn read_spec(f: &Fields) -> Result<WorkloadSpec, String> {
    let format = f.req("format")?.str()?;
    if format != FORMAT {
        return Err(format!(
            "unsupported format '{format}' (this build reads \"{FORMAT}\")"
        ));
    }
    let abbr = f.req("abbr")?.str()?;
    if abbr.is_empty() {
        return Err("'abbr' must not be empty".to_string());
    }
    let kernel = f.req("kernel")?.record(read_kernel)?;
    let bytes = |key| f.opt(key)?.map(|x| x.uint(MAX_BYTES)).transpose();
    let host = |key| f.opt(key)?.map(|x| x.record(read_host_work)).transpose();
    Ok(WorkloadSpec {
        abbr: abbr.to_string(),
        name: f.req("name")?.str()?.to_string(),
        h2d_bytes: bytes("h2d_bytes")?.unwrap_or(kernel.shared_bytes + kernel.read_bytes),
        d2h_bytes: bytes("d2h_bytes")?.unwrap_or(kernel.write_bytes),
        kernel: Arc::new(kernel),
        host_pre: host("host_pre")?,
        host_post: host("host_post")?,
    })
}

/// Builds a spec from an already-parsed model object, read through the
/// workspace's one strict reader ([`Field::record`]).
///
/// This is what `serve` uses for inline `"model"` JobSpec fields (the field
/// then carries the `params.model` path); the CLI path goes through
/// [`spec_from_json`].
///
/// # Errors
///
/// Returns an actionable message naming the offending field by its full
/// path on unknown or duplicate keys, missing required fields, type
/// mismatches, a wrong or missing `format` tag, and semantically invalid
/// models ([`validate_spec`]).
pub fn spec_from_field(model: Field) -> Result<WorkloadSpec, String> {
    let spec = model
        .record(read_spec)
        .map_err(|e| format!("workload model: {e}"))?;
    validate_spec(&spec)?;
    Ok(spec)
}

/// Parses a model document (see the crate docs for the schema).
///
/// # Errors
///
/// Returns a human-readable message on malformed JSON or an invalid model
/// (see [`spec_from_field`]).
pub fn spec_from_json(s: &str) -> Result<WorkloadSpec, String> {
    let doc = Field::root(s, "").map_err(|e| format!("workload model: {e}"))?;
    spec_from_field(doc)
}

/// Semantic validation beyond types: the kernel must be self-consistent
/// ([`SyntheticKernel::validate`]) and host phases must walk memory that
/// exists. The property tests in `crates/workloads` assert the same
/// invariants on the built-in suite.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_spec(spec: &WorkloadSpec) -> Result<(), String> {
    spec.kernel
        .validate()
        .map_err(|e| format!("workload model: invalid kernel: {e}"))?;
    let fp = spec.footprint_bytes();
    for (key, h) in [("host_pre", &spec.host_pre), ("host_post", &spec.host_post)] {
        let Some(h) = h else { continue };
        if h.reads > 0 {
            if h.stride == 0 {
                return Err(format!(
                    "workload model: '{key}' has reads but a zero stride"
                ));
            }
            if h.region_bytes == 0 {
                return Err(format!(
                    "workload model: '{key}' has reads but an empty region"
                ));
            }
            let end = h.region_base.saturating_add(h.region_bytes);
            if end > fp {
                return Err(format!(
                    "workload model: '{key}' region [{}, {end}) exceeds the kernel \
                     footprint of {fp} bytes",
                    h.region_base
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_models_round_trip_exactly() {
        for w in all_builtins() {
            for spec in [w.spec_small(), w.spec(), w.spec_large()] {
                let json = spec_to_json(&spec);
                let back =
                    spec_from_json(&json).unwrap_or_else(|e| panic!("{} re-parse: {e}", spec.abbr));
                assert_eq!(spec, back, "{} round-trip", spec.abbr);
                assert_eq!(json, spec_to_json(&back), "{} textual stability", spec.abbr);
            }
        }
    }

    #[test]
    fn format_tag_is_enforced() {
        let mut json = spec_to_json(&Workload::Kmn.spec_small());
        assert!(spec_from_json(&json).is_ok());
        json = json.replace(FORMAT, "memnet-wdl-v0");
        let err = spec_from_json(&json).unwrap_err();
        assert!(err.contains("memnet-wdl-v0"), "{err}");
        let err = spec_from_json(r#"{"abbr":"X","name":"x"}"#).unwrap_err();
        assert!(err.contains("format"), "{err}");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let json = spec_to_json(&Workload::Bp.spec_small());
        let doped = json.replacen("\"abbr\"", "\"warp_size\": 32,\n  \"abbr\"", 1);
        let err = spec_from_json(&doped).unwrap_err();
        assert!(err.contains("warp_size"), "{err}");
        let doped = json.replacen("\"ctas\"", "\"blocks\": 1,\n    \"ctas\"", 1);
        let err = spec_from_json(&doped).unwrap_err();
        assert!(err.contains("kernel.blocks"), "{err}");
    }

    #[test]
    fn missing_kernel_fields_are_named() {
        let json = spec_to_json(&Workload::Scan.spec_small());
        let start = json.find("    \"iters\"").expect("iters field");
        let end = json[start..].find('\n').expect("line end") + start + 1;
        let gutted = format!("{}{}", &json[..start], &json[end..]);
        let err = spec_from_json(&gutted).unwrap_err();
        assert!(err.contains("kernel.iters"), "{err}");
    }

    #[test]
    fn type_and_range_errors_are_actionable() {
        let json = spec_to_json(&Workload::Sto.spec_small());
        let bad = json.replacen("\"name\"", "\"h2d_bytes\": \"lots\",\n  \"name\"", 1);
        let err = spec_from_json(&bad).unwrap_err();
        assert!(err.contains("h2d_bytes"), "{err}");
        let bad = json.replacen("\"seed\": ", "\"seed\": 0.5, \"unused_seed\": ", 1);
        let err = spec_from_json(&bad).unwrap_err();
        assert!(
            err.contains("kernel.seed") || err.contains("unused_seed"),
            "{err}"
        );
        assert!(spec_from_json("not json").is_err());
        assert!(spec_from_json("[1,2]").unwrap_err().contains("object"));
    }

    #[test]
    fn invalid_kernels_fail_validation() {
        let mut spec = Workload::Kmn.spec_small();
        let mut k = (*spec.kernel).clone();
        k.stride = 64;
        spec.kernel = Arc::new(k);
        let err = spec_from_json(&spec_to_json(&spec)).unwrap_err();
        assert!(err.contains("stride"), "{err}");
    }

    /// The three models that used to abort the process on allocation, each
    /// refused at parse time by the field that sizes it.
    #[test]
    fn models_past_the_size_ceilings_are_refused_by_field() {
        let json = spec_to_json(&Workload::VecAdd.spec());
        let set = |text: &str, key: &str, v: u64| {
            let from = format!("\"{key}\": ");
            let at = text.find(&from).expect("a kernel field") + from.len();
            let end = at + text[at..].find([',', '\n']).expect("value end");
            format!("{}{v}{}", &text[..at], &text[end..])
        };
        let huge_grid = set(&set(&json, "ctas", 4_294_967_295), "read_bytes", 1 << 40);
        let wide = set(&json, "seq_reads", 200_000_000);
        let wrapping = set(
            &set(&json, "seq_reads", 3_000_000_000),
            "writes",
            2_000_000_000,
        );
        for (model, field) in [
            (huge_grid, "'ctas'"),
            (wide, "'seq_reads'"),
            (wrapping, "'writes'"),
        ] {
            let err = spec_from_json(&model).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    fn host_regions_must_fit_the_footprint() {
        let mut spec = Workload::CgS.spec_small();
        let fp = spec.footprint_bytes();
        spec.host_post = Some(HostWork::reduce(fp, 4096, 2));
        let err = validate_spec(&spec).unwrap_err();
        assert!(err.contains("footprint"), "{err}");
        let err = spec_from_json(&spec_to_json(&spec)).unwrap_err();
        assert!(err.contains("host_post"), "{err}");
    }

    #[test]
    fn staging_defaults_match_the_builtin_constructors() {
        let spec = Workload::Fwt.spec_small();
        let json = spec_to_json(&spec);
        let start = json.find("  \"h2d_bytes\"").expect("h2d line");
        let end = json.find("  \"d2h_bytes\"").expect("d2h line");
        let line_end = json[end..].find('\n').expect("line end") + end + 1;
        // Drop both staging lines, then fix the now-dangling comma after
        // the kernel object.
        let stripped = format!("{}{}", &json[..start], &json[line_end..]).replace("},\n}", "}\n}");
        let back = spec_from_json(&stripped).expect("defaults fill in");
        assert_eq!(back, spec);
    }

    #[test]
    fn file_names_are_lowercased_abbrs() {
        assert_eq!(model_file_name("KMN"), "kmn.json");
        assert_eq!(model_file_name("CG.S"), "cg.s.json");
        assert_eq!(model_file_name("3DFD"), "3dfd.json");
        assert_eq!(all_builtins().len(), 15);
    }
}

//! Job specifications: the canonical form of one simulation request.
//!
//! A [`JobSpec`] is what both front ends lower onto: the serve protocol
//! parses `params` into one and `memnet run` fills one from its flags.
//! Parsing goes through the workspace's one strict reader
//! (`memnet_obs::Fields`) — an unknown or duplicate parameter is an
//! error, not a silent default — because a typo'd key (`"gpu"` for
//! `"gpus"`) would otherwise cache a result under the wrong configuration. The spec's
//! identity is [`JobSpec::fingerprint`], the configuration fingerprint of
//! the `SimBuilder` it expands to, which is also what the checkpoint
//! subsystem uses to pair snapshots with configurations.
//!
//! The name parsers (`parse_org`, `parse_workload`, …) are shared with
//! the `memnet` CLI so the daemon and the command line can never drift
//! apart on what a name means.

use memnet_common::time::ns_to_fs;
use memnet_common::FaultPlan;
use memnet_core::{CtaPolicy, EngineMode, Organization, PlacementPolicy, SanitizeMode, SimBuilder};
use memnet_noc::topo::{SlicedKind, TopologyKind};
use memnet_noc::RoutingPolicy;
use memnet_obs::{Field, Fields, JsonValue, ToJson, MAX_SAFE_INT};
use memnet_workloads::{Workload, WorkloadSpec};

/// The first entry of a name table that matches `s`, ignoring ASCII case.
fn lookup<T: Copy>(table: &[(&str, T)], s: &str) -> Option<T> {
    let hit = table.iter().find(|(name, _)| name.eq_ignore_ascii_case(s));
    hit.map(|&(_, v)| v)
}

/// Parses an organization name (`pcie`, `cmn-zc`, `umn`, …).
pub fn parse_org(s: &str) -> Option<Organization> {
    let mut all = Organization::all_extended().into_iter();
    all.find(|o| o.name().eq_ignore_ascii_case(s))
}

/// Parses a Table II workload abbreviation, or `vecadd`.
pub fn parse_workload(s: &str) -> Option<Workload> {
    if s.eq_ignore_ascii_case("vecadd") {
        return Some(Workload::VecAdd);
    }
    Workload::table2()
        .into_iter()
        .find(|w| w.abbr().eq_ignore_ascii_case(s))
}

/// Parses a topology name (`smesh`, `storus2x`, `sfbfly`, `dfbfly`, …).
pub fn parse_topology(s: &str) -> Option<TopologyKind> {
    let sliced = |kind, double| TopologyKind::Sliced { kind, double };
    let table = [
        ("smesh", sliced(SlicedKind::Mesh, false)),
        ("storus", sliced(SlicedKind::Torus, false)),
        ("smesh2x", sliced(SlicedKind::Mesh, true)),
        ("storus2x", sliced(SlicedKind::Torus, true)),
        ("sfbfly", sliced(SlicedKind::Fbfly, false)),
        ("dfbfly", TopologyKind::DistributorFbfly),
        ("ddfly", TopologyKind::DistributorDfly),
    ];
    lookup(&table, s)
}

/// Parses a routing policy name (`minimal` / `ugal`).
pub fn parse_routing(s: &str) -> Option<RoutingPolicy> {
    let table = [
        ("minimal", RoutingPolicy::Minimal),
        ("ugal", RoutingPolicy::Ugal),
    ];
    lookup(&table, s)
}

/// Parses a CTA partitioning policy name (`static` / `rr` / `stealing`).
pub fn parse_cta(s: &str) -> Option<CtaPolicy> {
    let table = [
        ("static", CtaPolicy::StaticChunk),
        ("rr", CtaPolicy::RoundRobin),
        ("stealing", CtaPolicy::Stealing),
    ];
    lookup(&table, s)
}

/// Parses a page placement policy name.
pub fn parse_placement(s: &str) -> Option<PlacementPolicy> {
    let table = [
        ("random", PlacementPolicy::Random),
        ("round-robin", PlacementPolicy::RoundRobin),
        ("contiguous", PlacementPolicy::Contiguous),
    ];
    lookup(&table, s)
}

/// The most GPUs a job may ask for. Router port ids are `u8`, so a router
/// has at most 256 ports (`Network::from_builder` refuses more). The
/// PCIe switch, which PCIe, PCIe-ZC, GMN and GMN-ZC all build, has one
/// port per GPU and one for the CPU: 255 GPUs + 1 = 256 ports. Smaller
/// systems can still exceed a bound (PCN's device routers link to every
/// other device; a long sliced mesh needs more VCs than `u8` ids address),
/// and the build refuses those.
const MAX_GPUS: u32 = 255;

/// The most SMs a job may ask for over all its GPUs (`gpus × sms`). Each
/// SM costs about 7 KB to build. Measured with GMN VECADD `--small` on a
/// 2-core host: 2 × 16 384 SMs run in 0.6 s with a 229 MB peak RSS and
/// 255 × 128 in 5.3 s (383 MB), while 2 × 100 000 take 6.7 s and 1.35 GB,
/// and `--sms 10000000` asks for one 3.12 GB allocation, whose failure
/// aborts the process (a daemon with it).
const MAX_SMS: u64 = 32_768;

/// One simulation request, with the same defaults as `memnet run`.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// System organization (Table III + PCN).
    pub org: Organization,
    /// Table II workload (or vectorAdd). Ignored when `model` is set.
    pub workload: Workload,
    /// Use the tiny workload variant. Ignored when `model` is set.
    pub small: bool,
    /// Runtime-loaded workload model (`"model"` inline object or
    /// `"workload_file"` path), replacing the built-in suite.
    pub model: Option<WorkloadSpec>,
    /// Number of GPUs.
    pub gpus: u32,
    /// SMs per GPU.
    pub sms: u32,
    /// Topology override (organization default when `None`).
    pub topology: Option<TopologyKind>,
    /// Routing policy.
    pub routing: RoutingPolicy,
    /// CTA partitioning policy.
    pub cta: CtaPolicy,
    /// Page placement policy.
    pub placement: PlacementPolicy,
    /// Enable the CPU overlay network.
    pub overlay: bool,
    /// Simulated-time budget per phase, milliseconds.
    pub budget_ms: f64,
    /// Seeded random fault plan (same semantics as `--chaos-seed`).
    pub chaos_seed: Option<u64>,
    /// Engine override; `None` follows the daemon's environment default.
    pub engine: Option<EngineMode>,
    /// Audit runtime invariants and attach a `SanitizerReport`.
    pub sanitize: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            org: Organization::Umn,
            workload: Workload::Kmn,
            small: false,
            model: None,
            gpus: 4,
            sms: 16,
            topology: None,
            routing: RoutingPolicy::Minimal,
            cta: CtaPolicy::StaticChunk,
            placement: PlacementPolicy::Random,
            overlay: false,
            budget_ms: 20.0,
            chaos_seed: None,
            engine: None,
            sanitize: false,
        }
    }
}

/// Reads the workload model at `path` (`--workload-file`, `"workload_file"`).
pub fn load_model(path: &str) -> Result<WorkloadSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read workload model {path}: {e}"))?;
    memnet_wdl::spec_from_json(&text).map_err(|e| format!("bad workload model {path}: {e}"))
}

impl JobSpec {
    /// [`JobSpec::from_field`] over a `params` tree, which it writes out
    /// and reads back. It exists for callers that hold a tree (the layer
    /// probes, the hostile-input tests); a request is read from its text.
    pub fn from_json(params: &JsonValue) -> Result<JobSpec, String> {
        let text = params.to_json();
        let params = Field::root(&text, "params").map_err(|e| e.to_string())?;
        JobSpec::from_field(params)
    }

    /// Reads a spec from the `params` member of a protocol request (a
    /// batch job carries the `params.jobs[i]` path). Absent keys take the
    /// `memnet run` defaults; unknown or duplicate keys, mistyped values
    /// and out-of-range values are errors naming the key (`params.gpus`).
    pub fn from_field(params: Field) -> Result<JobSpec, String> {
        params.record(JobSpec::read)
    }

    fn read(f: &Fields) -> Result<JobSpec, String> {
        let mut spec = JobSpec::default();
        let (workload, small) = (f.opt("workload")?, f.opt("small")?);
        spec.model = match (f.opt("model")?, f.opt("workload_file")?) {
            (Some(m), Some(p)) => {
                let (m, p) = (m.path(), p.path());
                return Err(format!("'{m}' and '{p}' are mutually exclusive"));
            }
            (Some(model), None) => Some(memnet_wdl::spec_from_field(model)?),
            (None, Some(path)) => Some(load_model(&path.str()?)?),
            (None, None) => None,
        };
        if spec.model.is_some() && (workload.is_some() || small.is_some()) {
            return Err(
                "a runtime model ('model'/'workload_file') cannot be combined \
                        with 'workload' or 'small'"
                    .into(),
            );
        }
        if let Some(x) = f.opt("org")? {
            spec.org = x.named("organization", parse_org)?;
        }
        if let Some(x) = workload {
            spec.workload = x.named("workload", parse_workload)?;
        }
        if let Some(x) = small {
            spec.small = x.bool()?;
        }
        if let Some(x) = f.opt("gpus")? {
            spec.gpus = x.uint(u64::from(u32::MAX))? as u32;
        }
        if let Some(x) = f.opt("sms")? {
            spec.sms = x.uint(u64::from(u32::MAX))? as u32;
        }
        if let Some(x) = f.opt("topology")? {
            spec.topology = Some(x.named("topology", parse_topology)?);
        }
        if let Some(x) = f.opt("routing")? {
            spec.routing = x.named("routing policy", parse_routing)?;
        }
        if let Some(x) = f.opt("cta")? {
            spec.cta = x.named("CTA policy", parse_cta)?;
        }
        if let Some(x) = f.opt("placement")? {
            spec.placement = x.named("placement policy", parse_placement)?;
        }
        if let Some(x) = f.opt("overlay")? {
            spec.overlay = x.bool()?;
        }
        if let Some(x) = f.opt("budget_ms")? {
            spec.budget_ms = x.f64()?;
        }
        if let Some(x) = f.opt("chaos_seed")? {
            spec.chaos_seed = Some(x.uint(MAX_SAFE_INT)?);
        }
        if let Some(x) = f.opt("engine")? {
            spec.engine = Some(x.named("engine (cycle | event)", EngineMode::parse)?);
        }
        if let Some(x) = f.opt("sanitize")? {
            spec.sanitize = x.bool()?;
        }
        spec.validate()
            .map_err(|(key, why)| format!("'{}.{key}' {why}", f.path()))?;
        Ok(spec)
    }

    /// The range checks the CLI and the daemon share: a value no run can
    /// use is refused as `(parameter, why)`, so each front end names it
    /// its own way (`'params.sms'`, `--sms`).
    pub fn validate(&self) -> Result<(), (&'static str, &'static str)> {
        if self.gpus == 0 {
            return Err(("gpus", "must be positive"));
        }
        if self.gpus > MAX_GPUS {
            return Err(("gpus", "must be at most 255 (the PCIe switch has one u8 port id per GPU and one for the CPU)"));
        }
        if self.sms == 0 {
            return Err(("sms", "must be positive"));
        }
        if u64::from(self.gpus) * u64::from(self.sms) > MAX_SMS {
            return Err(("sms", "must be at most 32768 over all GPUs (gpus × sms)"));
        }
        if !(self.budget_ms.is_finite() && self.budget_ms > 0.0) {
            return Err(("budget_ms", "must be a positive number"));
        }
        Ok(())
    }

    /// Expands the spec into a runnable builder. `memnet run` assembles
    /// its builder through this same function, so the two front ends
    /// cannot drift apart on a default, a range or the chaos plan.
    pub fn builder(&self) -> SimBuilder {
        let spec = if let Some(model) = &self.model {
            model.clone()
        } else if self.small {
            self.workload.spec_small()
        } else {
            self.workload.spec()
        };
        let mut b = SimBuilder::new(self.org)
            .gpus(self.gpus)
            .sms_per_gpu(self.sms)
            .workload(spec)
            .cta_policy(self.cta)
            .placement(self.placement)
            .overlay(self.overlay)
            .routing(self.routing)
            .phase_budget_ns(self.budget_ms * 1e6);
        if let Some(t) = self.topology {
            b = b.topology(t);
        }
        if let Some(seed) = self.chaos_seed {
            // Seeded chaos: a dozen failures spread over the first couple
            // of simulated microseconds, early enough to land while even
            // the --small workloads are still in flight.
            b = b.faults(FaultPlan::random(
                seed,
                12,
                self.gpus as usize,
                ns_to_fs(2_000.0),
            ));
        }
        if let Some(mode) = self.engine {
            b = b.engine(mode);
        }
        if self.sanitize {
            b = b.sanitize(SanitizeMode::Record);
        }
        b
    }

    /// The content-address of this job: the configuration fingerprint of
    /// its builder. Engine mode and observer settings are excluded (they
    /// cannot change the report — DESIGN §5), so results are shared
    /// across both engines.
    pub fn fingerprint(&self) -> u64 {
        self.builder().fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_obs::parse;

    fn spec_of(params: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&parse(params).expect("test params parse"))
    }

    #[test]
    fn defaults_match_the_cli() {
        let s = spec_of("{}").expect("empty params are all-defaults");
        assert_eq!(s.org, Organization::Umn);
        assert_eq!(s.workload, Workload::Kmn);
        assert_eq!((s.gpus, s.sms), (4, 16));
        assert!(!s.small && !s.overlay && !s.sanitize);
        assert!(s.engine.is_none() && s.topology.is_none());
    }

    #[test]
    fn known_parameters_parse() {
        let s = spec_of(
            r#"{"org":"gmn","workload":"bp","small":true,"gpus":2,"sms":8,
                "topology":"dfbfly","routing":"ugal","cta":"stealing",
                "placement":"round-robin","overlay":true,"budget_ms":5.5,
                "chaos_seed":7,"engine":"cycle","sanitize":true}"#,
        )
        .expect("all-keys spec");
        assert_eq!(s.org, Organization::Gmn);
        assert_eq!(s.workload, Workload::Bp);
        assert!(s.small && s.overlay && s.sanitize);
        assert_eq!((s.gpus, s.sms), (2, 8));
        assert_eq!(s.engine, Some(EngineMode::CycleStepped));
        assert_eq!(s.chaos_seed, Some(7));
        assert_eq!(s.budget_ms, 5.5);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        // The parallel engine and its thread knob are gone: both spellings
        // are refused by name, never silently run on another engine.
        for (params, want) in [
            (r#"{"gpu":2}"#, "unknown field 'params.gpu'"),
            (r#"{"gpus":2,"gpus":4}"#, "duplicate field 'params.gpus'"),
            (r#"{"org":"nvlink"}"#, "'params.org': unknown organization"),
            (r#"{"gpus":0}"#, "'params.gpus' must be positive"),
            (r#"{"gpus":6553}"#, "'params.gpus' must be at most 255"),
            (r#"{"gpus":256}"#, "'params.gpus' must be at most 255"),
            (r#"{"sms":0}"#, "'params.sms' must be positive"),
            (r#"{"sms":10000000}"#, "'params.sms' must be at most 32768"),
            (r#"{"sim_threads":2}"#, "unknown field 'params.sim_threads'"),
            (
                r#"{"engine":"parallel"}"#,
                "'params.engine': unknown engine",
            ),
            (
                r#"{"gpus":2.5}"#,
                "'params.gpus' must be an exact non-negative integer",
            ),
            (r#"{"gpus":4294967296}"#, "'params.gpus'"),
            (r#"{"chaos_seed":9007199254740994}"#, "'params.chaos_seed'"),
            (r#"{"small":1}"#, "'params.small' must be a boolean"),
            (
                r#"{"budget_ms":-1}"#,
                "'params.budget_ms' must be a positive number",
            ),
            (
                r#"{"budget_ms":0}"#,
                "'params.budget_ms' must be a positive number",
            ),
            (r#"[1,2]"#, "'params' must be an object"),
        ] {
            let err = spec_of(params).unwrap_err();
            assert!(err.contains(want), "{params}: {err}");
        }
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let base = || spec_of(r#"{"workload":"vecadd","small":true,"gpus":2,"sms":2}"#);
        let a = base().expect("base").fingerprint();
        assert_eq!(a, base().expect("base").fingerprint(), "stable");
        let mut other = base().expect("base");
        other.org = Organization::Pcie;
        assert_ne!(a, other.fingerprint(), "organization changes the address");
        let mut seeded = base().expect("base");
        seeded.chaos_seed = Some(3);
        assert_ne!(a, seeded.fingerprint(), "fault plan changes the address");
    }

    #[test]
    fn engine_and_sanitize_do_not_change_the_address() {
        // Reports are bit-identical across engines and unchanged by
        // observers, so the cache shares entries across those dimensions.
        let base = || spec_of(r#"{"workload":"vecadd","small":true}"#).expect("base");
        let a = base().fingerprint();
        let mut cycle = base();
        cycle.engine = Some(EngineMode::CycleStepped);
        let mut audited = base();
        audited.sanitize = true;
        assert_eq!(a, cycle.fingerprint());
        assert_eq!(a, audited.fingerprint());
    }

    #[test]
    fn inline_models_parse_and_content_address_like_their_twin() {
        let model = memnet_wdl::spec_to_json(&Workload::Bp.spec_small());
        let inline = model.replace('\n', " ");
        let s = spec_of(&format!(r#"{{"gpus":2,"model":{inline}}}"#)).expect("inline model");
        assert_eq!(s.model.as_ref().map(|m| m.abbr.as_str()), Some("BP"));
        // Same physics as the built-in spec → same cache address.
        let twin = spec_of(r#"{"gpus":2,"workload":"bp","small":true}"#).expect("twin");
        assert_eq!(s.fingerprint(), twin.fingerprint());
        // Any edit to the model is a different configuration.
        let edited = inline.replace("\"abbr\": \"BP\"", "\"abbr\": \"BP2\"");
        assert_ne!(edited, inline, "test must actually edit the model");
        let e = spec_of(&format!(r#"{{"gpus":2,"model":{edited}}}"#)).expect("edited model");
        assert_ne!(
            s.fingerprint(),
            e.fingerprint(),
            "edited model must miss the cache"
        );
    }

    #[test]
    fn model_conflicts_and_bad_models_are_rejected() {
        let model = memnet_wdl::spec_to_json(&Workload::Bp.spec_small()).replace('\n', " ");
        assert!(spec_of(&format!(r#"{{"workload":"kmn","model":{model}}}"#))
            .unwrap_err()
            .contains("cannot be combined"));
        assert!(spec_of(&format!(r#"{{"small":true,"model":{model}}}"#))
            .unwrap_err()
            .contains("cannot be combined"));
        assert!(
            spec_of(&format!(r#"{{"model":{model},"workload_file":"x.json"}}"#))
                .unwrap_err()
                .contains("mutually exclusive")
        );
        assert!(spec_of(r#"{"model":{"format":"nope"}}"#)
            .unwrap_err()
            .contains("format"));
        assert!(spec_of(r#"{"workload_file":"/nonexistent/model.json"}"#)
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn inline_models_past_the_size_ceilings_are_refused() {
        let model = memnet_wdl::spec_to_json(&Workload::VecAdd.spec()).replace('\n', " ");
        let huge = model.replacen("\"ctas\": 512", "\"ctas\": 4294967295", 1);
        assert_ne!(huge, model, "test must actually edit the model");
        let params = format!(r#"{{"org":"umn","gpus":2,"sms":2,"model":{huge}}}"#);
        let err = spec_of(&params).unwrap_err();
        assert!(err.contains("'ctas'"), "{err}");
    }

    #[test]
    fn workload_file_loads_a_model_from_disk() {
        let path = std::env::temp_dir().join("memnet-serve-job-model.json");
        let path = path.to_str().expect("utf-8 temp path");
        std::fs::write(path, memnet_wdl::spec_to_json(&Workload::Scan.spec_small()))
            .expect("tmp write");
        let s = spec_of(&format!(r#"{{"workload_file":"{path}"}}"#)).expect("file model");
        assert_eq!(s.model.as_ref().map(|m| m.abbr.as_str()), Some("SCAN"));
        let twin = spec_of(r#"{"workload":"scan","small":true}"#).expect("twin");
        assert_eq!(s.fingerprint(), twin.fingerprint());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn name_parsers_cover_the_cli_vocabulary() {
        for o in Organization::all_extended() {
            assert_eq!(parse_org(&o.name().to_ascii_lowercase()), Some(o));
            assert_eq!(parse_org(o.name()), Some(o));
        }
        assert_eq!(parse_org("nvlink"), None);
        for w in Workload::table2() {
            assert_eq!(parse_workload(w.abbr()), Some(w));
            assert_eq!(parse_workload(&w.abbr().to_ascii_lowercase()), Some(w));
        }
        assert_eq!(parse_workload("VECADD"), Some(Workload::VecAdd));
        assert_eq!(parse_workload("nope"), None);
        for t in [
            "smesh", "storus", "smesh2x", "storus2x", "sfbfly", "dfbfly", "ddfly",
        ] {
            assert!(parse_topology(t).is_some(), "{t}");
        }
        assert!(parse_topology("hypercube").is_none());
        assert_eq!(parse_topology("SFBfly"), parse_topology("sfbfly"));
        assert_eq!(parse_routing("UGAL"), Some(RoutingPolicy::Ugal));
        assert!(parse_routing("x").is_none());
        assert_eq!(parse_cta("Stealing"), Some(CtaPolicy::Stealing));
        assert!(parse_cta("x").is_none());
        assert_eq!(
            parse_placement("Round-Robin"),
            Some(PlacementPolicy::RoundRobin)
        );
        assert!(parse_placement("x").is_none());
        assert_eq!(
            EngineMode::parse("event-driven"),
            Some(EngineMode::EventDriven)
        );
        assert_eq!(EngineMode::parse("parallel"), None);
        assert_eq!(EngineMode::parse("pdes"), None);
        assert_eq!(EngineMode::parse("warp"), None);
    }
}

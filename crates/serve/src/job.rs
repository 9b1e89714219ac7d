//! Job specifications: the canonical form of one simulation request.
//!
//! A [`JobSpec`] is the serve protocol's mirror of the `memnet run`
//! flags. Parsing is strict — an unknown parameter is an error, not a
//! silent default — because a typo'd key (`"gpu"` for `"gpus"`) would
//! otherwise cache a result under the wrong configuration. The spec's
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
use memnet_obs::JsonValue;
use memnet_workloads::{Workload, WorkloadSpec};

/// Parses an organization name (`pcie`, `cmn-zc`, `umn`, …).
pub fn parse_org(s: &str) -> Option<Organization> {
    Some(match s.to_ascii_lowercase().as_str() {
        "pcie" => Organization::Pcie,
        "pcie-zc" => Organization::PcieZc,
        "cmn" => Organization::Cmn,
        "cmn-zc" => Organization::CmnZc,
        "gmn" => Organization::Gmn,
        "gmn-zc" => Organization::GmnZc,
        "umn" => Organization::Umn,
        "pcn" => Organization::Pcn,
        _ => return None,
    })
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
    Some(match s.to_ascii_lowercase().as_str() {
        "smesh" => TopologyKind::Sliced {
            kind: SlicedKind::Mesh,
            double: false,
        },
        "storus" => TopologyKind::Sliced {
            kind: SlicedKind::Torus,
            double: false,
        },
        "smesh2x" => TopologyKind::Sliced {
            kind: SlicedKind::Mesh,
            double: true,
        },
        "storus2x" => TopologyKind::Sliced {
            kind: SlicedKind::Torus,
            double: true,
        },
        "sfbfly" => TopologyKind::Sliced {
            kind: SlicedKind::Fbfly,
            double: false,
        },
        "dfbfly" => TopologyKind::DistributorFbfly,
        "ddfly" => TopologyKind::DistributorDfly,
        _ => return None,
    })
}

/// Parses a routing policy name (`minimal` / `ugal`).
pub fn parse_routing(s: &str) -> Option<RoutingPolicy> {
    Some(match s.to_ascii_lowercase().as_str() {
        "minimal" => RoutingPolicy::Minimal,
        "ugal" => RoutingPolicy::Ugal,
        _ => return None,
    })
}

/// Parses a CTA partitioning policy name (`static` / `rr` / `stealing`).
pub fn parse_cta(s: &str) -> Option<CtaPolicy> {
    Some(match s.to_ascii_lowercase().as_str() {
        "static" => CtaPolicy::StaticChunk,
        "rr" => CtaPolicy::RoundRobin,
        "stealing" => CtaPolicy::Stealing,
        _ => return None,
    })
}

/// Parses a page placement policy name.
pub fn parse_placement(s: &str) -> Option<PlacementPolicy> {
    Some(match s.to_ascii_lowercase().as_str() {
        "random" => PlacementPolicy::Random,
        "round-robin" => PlacementPolicy::RoundRobin,
        "contiguous" => PlacementPolicy::Contiguous,
        _ => return None,
    })
}

/// Parses an engine mode name (`cycle` / `event`, long forms accepted).
pub fn parse_engine(s: &str) -> Option<EngineMode> {
    EngineMode::parse(s)
}

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

fn want_str<'a>(key: &str, v: &'a JsonValue) -> Result<&'a str, String> {
    v.as_str()
        .ok_or_else(|| format!("parameter '{key}' must be a string"))
}

fn want_bool(key: &str, v: &JsonValue) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("parameter '{key}' must be a boolean"))
}

/// A JSON number that is a non-negative integer small enough for `limit`.
fn want_uint(key: &str, v: &JsonValue, limit: f64) -> Result<u64, String> {
    match v.as_f64() {
        Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= limit => Ok(n as u64),
        _ => Err(format!(
            "parameter '{key}' must be a non-negative integer (≤ {limit})"
        )),
    }
}

impl JobSpec {
    /// Parses a spec from the `params` member of a protocol request.
    /// Absent keys take the `memnet run` defaults; unknown keys and
    /// mistyped values are errors.
    pub fn from_json(params: &JsonValue) -> Result<JobSpec, String> {
        let members = params
            .as_object()
            .ok_or_else(|| "params must be an object".to_string())?;
        let mut spec = JobSpec::default();
        let mut saw_workload = false;
        let mut saw_small = false;
        for (key, v) in members {
            match key.as_str() {
                "org" => {
                    spec.org = parse_org(want_str(key, v)?)
                        .ok_or_else(|| format!("unknown organization {v:?}"))?;
                }
                "workload" => {
                    spec.workload = parse_workload(want_str(key, v)?)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?;
                    saw_workload = true;
                }
                "small" => {
                    spec.small = want_bool(key, v)?;
                    saw_small = true;
                }
                "model" => {
                    if spec.model.is_some() {
                        return Err("parameters 'model' and 'workload_file' are mutually \
                                    exclusive"
                            .into());
                    }
                    spec.model = Some(memnet_wdl::spec_from_value(v)?);
                }
                "workload_file" => {
                    if spec.model.is_some() {
                        return Err("parameters 'model' and 'workload_file' are mutually \
                                    exclusive"
                            .into());
                    }
                    let path = want_str(key, v)?;
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read workload model {path}: {e}"))?;
                    spec.model = Some(
                        memnet_wdl::spec_from_json(&text)
                            .map_err(|e| format!("bad workload model {path}: {e}"))?,
                    );
                }
                "gpus" => match want_uint(key, v, u32::MAX as f64)? {
                    0 => return Err("parameter 'gpus' must be positive".into()),
                    n => spec.gpus = n as u32,
                },
                "sms" => match want_uint(key, v, u32::MAX as f64)? {
                    0 => return Err("parameter 'sms' must be positive".into()),
                    n => spec.sms = n as u32,
                },
                "topology" => {
                    spec.topology = Some(
                        parse_topology(want_str(key, v)?)
                            .ok_or_else(|| format!("unknown topology {v:?}"))?,
                    );
                }
                "routing" => {
                    spec.routing = parse_routing(want_str(key, v)?)
                        .ok_or_else(|| format!("unknown routing policy {v:?}"))?;
                }
                "cta" => {
                    spec.cta = parse_cta(want_str(key, v)?)
                        .ok_or_else(|| format!("unknown CTA policy {v:?}"))?;
                }
                "placement" => {
                    spec.placement = parse_placement(want_str(key, v)?)
                        .ok_or_else(|| format!("unknown placement policy {v:?}"))?;
                }
                "overlay" => spec.overlay = want_bool(key, v)?,
                "budget_ms" => match v.as_f64() {
                    Some(ms) if ms.is_finite() && ms > 0.0 => spec.budget_ms = ms,
                    _ => return Err("parameter 'budget_ms' must be a positive number".into()),
                },
                "chaos_seed" => {
                    // f64-exact integers only; the parser stores numbers as f64.
                    spec.chaos_seed = Some(want_uint(key, v, 9_007_199_254_740_992.0)?);
                }
                "engine" => {
                    spec.engine = Some(parse_engine(want_str(key, v)?).ok_or_else(|| {
                        format!("parameter 'engine' must be cycle or event, got {v:?}")
                    })?);
                }
                "sanitize" => spec.sanitize = want_bool(key, v)?,
                _ => return Err(format!("unknown parameter '{key}'")),
            }
        }
        if spec.model.is_some() && (saw_workload || saw_small) {
            return Err(
                "a runtime model ('model'/'workload_file') cannot be combined \
                        with 'workload' or 'small'"
                    .into(),
            );
        }
        Ok(spec)
    }

    /// Expands the spec into a runnable builder, exactly as `memnet run`
    /// would assemble it from the equivalent flags.
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
            let plan = FaultPlan::random(seed, 12, self.gpus as usize, ns_to_fs(2_000.0));
            let mut faults = FaultPlan::new();
            for ev in plan.events() {
                faults.push(ev.at_fs, ev.kind.clone());
            }
            b = b.faults(faults);
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
        assert!(spec_of(r#"{"gpu":2}"#)
            .unwrap_err()
            .contains("unknown parameter"));
        assert!(spec_of(r#"{"org":"nvlink"}"#)
            .unwrap_err()
            .contains("organization"));
        assert!(spec_of(r#"{"gpus":0}"#).unwrap_err().contains("positive"));
        // The parallel engine and its thread knob are gone: both spellings
        // are refused by name, never silently run on another engine.
        assert!(spec_of(r#"{"sim_threads":2}"#)
            .unwrap_err()
            .contains("unknown parameter 'sim_threads'"));
        assert!(spec_of(r#"{"engine":"parallel"}"#)
            .unwrap_err()
            .contains("parameter 'engine'"));
        assert!(spec_of(r#"{"gpus":2.5}"#).unwrap_err().contains("integer"));
        assert!(spec_of(r#"{"small":1}"#).unwrap_err().contains("boolean"));
        assert!(spec_of(r#"{"budget_ms":-1}"#)
            .unwrap_err()
            .contains("positive"));
        assert!(spec_of(r#"[1,2]"#).unwrap_err().contains("object"));
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
        assert!(parse_routing("ugal").is_some() && parse_routing("x").is_none());
        assert!(parse_cta("stealing").is_some() && parse_cta("x").is_none());
        assert!(parse_placement("contiguous").is_some() && parse_placement("x").is_none());
        assert_eq!(parse_engine("event-driven"), Some(EngineMode::EventDriven));
        assert_eq!(parse_engine("parallel"), None);
        assert_eq!(parse_engine("pdes"), None);
        assert_eq!(parse_engine("warp"), None);
    }
}

//! The on-disk JSON fault-plan format.
//!
//! A [`FaultPlan`](memnet_common::FaultPlan) is abstract — link tags plus
//! ordinals, HMC/vault indices, GPU ids; the driver resolves it against
//! the system a [`SimBuilder`](crate::SimBuilder) built (DESIGN §5b).
//!
//! The JSON format (for `memnet run --faults plan.json`):
//!
//! ```json
//! { "events": [
//!   { "at_fs": 1000000, "kind": "link-down", "class": "hmc-hmc", "ordinal": 0 },
//!   { "at_ns": 2.5, "kind": "link-degrade", "class": "pcie", "ordinal": 1, "factor": 4 },
//!   { "at_fs": 3000000, "kind": "vault-stall", "hmc": 0, "vault": 3, "stall_tcks": 512 },
//!   { "at_fs": 4000000, "kind": "gpu-loss", "gpu": 1 }
//! ] }
//! ```
//!
//! Timestamps are femtoseconds (`at_fs`) or nanoseconds (`at_ns`);
//! `link-up` takes the same fields as `link-down`.

use memnet_common::faults::{FaultKind, LinkTag};
use memnet_common::time::{fs_to_ns, ns_to_fs, Fs};
use memnet_common::FaultPlan;
use memnet_obs::json::{parse, Field, Fields, MAX_SAFE_INT};
use memnet_obs::JsonWriter;

/// Serializes a plan to the JSON format accepted by [`plan_from_json`].
pub fn plan_to_json(plan: &FaultPlan) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.key("events");
    w.begin_array();
    for ev in plan.events() {
        w.begin_object();
        w.field("at_fs", &ev.at_fs);
        w.field("kind", ev.kind.name());
        match &ev.kind {
            FaultKind::LinkDown { class, ordinal } | FaultKind::LinkUp { class, ordinal } => {
                w.field("class", class.name());
                w.field("ordinal", ordinal);
            }
            FaultKind::LinkDegrade {
                class,
                ordinal,
                factor,
            } => {
                w.field("class", class.name());
                w.field("ordinal", ordinal);
                w.field("factor", &u64::from(*factor));
            }
            FaultKind::VaultStall {
                hmc,
                vault,
                stall_tcks,
            } => {
                w.field("hmc", hmc);
                w.field("vault", vault);
                w.field("stall_tcks", stall_tcks);
            }
            FaultKind::GpuLoss { gpu } => {
                w.field("gpu", gpu);
            }
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Reads one event of the `events` array.
fn read_event(ev: &Fields) -> Result<(Fs, FaultKind), String> {
    let at_fs = match (ev.opt("at_fs")?, ev.opt("at_ns")?) {
        (Some(fs), None) => fs.uint(MAX_SAFE_INT)?,
        (None, Some(ns)) => match ns.f64()? {
            t if (0.0..=fs_to_ns(MAX_SAFE_INT)).contains(&t) => ns_to_fs(t),
            t => {
                let path = ns.path();
                return Err(format!("'{path}' = {t} is outside 0 ..= 2^53 fs"));
            }
        },
        _ => {
            return Err(format!(
                "'{}' needs exactly one of 'at_fs' or 'at_ns'",
                ev.path()
            ))
        }
    };
    let uint = |key| ev.req(key)?.uint(MAX_SAFE_INT);
    let class = || ev.req("class")?.named("link class", LinkTag::parse);
    let kind = ev.req("kind")?;
    #[allow(clippy::cast_possible_truncation, reason = "the factor is reader-limited to u32::MAX")]
    let kind = match kind.str()? {
        "link-down" => FaultKind::LinkDown {
            class: class()?,
            ordinal: uint("ordinal")?,
        },
        "link-up" => FaultKind::LinkUp {
            class: class()?,
            ordinal: uint("ordinal")?,
        },
        "link-degrade" => FaultKind::LinkDegrade {
            class: class()?,
            ordinal: uint("ordinal")?,
            factor: ev.req("factor")?.uint(u64::from(u32::MAX))?.max(1) as u32,
        },
        "vault-stall" => FaultKind::VaultStall {
            hmc: uint("hmc")?,
            vault: uint("vault")?,
            stall_tcks: uint("stall_tcks")?,
        },
        "gpu-loss" => FaultKind::GpuLoss { gpu: uint("gpu")? },
        other => return Err(format!("'{}': unknown fault kind '{other}'", kind.path())),
    };
    Ok((at_fs, kind))
}

/// Parses a JSON fault plan through the workspace's one strict reader
/// ([`Fields`]; DESIGN, "Input formats: one reader").
///
/// # Errors
///
/// Returns a human-readable message on malformed JSON, and one naming the
/// event index and field (`events[1].ordinal`) on unknown kinds or
/// classes, unknown, duplicate or missing fields, and numbers that are
/// not exact integers within 2^53 — a timestamp past that is no instant a
/// run reaches, and the clock arithmetic that snaps it to an edge would
/// overflow.
pub fn plan_from_json(s: &str) -> Result<FaultPlan, String> {
    let v = parse(s).map_err(|e| format!("fault plan: {e}"))?;
    let events = Field::root(&v, "")
        .record(|doc| doc.req("events")?.list(|ev| ev.record(read_event)))
        .map_err(|e| format!("fault plan: {e}"))?;
    let mut plan = FaultPlan::new();
    for (at_fs, kind) in events {
        plan.push(at_fs, kind);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_json_round_trips() {
        let plan = FaultPlan::random(7, 12, 4, 1_000_000_000);
        let json = plan_to_json(&plan);
        let back = plan_from_json(&json).expect("valid");
        assert_eq!(plan, back);
    }

    #[test]
    fn at_ns_is_accepted() {
        let plan = plan_from_json(r#"{"events":[{"at_ns":1.5,"kind":"gpu-loss","gpu":2}]}"#)
            .expect("valid");
        assert_eq!(plan.events()[0].at_fs, 1_500_000);
        assert_eq!(plan.events()[0].kind, FaultKind::GpuLoss { gpu: 2 });
    }

    #[test]
    fn malformed_plans_are_typed_errors() {
        assert!(plan_from_json("not json").is_err());
        assert!(
            plan_from_json(r#"{"events":[{"kind":"gpu-loss","gpu":0}]}"#)
                .unwrap_err()
                .contains("at_fs")
        );
        assert!(
            plan_from_json(r#"{"events":[{"at_fs":1,"kind":"meteor"}]}"#)
                .unwrap_err()
                .contains("meteor")
        );
        assert!(plan_from_json(
            r#"{"events":[{"at_fs":1,"kind":"link-down","class":"warp","ordinal":0}]}"#
        )
        .unwrap_err()
        .contains("warp"));
    }

    #[test]
    fn hostile_plans_name_the_event_and_field() {
        // Each document was accepted before: the first hung the CLI (a
        // saturated `as u64` timestamp), the second killed GPU 0.
        let hang = r#"{"events":[{"at_fs":1e30,"kind":"gpu-loss","gpu":1}]}"#;
        let err = plan_from_json(hang).unwrap_err();
        assert!(err.contains("events[0].at_fs"), "{err}");
        let lie = r#"{"events":[{"at_fs":-5,"kind":"gpu-loss","gpu":-1.7,"gpuz":3}],"evnts":[]}"#;
        let err = plan_from_json(lie).unwrap_err();
        assert!(err.contains("events[0].at_fs"), "{err}");
        for (fixed, field) in [
            (lie.replace("-5", "5"), "events[0].gpu"),
            (
                lie.replace("-5", "5").replace("-1.7", "1"),
                "events[0].gpuz",
            ),
            (r#"{"events":[],"evnts":[]}"#.to_string(), "'evnts'"),
            (
                hang.replace("1e30", "1,\"at_fs\":2"),
                "duplicate field 'events[0].at_fs'",
            ),
            (hang.replace("at_fs", "at_ns"), "events[0].at_ns"),
            (hang.replace("1e30", "1,\"at_ns\":1"), "exactly one of"),
        ] {
            let err = plan_from_json(&fixed).unwrap_err();
            assert!(err.contains(field), "{fixed}: {err}");
        }
        let ok = plan_from_json(&hang.replace("1e30", "9007199254740992")).expect("2^53 is exact");
        assert_eq!(ok.events()[0].at_fs, MAX_SAFE_INT);
    }
}

//! `BENCHMARK.json`: the one list of workloads and metrics. The binaries
//! take every name, unit and bound from it, so a metric exists exactly
//! when it is declared there.

use crate::json::{self, Json};
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Name rule of the benchmark contract: starts with a letter or digit,
/// at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Unit rule: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn metrics(doc: &Json, key: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json: no '{key}' array"))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("BENCHMARK.json: {key} entry without '{k}'"))
            };
            let name = field("name")?.to_string();
            let lower_is_better = match field("better")? {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("{name}: better is '{other}', not lower/higher")),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            if bounded != bound.is_some() {
                return Err(format!(
                    "{name}: 'bound' belongs to end_to_end metrics only"
                ));
            }
            Ok(Metric {
                name,
                unit: field("unit")?.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: no 'workloads' array")?
            .iter()
            .map(|w| {
                let s = |k| w.get(k).and_then(Json::as_str).map(str::to_string);
                s("name")
                    .zip(s("why"))
                    .ok_or("BENCHMARK.json: workload without name/why")
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            run_seconds: doc.num_at(&["run_seconds"])? as u64,
            workloads,
            end_to_end: metrics(&doc, "end_to_end", true)?,
            per_layer: metrics(&doc, "per_layer", false)?,
        })
    }

    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    /// Every violation of the contract's limits on names, units, counts
    /// and bounds (empty when the file conforms).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let mut count = |what: &str, n: usize, lo: usize, hi: usize| {
            if !(lo..=hi).contains(&n) {
                v.push(format!("{n} {what}, allowed {lo}..={hi}"));
            }
        };
        count("workloads", self.workloads.len(), 2, 8);
        count("end_to_end metrics", self.end_to_end.len(), 1, 16);
        count("per_layer metrics", self.per_layer.len(), 1, 128);
        count("run_seconds", self.run_seconds as usize, 1, 60);
        let mut names: Vec<&str> = self.workloads.iter().map(|(n, _)| n.as_str()).collect();
        for (name, why) in &self.workloads {
            if why.len() > 200 || why.contains('\n') {
                v.push(format!(
                    "workload {name}: 'why' must be one line of at most 200 characters"
                ));
            }
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            names.push(&m.name);
            if !valid_unit(&m.unit) {
                v.push(format!("{}: bad unit '{}'", m.name, m.unit));
            }
            if m.bound.is_some_and(|b| !(b > 0.0 && b <= 0.25)) {
                v.push(format!("{}: bound must be in (0, 0.25]", m.name));
            }
        }
        for n in &names {
            if !valid_name(n) {
                v.push(format!("bad name '{n}'"));
            }
        }
        names.sort_unstable();
        for pair in names.windows(2) {
            if pair[0] == pair[1] {
                v.push(format!("name '{}' is used twice", pair[0]));
            }
        }
        if !self
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better)
        {
            v.push("end_to_end needs setup_s (s, lower)".into());
        }
        v
    }

    /// Checks that `emitted` is exactly the declared metric set of one
    /// kind; the error lists the names missing on either side.
    pub fn check_emitted<'a>(
        declared: &[Metric],
        emitted: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), String> {
        let emitted: Vec<&str> = emitted.into_iter().collect();
        let missing: Vec<&str> = declared
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| !emitted.contains(n))
            .collect();
        let extra: Vec<&str> = emitted
            .iter()
            .copied()
            .filter(|n| !declared.iter().any(|m| m.name == *n))
            .collect();
        if missing.is_empty() && extra.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metrics out of step with BENCHMARK.json: not emitted {missing:?}, not declared {extra:?}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_spec() -> Spec {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        Spec::load(&path).expect("BENCHMARK.json at the repo root parses")
    }

    #[test]
    fn name_and_unit_charsets() {
        for ok in ["wall_s", "noc.tick_idle_ns", "kmn-umn8", "3dfd", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "-x", "a b", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "MB", "%", "sim_ns", "ns/flit-hop"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn repo_benchmark_json_conforms() {
        let spec = repo_spec();
        assert_eq!(spec.violations(), Vec::<String>::new());
        assert_eq!(spec.workloads.len(), 4);
    }

    #[test]
    fn violations_are_reported() {
        let mut spec = repo_spec();
        spec.end_to_end[0].bound = Some(0.5);
        spec.per_layer[0].name = spec.per_layer[1].name.clone();
        spec.per_layer[2].unit = "µs".into();
        let v = spec.violations().join("\n");
        assert!(v.contains("bound must be"), "{v}");
        assert!(v.contains("used twice"), "{v}");
        assert!(v.contains("bad unit"), "{v}");
    }

    #[test]
    fn emitted_set_must_equal_declared_set() {
        let spec = repo_spec();
        let names: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert!(Spec::check_emitted(&spec.end_to_end, names.iter().copied()).is_ok());
        let err = Spec::check_emitted(
            &spec.end_to_end,
            names[1..].iter().copied().chain(["bogus"]),
        )
        .expect_err("one missing, one extra");
        assert!(err.contains(names[0]) && err.contains("bogus"), "{err}");
    }
}

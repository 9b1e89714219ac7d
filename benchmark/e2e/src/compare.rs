//! `bench-e2e --compare OLD.json NEW.json`: one row per workload ×
//! end-to-end metric, with a verdict that knows about noise.

use bench_common::json::{self, Json};
use bench_common::spec::{Metric, Spec};
use bench_common::stats::{iqr_share, median, quartiles};
use std::collections::BTreeMap;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// a difference of the bound's size cannot be told from noise.
    Unresolved,
}

/// Old and new samples of one metric → (ratio new/old, verdict).
pub fn judge(metric: &Metric, old: &[f64], new: &[f64]) -> (f64, Verdict) {
    let bound = metric.bound.unwrap_or(0.0);
    let (base, now) = (median(old), median(new));
    let ratio = now / base;
    // > 0 when the metric got worse.
    let worsening = if metric.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let noisy = [old, new]
        .iter()
        .any(|v| iqr_share(v).is_none_or(|s| s > bound));
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (ratio, verdict)
}

/// One side of a comparison: the host block, and per workload the
/// samples of every metric plus ops attempted and failed.
struct Set {
    host: Json,
    samples: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    ops: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set {
        host: doc.get("host").cloned().unwrap_or(Json::Null),
        samples: BTreeMap::new(),
        ops: BTreeMap::new(),
    };
    for run in doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no 'runs' array"))?
    {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: run without workload"))?;
        let ops = set.ops.entry(workload.to_string()).or_default();
        ops.0 += run.num_at(&["attempted"])?;
        ops.1 += run.num_at(&["failed"])?;
        for (name, m) in run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{path}: run without metrics"))?
        {
            set.samples
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(m.num_at(&["value"])?);
        }
    }
    Ok(set)
}

/// Prints the table; `Ok(true)` when nothing got worse.
pub fn compare(spec: &Spec, old_path: &str, new_path: &str) -> Result<bool, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    // Numbers from differently sized hosts or runs are not comparable;
    // say so instead of printing a ratio.
    for key in ["nproc", "seconds", "smoke", "runs_per_workload"] {
        let (a, b) = (old.host.get(key), new.host.get(key));
        if a != b {
            return Err(format!(
                "refusing to compare: host.{key} is {} in {old_path} and {} in {new_path}",
                a.map_or("absent".into(), Json::write),
                b.map_or("absent".into(), Json::write)
            ));
        }
    }
    println!(
        "{:<14} {:<12} {:>34} {:>34} {:>15} {:>6}  verdict",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "new/old", "bound"
    );
    let mut ok = true;
    for (workload, metrics) in &new.samples {
        for m in &spec.end_to_end {
            let (Some(a), Some(b)) = (
                old.samples.get(workload).and_then(|w| w.get(&m.name)),
                metrics.get(&m.name),
            ) else {
                continue;
            };
            let (ratio, verdict) = judge(m, a, b);
            ok &= verdict != Verdict::Worse;
            let show = |v: &[f64]| match quartiles(v) {
                Some([q1, _, q3]) => format!("{:.4} [{q1:.4}, {q3:.4}] n={}", median(v), v.len()),
                None => format!("{:.4} n=1", median(v)),
            };
            println!(
                "{workload:<14} {:<12} {:>34} {:>34} {ratio:>6.3} of {:<7.4} {:>5.0}%  {}",
                m.name,
                show(a),
                show(b),
                median(a),
                100.0 * m.bound.unwrap_or(0.0),
                format!("{verdict:?}").to_lowercase()
            );
        }
        let fail_ratio = |set: &Set| {
            set.ops
                .get(workload)
                .map_or(0.0, |&(attempted, failed)| failed / attempted.max(1.0))
        };
        let (a, b) = (fail_ratio(&old), fail_ratio(&new));
        let verdict = if b > a { "worse" } else { "same" };
        ok &= b <= a;
        println!(
            "{workload:<14} {:<12} {a:>34.6} {b:>34.6} {:>15} {:>6}  {verdict}",
            "fail_ratio", "", "0%"
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool) -> Metric {
        Metric {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let scaled = |f: f64| base.map(|v| v * f);
        let m = metric(true);
        assert_eq!(judge(&m, &base, &scaled(1.05)).1, Verdict::Same);
        assert_eq!(judge(&m, &base, &scaled(1.2)).1, Verdict::Worse);
        assert_eq!(judge(&m, &base, &scaled(0.8)).1, Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&metric(false), &base, &scaled(0.8)).1, Verdict::Worse);
        // A spread wider than the bound, or a single sample, resolves nothing.
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&m, &base, &noisy).1, Verdict::Unresolved);
        assert_eq!(judge(&m, &base, &[10.0]).1, Verdict::Unresolved);
        let (ratio, _) = judge(&m, &base, &scaled(1.2));
        assert!((ratio - 1.2).abs() < 1e-9);
    }
}

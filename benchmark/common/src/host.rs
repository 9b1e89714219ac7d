//! The host block every output file carries, so two files can be
//! compared only when they were measured alike.

use crate::json::Json;
use std::process::Command;

/// Most threads/workers the benchmark ever asks any child for:
/// `min(nproc, 4)`. Every `--jobs`, `--workers` and `--sim-threads`
/// value goes through here.
pub fn max_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

/// 1-minute load average when the run started (Linux; `None` elsewhere).
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `nproc`, compiler, profile, commit and load — plus whatever the
/// caller adds (seed, iteration counts).
pub fn capture(extra: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut members = vec![
        ("nproc".to_string(), Json::Num(nproc() as f64)),
        ("max_threads".to_string(), Json::Num(max_threads() as f64)),
        (
            "rustc".to_string(),
            first_line("rustc", &["-V"]).map_or(Json::Null, Json::Str),
        ),
        ("cargo_profile".to_string(), Json::from("release")),
        (
            // A checkout that is not a git repository has no commit.
            "git_commit".to_string(),
            first_line("git", &["rev-parse", "HEAD"]).map_or(Json::Null, Json::Str),
        ),
        (
            "loadavg_1m".to_string(),
            loadavg_1m().map_or(Json::Null, Json::Num),
        ),
    ];
    members.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(members)
}

//! `serve-mix`: one `memnet serve --stdio` daemon and one closed-loop
//! client — the next request is sent only after the previous reply.
//!
//! The session is built so that what it costs does not depend on the
//! seed, only what it contains does. The key set is every built-in
//! workload (`small`, on 2 GPUs so that two sessions fit in a run) on
//! every organization; the cache holds about half of it.
//!
//! 1. `batch-cold`: one `batch` of every key, in key order, plus seeded
//!    duplicates at the end (deduplicated by the daemon). The cache
//!    overflows: afterwards it holds the last `cache` keys, and the first
//!    `keys − cache` (the *tail*) have been computed and evicted.
//! 2. `zipf-runs`: single `run` requests in a seeded order — each tail
//!    key once (a certain miss, re-computed, evicting the oldest entry)
//!    among Zipf(1.0) draws over the 8 most recently inserted keys (the
//!    *hot* keys, which therefore stay resident). A seeded tenth of the
//!    requests carry the workload as an inline `model` object.
//! 3. `hit-loop`: round trips over the hot keys, with the client and the
//!    daemon's request thread on one CPU (see `child::share_one_cpu`).
//!
//! Phases 2 and 3 are interleaved in twenty slices each (see `SLICES`).
//!
//! A plain Zipf draw over all keys would make the number and the cost of
//! misses — 13 to 500 ms each — vary by a fifth from seed to seed; this
//! shape keeps the miss set fixed while the order, the duplicates, the
//! model-carrying requests and the hot-key sequence follow the seed.

use crate::child;
use crate::ctx::{all, ensure, Ctx, Ops};
use crate::{Measured, Pause};
use bench_common::json::{self, raw_elements, raw_member, raw_members, Json};
use bench_common::rng::{SplitMix64, Zipf};
use bench_common::spans::Spans;
use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdin, ChildStdout, Stdio};
use std::time::Instant;

pub const NAME: &str = "serve-mix";

const ORGS: [&str; 8] = [
    "pcie", "pcie-zc", "cmn", "cmn-zc", "gmn", "gmn-zc", "umn", "pcn",
];
/// Cheapest first, so that the tail — the keys computed twice — is the
/// cheap half of the set and the session fits its time budget.
const WORKLOADS: [&str; 15] = [
    "CG.S", "FT.S", "FWT", "VECADD", "SRAD", "STO", "CP", "3DFD", "RAY", "BP", "SP", "BH", "SCAN",
    "BFS", "KMN",
];
const HOT: usize = 8;
/// Sessions per end-to-end run; the fastest counts (see [`run`]).
pub const SESSIONS: usize = 2;
/// `zipf-runs` and `hit-loop` are cut into this many slices each, taken
/// in turn, so that the hits are sampled over the ~5 s of the cold runs
/// and not in one 0.1 s window: interference on a shared host comes in
/// bursts of seconds, and a median over a window inside one burst is the
/// burst's, not the code's.
const SLICES: usize = 20;

/// Reply deadlines, seconds: about ten times the medians recorded on the
/// reference host (batch 10 s, cold run 0.15 s); a hit (30 µs) gets 50 ms,
/// because one scheduler hiccup is not a failed operation.
const BATCH_DEADLINE_S: f64 = 100.0;
const COLD_DEADLINE_S: f64 = 5.0;
const HIT_DEADLINE_S: f64 = 0.05;

/// How big a session is.
pub struct Sizes {
    workloads: usize,
    cache: usize,
    duplicates: usize,
    zipf_runs: usize,
    hit_loop: usize,
}

impl Sizes {
    pub fn of(ctx: &Ctx) -> Sizes {
        if ctx.smoke {
            Sizes {
                workloads: 3,
                cache: 16,
                duplicates: 4,
                zipf_runs: 60,
                hit_loop: 200,
            }
        } else {
            Sizes {
                workloads: WORKLOADS.len(),
                cache: 64,
                duplicates: 24,
                zipf_runs: 400,
                hit_loop: 5_000,
            }
        }
    }

    fn keys(&self) -> usize {
        self.workloads * ORGS.len()
    }

    fn tail(&self) -> usize {
        self.keys() - self.cache
    }
}

/// The generated inputs of one session.
pub struct Inputs {
    sizes: Sizes,
    batch: String,
    /// Key of each job in `batch`.
    batch_keys: Vec<usize>,
    /// (key, request line) of the zipf-runs phase.
    zipf: Vec<(usize, String)>,
    /// (key, request line) of the hit-loop phase.
    hits: Vec<(usize, String)>,
}

/// The `params` object of key `key`, by workload name or — when `model`
/// holds the compact small models — by inline model.
fn params(key: usize, models: Option<&[String]>) -> String {
    let (w, org) = (key / ORGS.len(), ORGS[key % ORGS.len()]);
    match models {
        Some(m) => format!(r#"{{"org":"{org}","gpus":2,"model":{}}}"#, m[w]),
        None => format!(
            r#"{{"org":"{org}","gpus":2,"workload":"{}","small":true}}"#,
            WORKLOADS[w]
        ),
    }
}

fn run_line(id: usize, key: usize, models: Option<&[String]>) -> String {
    format!(
        r#"{{"id":{id},"method":"run","params":{}}}"#,
        params(key, models)
    )
}

/// Reads the small models `bench-layers small-models` wrote and makes
/// the request sequence of `ctx.seed`.
pub fn generate(ctx: &Ctx) -> Result<Inputs, String> {
    let sizes = Sizes::of(ctx);
    let models: Vec<String> = WORKLOADS[..sizes.workloads]
        .iter()
        .map(|w| {
            let path = ctx
                .out
                .join("models-small")
                .join(format!("{}.json", w.to_lowercase()));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(json::parse(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .write())
        })
        .collect::<Result<_, String>>()?;
    let mut rng = SplitMix64::new(ctx.seed);
    let (keys, tail) = (sizes.keys(), sizes.tail());

    let mut batch_keys: Vec<usize> = (0..keys).collect();
    batch_keys.extend((0..sizes.duplicates).map(|_| rng.below(keys)));
    let jobs: Vec<String> = batch_keys.iter().map(|&k| params(k, None)).collect();
    let batch = format!(
        r#"{{"id":0,"method":"batch","params":{{"jobs":[{}]}}}}"#,
        jobs.join(",")
    );

    let hot = |rank: usize| keys - 1 - rank;
    let zipf = Zipf::new(HOT, 1.0);
    let mut order: Vec<usize> = (0..tail).collect();
    order.extend(
        zipf.sequence(&mut rng, sizes.zipf_runs - tail)
            .into_iter()
            .map(hot),
    );
    rng.shuffle(&mut order);
    let zipf = order
        .into_iter()
        .enumerate()
        .map(|(i, key)| {
            (
                key,
                run_line(i + 1, key, (rng.below(10) == 0).then_some(&models[..])),
            )
        })
        .collect();

    let hits = (0..sizes.hit_loop)
        .map(|i| {
            let key = hot(rng.below(HOT));
            (key, run_line(i + 1, key, None))
        })
        .collect();
    Ok(Inputs {
        sizes,
        batch,
        batch_keys,
        zipf,
        hits,
    })
}

/// The daemon's two pipe ends.
struct Pipe {
    tx: ChildStdin,
    rx: BufReader<ChildStdout>,
}

impl Pipe {
    /// One round trip: the reply line and its latency in seconds.
    fn ask(&mut self, line: &str) -> Result<(String, f64), String> {
        let sent = Instant::now();
        self.tx
            .write_all(line.as_bytes())
            .and_then(|()| self.tx.write_all(b"\n"))
            .and_then(|()| self.tx.flush())
            .map_err(|e| format!("daemon stdin: {e}"))?;
        let mut reply = String::new();
        let n = self
            .rx
            .read_line(&mut reply)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        let latency = sent.elapsed().as_secs_f64();
        ensure(n > 0, || "the daemon closed its stdout".into())?;
        Ok((reply, latency))
    }
}

/// What the client remembers about a key: its fingerprint and the report
/// bytes of its first cold reply.
type First = Option<(String, String)>;

/// Checks one `run` result or batch entry against what key `key` first
/// returned, and returns whether it was served from cache.
fn check(
    entry: &str,
    first: &mut First,
    latency: f64,
    deadline: f64,
) -> (bool, Result<(), String>) {
    let members = raw_members(entry).unwrap_or_default();
    let member = |key: &str| members.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
    let cached = member("cached") == Some("true");
    let (fingerprint, report) = (member("fingerprint"), member("report"));
    let outcome = all([
        ensure(member("error").is_none(), || {
            format!("error reply: {}", entry.trim())
        }),
        ensure(latency <= deadline, || {
            format!("took {latency:.3} s, deadline {deadline} s")
        }),
        ensure(fingerprint.is_some() && report.is_some(), || {
            "reply without fingerprint/report".into()
        }),
        ensure(
            report.is_none_or(|r| !r.contains("\"timed_out\":true")),
            || "the report says timed_out".into(),
        ),
        // An inline model must land on its built-in twin's fingerprint, and
        // any later reply must carry the first cold reply's bytes.
        match (&*first, fingerprint, report) {
            (Some((fp, bytes)), Some(f), Some(r)) => all([
                ensure(fp == f, || {
                    format!("fingerprint {f} differs from the key's first, {fp}")
                }),
                ensure(bytes == r, || {
                    "report bytes differ from the first cold reply".into()
                }),
            ]),
            _ => Ok(()),
        },
    ]);
    if let (None, Some(f), Some(r)) = (&*first, fingerprint, report) {
        *first = Some((f.to_string(), r.to_string()));
    }
    (cached, outcome)
}

/// One daemon session in progress.
struct Session<'a> {
    pipe: Pipe,
    /// What each key first returned, this session.
    first: Vec<First>,
    ops: &'a mut Ops,
    spans: &'a mut Spans,
    traced: bool,
}

impl Session<'_> {
    /// One `run` round trip for `key`: checks the reply, counts the op,
    /// and returns (served from cache, latency in seconds).
    fn request(&mut self, key: usize, line: &str, deadline: f64) -> Result<(bool, f64), String> {
        let start_ns = self.spans.now_ns();
        let (reply, latency) = self.pipe.ask(line)?;
        let result = raw_member(&reply, &["result"]).unwrap_or(&reply);
        let (cached, outcome) = check(result, &mut self.first[key], latency, deadline);
        if self.traced {
            let name = if cached { "run hit" } else { "run cold" };
            self.spans.add(name, NAME, start_ns, self.spans.now_ns());
        }
        self.ops.record(NAME, outcome);
        Ok((cached, latency))
    }
}

/// What one session measured.
struct SessionTimes {
    wall_s: f64,
    batch_cold_s: f64,
    zipf_s: f64,
    hit_loop_s: f64,
    peak_rss_mb: f64,
    /// (key, ms) of every reply that was not served from cache.
    cold_ms: Vec<(usize, f64)>,
    /// Round-trip µs of each hit-loop slice.
    hit_us: Vec<Vec<f64>>,
    stats: Json,
}

/// Runs one session: spawn, ping, the three phases, `stats`, `shutdown`.
fn session(
    ctx: &Ctx,
    inputs: &Inputs,
    ops: &mut Ops,
    spans: &mut Spans,
    traced: bool,
    pause: Pause,
) -> Result<SessionTimes, String> {
    let sizes = &inputs.sizes;
    let started = Instant::now();
    let mut daemon = ctx
        .memnet()
        .args([
            "serve",
            "--stdio",
            "--cache",
            &sizes.cache.to_string(),
            "--workers",
            &ctx.threads(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("memnet serve: {e}"))?;
    let mut s = Session {
        pipe: Pipe {
            tx: daemon.stdin.take().expect("stdin was piped"),
            rx: BufReader::new(daemon.stdout.take().expect("stdout was piped")),
        },
        first: vec![None; sizes.keys()],
        ops,
        spans,
        traced,
    };
    // Warm: the daemon is up and has answered once before the clock starts.
    let (pong, _) = s.pipe.ask(r#"{"id":0,"method":"ping"}"#)?;
    ensure(pong.contains("pong"), || format!("ping answered {pong}"))?;

    let whole = s.spans.open("session", NAME);
    let t0 = Instant::now();

    let phase = s.spans.open("batch-cold", NAME);
    let (reply, batch_cold_s) = s.pipe.ask(&inputs.batch)?;
    s.spans.close(phase);
    let entries = raw_member(&reply, &["result", "jobs"])
        .and_then(raw_elements)
        .unwrap_or_default();
    ensure(entries.len() == inputs.batch_keys.len(), || {
        format!(
            "batch of {} jobs answered with {} entries: {reply:.200}",
            inputs.batch_keys.len(),
            entries.len()
        )
    })?;
    for (entry, &key) in entries.iter().zip(&inputs.batch_keys) {
        let (_, outcome) = check(entry, &mut s.first[key], batch_cold_s, BATCH_DEADLINE_S);
        s.ops.record(NAME, outcome);
    }

    // zipf-runs and hit-loop, a slice of each in turn.
    let (mut zipf_s, mut hit_loop_s, mut paused_s) = (0.0, 0.0, 0.0);
    let (mut cold_ms, mut hit_us) = (Vec::new(), Vec::new());
    let slices = |n: usize| {
        (0..=SLICES)
            .map(move |c| c * n / SLICES)
            .collect::<Vec<_>>()
    };
    let (zipf_at, hits_at) = (slices(inputs.zipf.len()), slices(inputs.hits.len()));
    for c in 0..SLICES {
        let phase = s.spans.open("zipf-runs", NAME);
        let t = Instant::now();
        for (key, line) in &inputs.zipf[zipf_at[c]..zipf_at[c + 1]] {
            let (cached, latency) = s.request(*key, line, COLD_DEADLINE_S)?;
            if !cached {
                cold_ms.push((*key, latency * 1e3));
            }
        }
        zipf_s += t.elapsed().as_secs_f64();
        s.spans.close(phase);

        // No run is in flight during a hit slice, so nothing else needs
        // the second CPU.
        let pinned = child::share_one_cpu(&daemon)
            .map_err(|e| format!("pinning the hit loop to one CPU: {e}"))?;
        let phase = s.spans.open("hit-loop", NAME);
        let t = Instant::now();
        let mut slice = Vec::new();
        for (key, line) in &inputs.hits[hits_at[c]..hits_at[c + 1]] {
            slice.push(s.request(*key, line, HIT_DEADLINE_S)?.1 * 1e6);
        }
        hit_us.push(slice);
        hit_loop_s += t.elapsed().as_secs_f64();
        s.spans.close(phase);
        drop(pinned);

        if c % (SLICES / 4) == 0 {
            let t = Instant::now();
            pause()?;
            paused_s += t.elapsed().as_secs_f64();
        }
    }

    let (stats, _) = s.pipe.ask(r#"{"id":0,"method":"stats"}"#)?;
    let (bye, _) = s.pipe.ask(r#"{"id":0,"method":"shutdown"}"#)?;
    let wall_s = t0.elapsed().as_secs_f64() - paused_s;
    s.spans.close(whole);
    ensure(bye.contains("\"ok\":true"), || {
        format!("shutdown answered {bye}")
    })?;
    drop(s);
    let exit = child::reap(&daemon, started).map_err(|e| format!("waiting for the daemon: {e}"))?;
    ensure(exit.ok, || "the daemon exited with a failure".into())?;
    Ok(SessionTimes {
        wall_s,
        batch_cold_s,
        zipf_s,
        hit_loop_s,
        peak_rss_mb: exit.peak_rss_mb,
        cold_ms,
        hit_us,
        stats: json::parse(&stats)
            .ok()
            .and_then(|s| s.get("result").cloned())
            .unwrap_or(Json::Null),
    })
}

/// Runs `sessions` identical sessions. With `traced`, every request gets
/// a span. `pause` is called four times per session, between slices; the
/// time it takes is not the session's.
///
/// Interference on a shared host only adds time, so what is kept of the
/// sessions is the fastest: the fastest session's wall-clock, each key's
/// fastest cold reply, and (in `Measured::hit_us_p50`) the quietest hit
/// slice.
pub fn run(
    ctx: &Ctx,
    inputs: &Inputs,
    spans: &mut Spans,
    traced: bool,
    sessions: usize,
    pause: Pause,
) -> Result<Measured, String> {
    let sizes = &inputs.sizes;
    let mut m = Measured::default();
    let mut cold_by_key = vec![f64::INFINITY; sizes.keys()];
    let mut fastest: Option<SessionTimes> = None;
    for _ in 0..sessions {
        let t = session(ctx, inputs, &mut m.ops, spans, traced, &mut *pause)?;
        m.wall_s.push(t.wall_s);
        m.peak_rss_mb = m.peak_rss_mb.max(t.peak_rss_mb);
        for &(key, ms) in &t.cold_ms {
            cold_by_key[key] = cold_by_key[key].min(ms);
        }
        m.hit_us.extend(t.hit_us.iter().cloned());
        if fastest.as_ref().is_none_or(|f| t.wall_s < f.wall_s) {
            fastest = Some(t);
        }
    }
    m.cold_ms = cold_by_key
        .into_iter()
        .filter(|ms| ms.is_finite())
        .collect();
    let f = fastest.ok_or("serve-mix needs at least one session")?;
    m.detail = Json::obj([
        ("clients", Json::Num(1.0)),
        ("loop", Json::from("closed")),
        ("sessions", Json::Num(sessions as f64)),
        ("keys", Json::Num(sizes.keys() as f64)),
        ("cache", Json::Num(sizes.cache as f64)),
        ("batch_jobs", Json::Num(inputs.batch_keys.len() as f64)),
        ("zipf_runs", Json::Num(inputs.zipf.len() as f64)),
        ("cold_keys", Json::Num(m.cold_ms.len() as f64)),
        ("hit_loop", Json::Num(inputs.hits.len() as f64)),
        // Of the fastest session:
        ("batch_cold_s", Json::Num(f.batch_cold_s)),
        ("zipf_s", Json::Num(f.zipf_s)),
        ("hit_loop_s", Json::Num(f.hit_loop_s)),
        ("stats", f.stats),
    ]);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A context over hand-made "models" (any JSON object will do for
    /// generation).
    fn ctx(seed: u64, tag: &str) -> Ctx {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../out/test-serve-{tag}-{}", std::process::id()));
        let models = out.join("models-small");
        std::fs::create_dir_all(&models).expect("test dir");
        for w in WORKLOADS {
            std::fs::write(
                models.join(format!("{}.json", w.to_lowercase())),
                format!("{{ \"abbr\": \"{w}\" }}"),
            )
            .expect("model file");
        }
        Ctx {
            bin: PathBuf::new(),
            out,
            seed,
            seconds: 1.0,
            smoke: false,
        }
    }

    #[test]
    fn inputs_follow_the_seed_but_their_cost_does_not() {
        let (a, b, c) = (ctx(1, "a"), ctx(1, "b"), ctx(2, "c"));
        let (ia, ib, ic) = (
            generate(&a).unwrap(),
            generate(&b).unwrap(),
            generate(&c).unwrap(),
        );
        assert_eq!((&ia.batch, &ia.batch_keys), (&ib.batch, &ib.batch_keys));
        assert_eq!(ia.zipf, ib.zipf, "same seed, same requests");
        assert_ne!(ia.zipf, ic.zipf, "another seed, another sequence");
        assert_ne!(ia.batch, ic.batch, "another seed, other duplicates");
        assert_ne!(ia.hits, ic.hits);

        for inputs in [&ia, &ic] {
            let s = &inputs.sizes;
            assert_eq!((s.keys(), s.tail()), (120, 56));
            assert_eq!(
                raw_member(&inputs.batch, &["params", "jobs"])
                    .and_then(raw_elements)
                    .map(|j| j.len()),
                Some(144)
            );
            assert_eq!(inputs.zipf.len(), 400);
            // Every tail key exactly once; everything else is a hot key.
            for k in 0..s.tail() {
                assert_eq!(inputs.zipf.iter().filter(|(key, _)| *key == k).count(), 1);
            }
            assert!(inputs
                .zipf
                .iter()
                .all(|(k, _)| *k < s.tail() || *k >= s.keys() - HOT));
            let models = inputs
                .zipf
                .iter()
                .filter(|(_, l)| l.contains("\"model\""))
                .count();
            assert!(
                (20..=60).contains(&models),
                "about a tenth carry a model: {models}"
            );
            assert!(inputs.hits.iter().all(|(k, _)| *k >= s.keys() - HOT));
        }
        for c in [a, b, c] {
            std::fs::remove_dir_all(&c.out).expect("clean up");
        }
    }

    #[test]
    fn check_compares_with_the_first_reply() {
        let mut first = None;
        let cold =
            r#"{"cached":false,"fingerprint":"00ab","report":{"total_ns":1.5,"timed_out":false}}"#;
        assert_eq!(check(cold, &mut first, 0.1, 1.0), (false, Ok(())));
        let hit = cold.replace("false,\"fing", "true,\"fing");
        assert_eq!(check(&hit, &mut first, 0.1, 1.0), (true, Ok(())));
        assert!(check(&hit, &mut first, 2.0, 1.0)
            .1
            .unwrap_err()
            .contains("deadline"));
        assert!(check(&hit.replace("1.5", "1.50"), &mut first, 0.1, 1.0)
            .1
            .unwrap_err()
            .contains("bytes differ"));
        assert!(check(&hit.replace("00ab", "00ac"), &mut first, 0.1, 1.0)
            .1
            .unwrap_err()
            .contains("fingerprint"));
        assert!(check(r#"{"error":"boom"}"#, &mut first, 0.1, 1.0)
            .1
            .unwrap_err()
            .contains("error reply"));
        let late = r#"{"cached":false,"fingerprint":"01","report":{"timed_out":true}}"#;
        assert!(check(late, &mut None, 0.1, 1.0)
            .1
            .unwrap_err()
            .contains("timed_out"));
    }
}

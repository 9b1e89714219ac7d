//! The serve protocol and its stdio / TCP daemons.
//!
//! One request per line, one compact-JSON response per line. The
//! [`Server`] is transport-agnostic — [`Server::handle_line`] maps a
//! request line to a [`Reply`] — and the two thin daemons
//! ([`serve_stdio`], [`TcpDaemon`]) feed it lines through one reader that
//! buffers at most [`MAX_LINE_BYTES`] of a line. The stdio daemon
//! processes requests sequentially; the TCP daemon accepts connections
//! concurrently (one handler thread per peer) but serializes every
//! request through one mutex around the [`Server`], so each connection
//! still sees its responses in request order and the shared result
//! cache behaves deterministically.
//!
//! Cached reports are spliced into responses **verbatim**: the `report`
//! member of a cache hit is the exact byte string the first run
//! produced. Everything around it is assembled with the `memnet-obs`
//! JSON writer. Every line is read from its text by the one strict reader
//! (`memnet_obs::Fields`); a repeat `run` is answered without a tree.
//!
//! Like the engine pool, the daemon times real work (`busy_ms` in
//! `stats`): the one `Instant::now` and the thread sites each carry an
//! `allow(clippy::disallowed_methods)` (DESIGN §9a). No wall-clock value
//! feeds simulated state.

use crate::cache::ResultCache;
use crate::job::JobSpec;
use memnet_engine::{run_jobs_observed, PoolConfig};
use memnet_obs::{parse, Field, JsonWriter, MetricsRegistry, ToJson};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Result-cache capacity in reports.
    pub cache_capacity: usize,
    /// Pool worker threads for batch misses; 0 = all cores.
    pub workers: usize,
    /// Extra pool attempts after a panicked run.
    pub retries: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 128,
            workers: 0,
            retries: 0,
        }
    }
}

/// One response line plus whether the daemon should stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Compact JSON, no trailing newline.
    pub text: String,
    /// True after a `shutdown` request was acknowledged.
    pub shutdown: bool,
}

/// A JSON string literal (quoted, escaped) for `s`.
fn json_str(s: &str) -> String {
    let mut w = JsonWriter::new();
    w.string(s);
    w.finish()
}

/// `{"id":<id>,"result":<body>}`, with `body` written straight into the
/// reply: one buffer, sized for `body_len` bytes of result and the
/// newline the transport appends.
fn ok_reply(id: &str, body_len: usize, body: impl FnOnce(&mut String)) -> String {
    let mut out = String::with_capacity(id.len() + body_len + 18);
    out.push_str("{\"id\":");
    out.push_str(id);
    out.push_str(",\"result\":");
    body(&mut out);
    out.push('}');
    out
}

fn ok_line(id: &str, result_body: &str) -> String {
    ok_reply(id, result_body.len(), |out| out.push_str(result_body))
}

fn err_line(id: &str, message: &str) -> String {
    format!(
        "{{\"id\":{id},\"error\":{{\"message\":{}}}}}",
        json_str(message)
    )
}

/// Bytes of a `run` result besides its report.
const RUN_BODY_BYTES: usize = 59;

/// Writes the `run` result; `report` is spliced verbatim.
fn run_body(out: &mut String, cached: bool, fingerprint: u64, report: &str) {
    out.push_str(if cached {
        "{\"cached\":true"
    } else {
        "{\"cached\":false"
    });
    out.push_str(",\"fingerprint\":\"");
    // `{fingerprint:016x}` without the formatting machinery.
    for shift in (0..16).rev() {
        out.push(char::from(
            b"0123456789abcdef"[(fingerprint >> (4 * shift)) as usize & 0xf],
        ));
    }
    out.push_str("\",\"report\":");
    out.push_str(report);
    out.push('}');
}

/// One entry of a `batch` result; `report` is spliced verbatim.
fn batch_entry(cached: bool, deduped: bool, fingerprint: u64, report: &str) -> String {
    format!(
        "{{\"cached\":{cached},\"deduped\":{deduped},\
         \"fingerprint\":\"{fingerprint:016x}\",\"report\":{report}}}"
    )
}

/// Params values the memo holds per result-cache entry. serve-mix spells
/// each configuration at most two ways, by workload name and by inline
/// model (seeds 1–10: 120 configurations, 128–134 distinct params values
/// per session, never more than two per configuration), so twice the
/// capacity holds both spellings of every cached configuration.
const MEMO_PER_ENTRY: usize = 2;

/// Summed key bytes the memo holds: one request line's worth. An inline
/// model's `name` is unbounded, so the entry count alone does not bound
/// the memo's memory; a key longer than this is not memoized.
const MEMO_KEY_BYTES: usize = MAX_LINE_BYTES;

/// How one job of a request was served.
struct Served {
    cached: bool,
    deduped: bool,
    fingerprint: u64,
    report: Arc<str>,
}

/// How one batch job resolved during classification.
enum Slot {
    /// Settled without a run: a parse error, or a cache hit, whose shared
    /// bytes stay valid if a later insert in the same batch evicts them.
    Done(Result<Served, String>),
    /// Scheduled as (or deduplicated onto) unique job `index`.
    Run {
        fingerprint: u64,
        index: usize,
        deduped: bool,
    },
}

/// The sim-as-a-service request handler: content-addressed result cache
/// in front of the pool-backed simulator.
pub struct Server {
    pool: PoolConfig,
    cache: ResultCache,
    /// Fingerprint of each params value already parsed, keyed by the
    /// bytes it was sent as (see [`Server::resolve`]).
    memo: BTreeMap<String, u64>,
    /// Summed length of the memo's keys.
    memo_bytes: usize,
    metrics: MetricsRegistry,
    /// Wall-clock spent inside simulation runs, milliseconds.
    busy_ms: u64,
}

impl Server {
    /// Creates a server with the given tuning knobs.
    pub fn new(cfg: &ServeConfig) -> Server {
        Server {
            pool: PoolConfig {
                workers: cfg.workers,
                retries: cfg.retries,
            },
            cache: ResultCache::new(cfg.cache_capacity),
            memo: BTreeMap::new(),
            memo_bytes: 0,
            metrics: MetricsRegistry::new(),
            busy_ms: 0,
        }
    }

    /// The server's metric counters (`cache.hit` / `cache.miss` /
    /// `cache.evict` / `cache.dedup`, `pool.*`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Handles one request line, producing one response line. The
    /// envelope is read as strictly as the job inside it: an unknown or
    /// duplicate key (`"parms"`) is an error reply, never a default job.
    pub fn handle_line(&mut self, line: &str) -> Reply {
        let mut shutdown = false;
        let mut id = String::from("null");
        let text = self
            .dispatch(line, &mut id, &mut shutdown)
            .unwrap_or_else(|e| err_line(&id, &e));
        Reply { text, shutdown }
    }

    /// Reads the envelope and runs the method, returning the reply; `id`
    /// is filled in as soon as it is known so an error reply can still
    /// echo it. A `run` reply is written once, into one buffer.
    fn dispatch(
        &mut self,
        line: &str,
        id: &mut String,
        shutdown: &mut bool,
    ) -> Result<String, String> {
        let request = Field::root(line, "").map_err(|e| e.to_string());
        let envelope = request
            .and_then(|r| r.object())
            .map_err(|e| format!("bad request: {e}"))?;
        if let Some(x) = envelope.opt("id")? {
            // Echoed re-written, as a tree writes it: `1.50` as `1.5`.
            *id = parse(x.raw()).map_err(|e| e.to_string())?.to_json();
        }
        let method = envelope.req("method")?.str()?;
        let params = match envelope.opt("params")? {
            Some(params) => params,
            None => Field::root("{}", "params").map_err(|e| e.to_string())?,
        };
        envelope.finish()?;
        let body = match &*method {
            "run" => {
                let (mut served, _) = self.serve(&[params]);
                let s = served
                    .pop()
                    .unwrap_or_else(|| Err("no job was served".into()))?;
                let len = s.report.len() + RUN_BODY_BYTES;
                return Ok(ok_reply(id, len, |out| {
                    run_body(out, s.cached, s.fingerprint, &s.report);
                }));
            }
            "batch" => {
                let batch = params.object()?;
                let jobs = batch.req("jobs")?.list(Ok)?;
                batch.finish()?;
                return Ok(ok_line(id, &self.run_batch(&jobs)));
            }
            "ping" => "{\"pong\":true}".to_string(),
            "stats" => self.stats_body(),
            "shutdown" => "{\"ok\":true}".to_string(),
            other => return Err(format!("unknown method '{other}'")),
        };
        // These three take no parameters at all.
        params.record(|_| Ok(()))?;
        *shutdown = method == "shutdown";
        Ok(ok_line(id, &body))
    }

    /// Resolves one job's `params` to its cache address. A value this
    /// server has parsed before is answered from the memo, with neither a
    /// parse nor a fingerprint; otherwise the spec is parsed and returned
    /// beside its address, so a miss does not parse it twice.
    ///
    /// The memo key is the value's bytes as sent: a `run`'s `params`, a
    /// batch's `jobs[i]`, `{}` for a `run` without params. Two spellings
    /// of one value are two entries with one fingerprint: whitespace,
    /// escapes and key order all split a key. Only an accepted value is
    /// memoized, so a refused one is refused every time. A job naming a
    /// `workload_file` is never memoized: the file can change between
    /// requests. The memo is cleared before it would pass
    /// [`MEMO_PER_ENTRY`] × the cache capacity entries or
    /// [`MEMO_KEY_BYTES`] of keys.
    fn resolve(&mut self, params: Field) -> Result<(u64, Option<JobSpec>), String> {
        let key = params.raw();
        if let Some(&fingerprint) = self.memo.get(key) {
            return Ok((fingerprint, None));
        }
        let spec = JobSpec::from_field(params)?;
        let fingerprint = spec.fingerprint();
        let from_file = params.object()?.opt("workload_file")?.is_some();
        if !from_file && key.len() <= MEMO_KEY_BYTES {
            if self.memo.len() >= self.cache.capacity().saturating_mul(MEMO_PER_ENTRY)
                || self.memo_bytes + key.len() > MEMO_KEY_BYTES
            {
                self.memo.clear();
                self.memo_bytes = 0;
            }
            self.memo_bytes += key.len();
            self.memo.insert(key.to_string(), fingerprint);
        }
        Ok((fingerprint, Some(spec)))
    }

    /// Serves jobs in order: a job that does not parse is an error, a
    /// cached one a hit, and the rest run on the pool once each — a
    /// duplicate of an earlier miss is deduplicated onto it. Returns each
    /// job's outcome and the number deduplicated. A `run` request is a
    /// batch of one.
    fn serve(&mut self, jobs: &[Field]) -> (Vec<Result<Served, String>>, u64) {
        let mut slots = Vec::with_capacity(jobs.len());
        let mut unique: Vec<JobSpec> = Vec::new();
        let mut unique_fps: Vec<u64> = Vec::new();
        let mut deduped = 0u64;
        for &job in jobs {
            let (fingerprint, parsed) = match self.resolve(job) {
                Ok(resolved) => resolved,
                Err(e) => {
                    slots.push(Slot::Done(Err(e)));
                    continue;
                }
            };
            if let Some(report) = self.cache.get(fingerprint) {
                self.metrics.add("cache.hit", 1);
                slots.push(Slot::Done(Ok(Served {
                    cached: true,
                    deduped: false,
                    fingerprint,
                    report,
                })));
            } else if let Some(index) = unique_fps.iter().position(|&f| f == fingerprint) {
                deduped += 1;
                self.metrics.add("cache.dedup", 1);
                slots.push(Slot::Run {
                    fingerprint,
                    index,
                    deduped: true,
                });
            } else {
                let spec = match parsed.map_or_else(|| JobSpec::from_field(job), Ok) {
                    Ok(spec) => spec,
                    Err(e) => {
                        slots.push(Slot::Done(Err(e)));
                        continue;
                    }
                };
                self.metrics.add("cache.miss", 1);
                slots.push(Slot::Run {
                    fingerprint,
                    index: unique.len(),
                    deduped: false,
                });
                unique_fps.push(fingerprint);
                unique.push(spec);
            }
        }
        let outcomes = self.execute(unique);
        for (&fingerprint, outcome) in unique_fps.iter().zip(&outcomes) {
            if let Ok(report) = outcome {
                if self.cache.insert(fingerprint, Arc::clone(report)) {
                    self.metrics.add("cache.evict", 1);
                }
            }
        }
        let served = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(served) => served,
                Slot::Run {
                    fingerprint,
                    index,
                    deduped,
                } => outcomes[index].clone().map(|report| Served {
                    cached: false,
                    deduped,
                    fingerprint,
                    report,
                }),
            })
            .collect();
        (served, deduped)
    }

    fn run_batch(&mut self, jobs: &[Field]) -> String {
        let (served, deduped) = self.serve(jobs);
        let entries: Vec<String> = served
            .iter()
            .map(|s| match s {
                Ok(s) => batch_entry(s.cached, s.deduped, s.fingerprint, &s.report),
                Err(e) => format!("{{\"error\":{}}}", json_str(e)),
            })
            .collect();
        format!("{{\"deduped\":{deduped},\"jobs\":[{}]}}", entries.join(","))
    }

    /// Runs specs on the work pool (panic isolation, ordered results),
    /// reducing each outcome to compact report JSON or an error message.
    fn execute(&mut self, specs: Vec<JobSpec>) -> Vec<Result<Arc<str>, String>> {
        if specs.is_empty() {
            return Vec::new();
        }
        #[allow(clippy::disallowed_methods, reason = "busy_ms: host timing, never simulated state")]
        let started = Instant::now();
        let sims: Vec<_> = specs
            .into_iter()
            .map(|spec| move || spec.builder().try_run())
            .collect();
        let (outcomes, obs) = run_jobs_observed(&self.pool, sims);
        self.busy_ms = self
            .busy_ms
            .wrapping_add(started.elapsed().as_millis() as u64);
        self.metrics.add("pool.jobs", obs.stats.jobs as u64);
        self.metrics.add("pool.retries", obs.stats.retries);
        self.metrics.add("pool.panics", obs.stats.panics);
        outcomes
            .into_iter()
            .map(|outcome| match outcome {
                Ok(Ok(report)) => Ok(report.to_json_compact().into()),
                Ok(Err(e)) => Err(format!("simulation error: {e}")),
                Err(e) => Err(format!("job failed: {e}")),
            })
            .collect()
    }

    fn stats_body(&self) -> String {
        let count = |name: &str| self.metrics.counter(name);
        let mut w = JsonWriter::new();
        w.begin_object();
        w.object_field(
            "cache",
            [
                ("entries", self.cache.len() as u64),
                ("capacity", self.cache.capacity() as u64),
                ("hits", count("cache.hit")),
                ("misses", count("cache.miss")),
                ("evicts", count("cache.evict")),
                ("dedup", count("cache.dedup")),
            ],
        );
        w.object_field(
            "pool",
            [
                ("jobs", count("pool.jobs")),
                ("retries", count("pool.retries")),
                ("panics", count("pool.panics")),
            ],
        );
        w.field("busy_ms", &self.busy_ms);
        w.end_object();
        w.finish()
    }
}

/// Longest request line a daemon will buffer, in bytes. The largest
/// request the perf ledger sends, a 120-job batch, is a few KB.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Longest a TCP read or write blocks before its session checks whether
/// the daemon is stopping.
const POLL: Duration = Duration::from_millis(50);

/// Writes `text` and its newline in one write, so a TCP peer does not
/// wait out its delayed ACK for a lone newline. A write that times out
/// keeps what it sent and is retried, so a slow reader still gets the
/// whole line, until `stopped()` answers true: then the timeout is
/// returned and ends the session.
fn send_line(writer: &mut impl Write, text: String, stopped: &impl Fn() -> bool) -> io::Result<()> {
    let mut line = text.into_bytes();
    line.push(b'\n');
    let mut rest = &line[..];
    while !rest.is_empty() {
        match writer.write(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stopped() {
                    return Err(e);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    writer.flush()
}

/// Serves one peer, stdio or TCP: reads newline-delimited requests from
/// `reader` and writes one reply line each to `writer`, until EOF, a
/// `shutdown` request (returns true), or `stopped()` answers true while a
/// read or a write timed out (a blocking stream never asks). A line longer
/// than [`MAX_LINE_BYTES`] is never buffered: it gets one error reply
/// naming the cap, the rest of it is read and dropped so the reply is not
/// lost to a connection reset, and the session ends.
fn serve_session(
    mut reader: impl BufRead,
    mut writer: impl Write,
    mut handle: impl FnMut(&str) -> Reply,
    stopped: impl Fn() -> bool,
) -> io::Result<bool> {
    let mut line = Vec::new();
    let mut too_long = false;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            // What has arrived of the line stays in `line`.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stopped() {
                    return Ok(false);
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let eof = buf.is_empty();
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i + 1);
        if !too_long && line.len() + take > MAX_LINE_BYTES {
            too_long = true;
            let why = format!("bad request: line exceeds the {MAX_LINE_BYTES}-byte limit");
            send_line(&mut writer, err_line("null", &why), &stopped)?;
        }
        if !too_long {
            line.extend_from_slice(&buf[..take]);
        }
        reader.consume(take);
        if newline.is_none() && !eof {
            continue;
        }
        if too_long {
            return Ok(false);
        }
        let text =
            std::str::from_utf8(&line).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
        if !text.trim().is_empty() {
            let reply = handle(text);
            send_line(&mut writer, reply.text, &stopped)?;
            if reply.shutdown {
                return Ok(true);
            }
        }
        if eof {
            return Ok(false);
        }
        line.clear();
    }
}

/// Serves newline-delimited requests from stdin to stdout until EOF or a
/// `shutdown` request.
pub fn serve_stdio(server: &mut Server) -> io::Result<()> {
    let (stdin, stdout) = (io::stdin().lock(), io::stdout().lock());
    serve_session(stdin, stdout, |line| server.handle_line(line), || false).map(|_| ())
}

/// A loopback TCP daemon: accepts connections concurrently — one
/// handler thread per peer, every request serialized through a mutex
/// around the shared [`Server`] — until a `shutdown` request arrives on
/// any connection.
pub struct TcpDaemon {
    listener: TcpListener,
}

/// Serves one TCP peer until it disconnects (or requests shutdown).
/// I/O errors end the connection, not the daemon.
fn handle_conn(
    conn: TcpStream,
    server: &Mutex<&mut Server>,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> io::Result<()> {
    // Poll rather than block forever so that neither an idle peer nor one
    // that stops reading its replies (and so fills the socket buffers)
    // can hold the daemon open after another connection requested
    // shutdown.
    conn.set_read_timeout(Some(POLL))?;
    conn.set_write_timeout(Some(POLL))?;
    // Each reply is one write; nothing is gained by holding it back.
    conn.set_nodelay(true)?;
    let shutdown = serve_session(
        BufReader::new(conn.try_clone()?),
        conn,
        |line| server.lock().expect("server lock").handle_line(line),
        || stop.load(Ordering::SeqCst),
    )?;
    if shutdown {
        // Flag the accept loop, then poke it with a throwaway
        // connection so a blocked `accept` wakes up and sees it.
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
    }
    Ok(())
}

impl TcpDaemon {
    /// Binds `127.0.0.1:port`; port 0 picks an ephemeral port (see
    /// [`TcpDaemon::local_addr`]).
    pub fn bind(port: u16) -> io::Result<TcpDaemon> {
        Ok(TcpDaemon {
            listener: TcpListener::bind(("127.0.0.1", port))?,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop until a `shutdown` request is served on any
    /// connection. Handler threads are joined before this returns, so
    /// in-flight requests finish their responses first; a reply that a
    /// peer still leaves unread once shutdown is requested ends that
    /// peer's session.
    #[allow(
        clippy::disallowed_methods,
        reason = "one handler thread per connection; jobs run on the pool"
    )]
    pub fn run(self, server: &mut Server) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        let server = Mutex::new(server);
        // A one-shot stop flag guarding no data; SeqCst on its cold paths
        // (set once at shutdown, read per timeout and per connection)
        // costs nothing.
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for conn in self.listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let conn = conn?;
                let (server, stop) = (&server, &stop);
                scope.spawn(move || {
                    if let Err(e) = handle_conn(conn, server, stop, addr) {
                        eprintln!("memnet serve: connection error: {e}");
                    }
                });
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(&ServeConfig::default())
    }

    const VECADD: &str =
        r#"{"id":1,"method":"run","params":{"workload":"vecadd","small":true,"gpus":2,"sms":2}}"#;

    /// The balanced JSON object starting at byte `at` of `text`.
    fn object_at(text: &str, at: usize) -> &str {
        let bytes = text.as_bytes();
        assert_eq!(bytes[at], b'{');
        let mut depth = 0usize;
        for (i, &b) in bytes.iter().enumerate().skip(at) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return &text[at..=i];
                    }
                }
                _ => {}
            }
        }
        panic!("unbalanced object in {text}");
    }

    fn report_of(response: &str) -> &str {
        let at = response.find("\"report\":").expect("response has a report");
        // The report object is the last member of the result object.
        &response[at + "\"report\":".len()..response.len() - "}}".len()]
    }

    #[test]
    fn ping_echoes_the_id() {
        let mut s = server();
        let r = s.handle_line(r#"{"id":"abc","method":"ping"}"#);
        assert_eq!(r.text, r#"{"id":"abc","result":{"pong":true}}"#);
        assert!(!r.shutdown);
    }

    #[test]
    fn shutdown_acknowledges_and_stops() {
        let mut s = server();
        let r = s.handle_line(r#"{"id":9,"method":"shutdown"}"#);
        assert_eq!(r.text, r#"{"id":9,"result":{"ok":true}}"#);
        assert!(r.shutdown);
    }

    /// Lines refused before any id is known or whose reply names no field,
    /// each with what its reply says.
    const UNREADABLE: [(&str, &str); 4] = [
        ("not json", "bad request"),
        (r#"{"id":1}"#, "missing field 'method'"),
        (r#"{"id":1,"method":"warp"}"#, "unknown method"),
        // JSON numbers have no leading zeros, so `02` is refused.
        (
            r#"{"id":1,"method":"run","params":{"gpus":02}}"#,
            "JSON error at byte 40: invalid number",
        ),
    ];

    /// Envelopes refused by what they hold, each with what its reply says.
    const REFUSED: [(&str, &str); 7] = [
        (
            r#"{"id":1,"method":"run","params":{"gpu":2}}"#,
            "unknown field 'params.gpu'",
        ),
        (
            r#"{"id":1,"method":"run","parms":{"gpus":2}}"#,
            "unknown field 'parms'",
        ),
        (
            r#"{"id":1,"method":"ping","method":"shutdown"}"#,
            "duplicate field 'method'",
        ),
        (
            r#"{"id":1,"method":"run","params":[]}"#,
            "'params' must be an object",
        ),
        (
            r#"{"id":1,"method":"stats","params":{"verbose":true}}"#,
            "unknown field 'params.verbose'",
        ),
        (
            r#"{"id":1,"method":"batch","params":{"jobs":[],"job":[]}}"#,
            "unknown field 'params.job'",
        ),
        (
            r#"{"id":1,"method":"batch","params":{}}"#,
            "missing field 'params.jobs'",
        ),
    ];

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        let mut s = server();
        for (line, want) in UNREADABLE {
            assert!(s.handle_line(line).text.contains(want), "{line}");
        }
        // The envelope is as strict as the job: a typo'd or repeated key
        // is an error reply that still echoes the id, never a default run.
        for (line, want) in REFUSED {
            let r = s.handle_line(line);
            assert!(
                r.text.starts_with(r#"{"id":1,"error":"#) && r.text.contains(want),
                "{line}: {}",
                r.text
            );
            assert!(!r.shutdown);
        }
        assert_eq!(s.metrics().counter("cache.miss"), 0, "nothing ran");
    }

    #[test]
    fn repeat_jobs_hit_the_cache_byte_identically() {
        let mut s = server();
        let first = s.handle_line(VECADD).text;
        assert!(first.contains("\"cached\":false"), "{first}");
        let second = s.handle_line(VECADD).text;
        assert!(second.contains("\"cached\":true"), "{second}");
        assert_eq!(
            report_of(&first),
            report_of(&second),
            "cache hit must splice the first run's bytes verbatim"
        );
        // Identical repeats produce identical responses from here on.
        assert_eq!(second, s.handle_line(VECADD).text);
        assert_eq!(s.metrics().counter("cache.hit"), 2);
        assert_eq!(s.metrics().counter("cache.miss"), 1);
    }

    #[test]
    fn an_envelope_spelling_its_keys_with_escapes_is_served_alike() {
        let escaped = VECADD
            .replace("\"method\"", r#""m\u0065thod""#)
            .replace("\"params\"", r#""p\u0061rams""#);
        assert_ne!(escaped, VECADD);
        let (mut plain, mut s) = (server(), server());
        let cold = s.handle_line(&escaped).text;
        assert_eq!(cold, plain.handle_line(VECADD).text);
        let warm = s.handle_line(&escaped).text;
        assert!(warm.contains("\"cached\":true"), "{warm}");
        assert_eq!(warm, plain.handle_line(VECADD).text);
        let ping = s.handle_line(r#"{"id":2,"m\u0065thod":"ping"}"#);
        assert_eq!(ping.text, r#"{"id":2,"result":{"pong":true}}"#);
    }

    #[test]
    fn engine_mode_shares_the_cache_entry() {
        // Bit-identity across engines (DESIGN §5) makes the fingerprint
        // engine-agnostic: a run computed under one engine serves the
        // other engine's request from cache.
        let mut s = server();
        let event = s.handle_line(
            r#"{"id":1,"method":"run","params":{"workload":"vecadd","small":true,"gpus":2,"sms":2,"engine":"event"}}"#,
        );
        let cycle = s.handle_line(
            r#"{"id":2,"method":"run","params":{"workload":"vecadd","small":true,"gpus":2,"sms":2,"engine":"cycle"}}"#,
        );
        assert!(event.text.contains("\"cached\":false"));
        assert!(cycle.text.contains("\"cached\":true"));
        assert_eq!(report_of(&event.text), report_of(&cycle.text));
    }

    #[test]
    fn batch_deduplicates_before_the_pool() {
        let mut s = server();
        let job = r#"{"workload":"vecadd","small":true,"gpus":2,"sms":2}"#;
        let other = r#"{"workload":"vecadd","small":true,"gpus":2,"sms":4}"#;
        let r = s
            .handle_line(&format!(
                r#"{{"id":1,"method":"batch","params":{{"jobs":[{job},{job},{other},{job},{{"bogus":1}}]}}}}"#
            ))
            .text;
        assert!(r.contains("\"deduped\":2"), "{r}");
        assert!(
            r.contains("unknown field 'params.jobs[4].bogus'"),
            "bad job reports inline: {r}"
        );
        // Only two simulations ran for the five submitted jobs.
        assert_eq!(s.metrics().counter("pool.jobs"), 2);
        assert_eq!(s.metrics().counter("cache.dedup"), 2);
        // Four entries carry reports (three copies of `job`, one `other`)
        // and all copies of the duplicate splice identical bytes.
        let starts: Vec<usize> = r.match_indices("\"report\":").map(|(i, _)| i + 9).collect();
        assert_eq!(starts.len(), 4, "bad job contributes no report");
        let reports: Vec<&str> = starts.iter().map(|&i| object_at(&r, i)).collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[3]);
        assert_ne!(reports[0], reports[2], "sms=4 is a different job");
        // A rerun of the same job is now a pure hit.
        let again = s.handle_line(&format!(
            r#"{{"id":2,"method":"batch","params":{{"jobs":[{job}]}}}}"#
        ));
        assert!(again.text.contains("\"cached\":true"));
    }

    #[test]
    fn eviction_is_counted_and_lru() {
        let mut s = Server::new(&ServeConfig {
            cache_capacity: 1,
            ..ServeConfig::default()
        });
        let a = r#"{"id":1,"method":"run","params":{"workload":"vecadd","small":true,"gpus":2,"sms":2}}"#;
        let b = r#"{"id":2,"method":"run","params":{"workload":"vecadd","small":true,"gpus":2,"sms":4}}"#;
        s.handle_line(a);
        s.handle_line(b); // evicts a
        assert_eq!(s.metrics().counter("cache.evict"), 1);
        let again = s.handle_line(a).text; // a is a miss again
        assert!(again.contains("\"cached\":false"));
        assert_eq!(s.metrics().counter("cache.evict"), 2);
    }

    #[test]
    fn the_memo_stays_within_its_bound() {
        // A one-entry cache bounds the memo at MEMO_PER_ENTRY values. The
        // nine spellings below (engine × sanitize) are one configuration,
        // so one run serves all nine, by `run` and again by `batch`.
        let mut s = Server::new(&ServeConfig {
            cache_capacity: 1,
            ..ServeConfig::default()
        });
        let mut jobs = Vec::new();
        for engine in ["", r#","engine":"event""#, r#","engine":"cycle""#] {
            for sanitize in ["", r#","sanitize":false"#, r#","sanitize":true"#] {
                let job = format!(
                    r#"{{"workload":"vecadd","small":true,"gpus":2,"sms":2{engine}{sanitize}}}"#
                );
                let r = s.handle_line(&format!(r#"{{"id":1,"method":"run","params":{job}}}"#));
                assert!(!r.text.contains("\"error\""), "{}", r.text);
                assert!(s.memo.len() <= MEMO_PER_ENTRY, "{} entries", s.memo.len());
                jobs.push(job);
            }
        }
        let r = s.handle_line(&format!(
            r#"{{"id":2,"method":"batch","params":{{"jobs":[{}]}}}}"#,
            jobs.join(",")
        ));
        assert_eq!(r.text.matches("\"cached\":true").count(), 9, "{}", r.text);
        assert!(s.memo.len() <= MEMO_PER_ENTRY, "{} entries", s.memo.len());
        assert_eq!(s.metrics().counter("cache.miss"), 1);
        assert_eq!(s.metrics().counter("cache.hit"), 17);
    }

    #[test]
    fn long_inline_models_keep_the_memo_within_its_byte_budget() {
        // An inline model's `name` has no length limit, so ten models with
        // quarter-MiB names are 2.5 MiB of keys, which a memo bounded only
        // by entries (here 2 × 128) would keep. Resolving parses and
        // fingerprints without running anything.
        use memnet_workloads::Workload;
        let mut s = server();
        let mut spec = Workload::VecAdd.spec_small();
        for i in 0..10 {
            spec.name = format!("{i}{}", "x".repeat(MEMO_KEY_BYTES / 4));
            let params = format!(
                r#"{{"org":"gmn","gpus":2,"model":{}}}"#,
                memnet_wdl::spec_to_json(&spec)
            );
            let value = Field::root(&params, "params").expect("params parse");
            s.resolve(value).expect("a valid job");
            let held: usize = s.memo.keys().map(String::len).sum();
            assert_eq!(held, s.memo_bytes);
            assert!(held <= MEMO_KEY_BYTES, "{held} key bytes after {i}");
            assert!(!s.memo.is_empty(), "a key within the budget is memoized");
        }
        // A key longer than the whole budget is answered but not kept.
        spec.name = "x".repeat(MEMO_KEY_BYTES);
        let params = format!(r#"{{"model":{}}}"#, memnet_wdl::spec_to_json(&spec));
        let value = Field::root(&params, "params").expect("params parse");
        let before = s.memo.len();
        s.resolve(value).expect("a valid job");
        assert_eq!(s.memo.len(), before);
    }

    /// The request corpus the pinned replies answer, in order: id
    /// spellings, key orders, whitespace, inline models, a model file at
    /// `file`, escaped keys, nesting at and past `MAX_DEPTH`, refusals,
    /// and, through a one-entry cache, an eviction and the re-run after it.
    fn corpus(file: &str) -> Vec<String> {
        use memnet_workloads::Workload;
        let a = r#"{"org":"gmn","workload":"vecadd","small":true,"gpus":2,"sms":2}"#;
        let b = r#"{"org":"gmn","workload":"vecadd","small":true,"gpus":2,"sms":4}"#;
        let spaced = a.replace(',', " , ").replace(':', " : ");
        let model = memnet_wdl::spec_to_json(&Workload::VecAdd.spec_small());
        let with_model = format!(r#"{{"org":"gmn","gpus":2,"sms":2,"model":{model}}}"#);
        let with_file = format!(r#"{{"org":"gmn","gpus":2,"sms":2,"workload_file":"{file}"}}"#);
        let run =
            |id: &str, params: &str| format!(r#"{{"id":{id},"method":"run","params":{params}}}"#);
        // An id at the deepest nesting `parse` accepts, and one level past.
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));

        let mut lines = vec![run("1", a)];
        for id in [
            "null",
            "true",
            "false",
            "-0",
            "1.50",
            "1e2",
            r#""\u0041""#,
            r#"[1,{"a":2}]"#,
            "{}",
        ] {
            lines.push(run(id, a));
        }
        lines.push(format!(r#"{{"method":"run","params":{a}}}"#));
        let members = [
            r#""id":7"#,
            r#""method":"run""#,
            &format!(r#""params":{a}"#),
        ];
        for [i, j, k] in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let (x, y, z) = (members[i], members[j], members[k]);
            lines.push(format!("{{{x},{y},{z}}}"));
            let spread = |m: &str| m.replacen(':', " \t:\r\n ", 1);
            lines.push(format!(
                " {{ {} , {} ,\n{} }} ",
                spread(x),
                spread(y),
                spread(z)
            ));
        }
        for params in [
            spaced.as_str(),
            &spaced,
            &with_model,
            &with_model,
            &with_file,
            &with_file,
        ] {
            lines.push(run("2", params));
        }
        lines.extend([
            format!(r#"{{"id":3,"method":"r\u0075n","params":{a}}}"#),
            format!(r#"{{"id":3,"method":"run","p\u0061rams":{a}}}"#),
            format!(r#"{{"\u0069d":3,"method":"run","params":{a}}}"#),
            format!(r#"{{"id":4,"method":"run","params":{a},"params":{a}}}"#),
            format!(r#"{{"id":4,"id":5,"method":"run","params":{a}}}"#),
            format!(r#"{{"id":4,"method":"run","params":{a},"extra":1}}"#),
            format!(r#"{{"id":4,"method":"run","params":{a}}} x"#),
            format!(r#"{{"id":4,"method":"run","params":{a}}}}}"#),
            format!(r#"{{"id":4,"method":"run","params":{a}"#),
            format!(r#"{{"id":4,"method":"run ","params":{a}}}"#),
            format!(r#"{{"id":4,"method":"RUN","params":{a}}}"#),
            format!(r#"{{"id":4,"method":["run"],"params":{a}}}"#),
            format!(r#"{{"id":4,"method":"ping","params":{a}}}"#),
            format!(r#"{{"id":4,"method":"batch","params":{a}}}"#),
            run(&nested(63), a),
            run(&nested(64), a),
            run("05", a),
            format!(r#"[{a}]"#),
            a.to_string(),
            r#"{"id":6,"method":"ping"}"#.to_string(),
            format!(r#"{{"id":7,"method":"batch","params":{{"jobs":[{a},{spaced},{with_model},{with_file}]}}}}"#),
            r#"{"id":8,"method":"shutdown"}"#.to_string(),
        ]);
        lines.extend(
            UNREADABLE
                .iter()
                .chain(&REFUSED)
                .map(|(line, _)| line.to_string()),
        );
        // `spaced` fills the two-entry memo, so `a` then clears it and
        // stays in it while `b` evicts its report: `a`'s next request
        // falls through and runs again, and the one after that is a hit.
        lines.extend([
            run("9", &spaced),
            run("10", a),
            run("11", b),
            run("12", a),
            run("13", a),
        ]);

        lines
    }

    /// Serves [`corpus`] through a one-entry cache, handing each line and
    /// its reply to `each`, with the corpus's model file in place.
    fn replay_corpus(mut each: impl FnMut(&mut Server, &str)) -> Server {
        let model = memnet_wdl::spec_to_json(&memnet_workloads::Workload::VecAdd.spec_small());
        let path = std::env::temp_dir().join(format!("memnet-corpus-{}.json", std::process::id()));
        std::fs::write(&path, &model).expect("write the model");
        let mut s = Server::new(&ServeConfig {
            cache_capacity: 1,
            ..ServeConfig::default()
        });
        for line in corpus(path.to_str().expect("temp path is utf-8")) {
            each(&mut s, &line);
        }
        std::fs::remove_file(&path).expect("clean up the model");
        s
    }

    /// FNV-1a hashes of the replies to [`corpus`], in order, as recorded
    /// while a second request path answered cached `run`s and a test held
    /// it to `dispatch` reply for reply.
    const CORPUS_REPLIES: [u64; 67] = [
        0xfe72ea9b7cfd28c4,
        0x4972b2e3cb434cdf,
        0x081bd7275fa3cac9,
        0xb69db1187e3d9342,
        0x6f38dc4ceaaaa531,
        0x29be44a3d7117ea8,
        0xbe4b73f8e49b120d,
        0xb690ccffb1431368,
        0x962441b5370fd9e4,
        0x98934d159c45c097,
        0x4972b2e3cb434cdf,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0x08909b0905f3cc0f,
        0xfee7a30519c60086,
        0xfee7a30519c60086,
        0xfee7a30519c60086,
        0xfee7a30519c60086,
        0xfee7a30519c60086,
        0xfee7a30519c60086,
        0xcec83a1fead11c97,
        0xcec83a1fead11c97,
        0xcec83a1fead11c97,
        0x8f4efdd3cbe14209,
        0x3c6ce0daf9d05c10,
        0x1954329087d43af5,
        0x60c36cfbb457ad98,
        0x73785d4f5acef19e,
        0xd59440bca0b4ef02,
        0x2b6be680372b013b,
        0x435b599d0ade357d,
        0xef0c6d2143ee652d,
        0x5fda362139fa0874,
        0xeb41aa1a9356a605,
        0xfb9a89a7666f4de8,
        0xf96d0d7e553b0ba6,
        0xc9d14ed6dd82dfe6,
        0x1ad067fcf14d01ec,
        0xb4172628f5ebeb6e,
        0x44c9c4d425721ff7,
        0x020501816357741f,
        0x2da040ddfbdd4b01,
        0x8bd98c4062ea60e1,
        0x7dbcee0478d96939,
        0x08845d2c4dab4751,
        0x9ca5ad121c2a0014,
        0x9ba363a284d9ff41,
        0xba07be107dc31ae7,
        0x178ce276282cf2ae,
        0xa87b66d5f6406b79,
        0x8e9ba10a58191846,
        0x49136a8e4f9bda10,
        0x2982587a57e33a5b,
        0x70f36d10d834bc36,
        0x72b8a004e0abee1f,
        0xcff56905310ab1c4,
        0x2cf1a7eeca5da654,
        0x9da1dbaf66bd1589,
    ];

    #[test]
    fn the_corpus_replies_as_pinned() {
        let mut replies = Vec::new();
        let s = replay_corpus(|s, line| {
            let reply = s.handle_line(line);
            if reply.text.contains("\"cached\":true") {
                assert!(
                    reply.text.capacity() > reply.text.len(),
                    "room for the newline"
                );
            }
            replies.push(reply);
        });
        let hashes: Vec<u64> = replies
            .iter()
            .map(|r| memnet_core::fnv1a64(r.text.as_bytes()))
            .collect();
        assert_eq!(hashes, CORPUS_REPLIES);
        let stopped: Vec<&str> = replies
            .iter()
            .filter(|r| r.shutdown)
            .map(|r| &r.text[..])
            .collect();
        assert_eq!(stopped, [r#"{"id":8,"result":{"ok":true}}"#]);
        let counters = [
            "cache.hit",
            "cache.miss",
            "cache.evict",
            "cache.dedup",
            "pool.jobs",
        ];
        let counts = counters.map(|c| s.metrics().counter(c));
        // `a`, `b` and `a` again ran; the batch deduplicated nothing.
        assert_eq!(counts, [39, 3, 2, 0, 3]);
    }

    /// Accepts at most three bytes per call and times out on every other
    /// call, like a socket whose peer reads slowly.
    struct SlowPeer {
        out: Vec<u8>,
        calls: u32,
    }

    impl Write for SlowPeer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(ErrorKind::TimedOut.into());
            }
            let n = buf.len().min(3);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_slow_reader_gets_whole_replies_until_the_daemon_stops() {
        let requests = "{\"id\":1,\"method\":\"ping\"}\n{\"id\":2,\"method\":\"ping\"}\n";
        let mut s = server();
        let mut peer = SlowPeer {
            out: Vec::new(),
            calls: 0,
        };
        let served = serve_session(
            requests.as_bytes(),
            &mut peer,
            |line| s.handle_line(line),
            || false,
        );
        assert!(!served.expect("a live session"));
        assert_eq!(
            String::from_utf8(peer.out).expect("utf-8"),
            "{\"id\":1,\"result\":{\"pong\":true}}\n{\"id\":2,\"result\":{\"pong\":true}}\n"
        );
        // Once the daemon is stopping, a write that times out ends the
        // session instead of waiting on the peer.
        let mut peer = SlowPeer {
            out: Vec::new(),
            calls: 0,
        };
        let ended = serve_session(
            requests.as_bytes(),
            &mut peer,
            |line| s.handle_line(line),
            || true,
        );
        assert_eq!(ended.expect_err("ended").kind(), ErrorKind::TimedOut);
        assert!(peer.out.is_empty());
    }

    #[test]
    fn tcp_daemon_interleaves_connections_and_stops_on_shutdown() {
        let daemon = TcpDaemon::bind(0).expect("bind");
        let addr = daemon.local_addr().expect("addr");
        #[allow(clippy::disallowed_methods, reason = "a client thread drives the daemon")]
        let handle = std::thread::spawn(move || {
            let mut s = Server::new(&ServeConfig::default());
            daemon.run(&mut s)
        });
        let mut a = TcpStream::connect(addr).expect("connect a");
        let mut ra = BufReader::new(a.try_clone().expect("clone a"));
        let mut b = TcpStream::connect(addr).expect("connect b");
        let mut rb = BufReader::new(b.try_clone().expect("clone b"));
        let mut line = String::new();
        // The old sequential daemon would never answer `b` while `a`
        // was still connected; the concurrent one must.
        writeln!(b, r#"{{"id":1,"method":"ping"}}"#).expect("write b");
        rb.read_line(&mut line).expect("read b");
        assert!(line.contains("pong"), "{line}");
        line.clear();
        writeln!(a, r#"{{"id":2,"method":"ping"}}"#).expect("write a");
        ra.read_line(&mut line).expect("read a");
        assert!(line.contains("pong"), "{line}");
        line.clear();
        // Shutdown on `a` must stop the daemon even though `b` is still
        // connected and idle.
        writeln!(a, r#"{{"id":3,"method":"shutdown"}}"#).expect("write shutdown");
        ra.read_line(&mut line).expect("read shutdown reply");
        assert!(line.contains("\"ok\":true"), "{line}");
        handle
            .join()
            .expect("daemon thread panicked")
            .expect("daemon io error");
    }

    #[test]
    fn stats_reports_counters() {
        let mut s = server();
        s.handle_line(VECADD);
        s.handle_line(VECADD);
        let r = s.handle_line(r#"{"id":7,"method":"stats"}"#).text;
        assert!(r.contains("\"hits\":1"), "{r}");
        assert!(r.contains("\"misses\":1"), "{r}");
        assert!(r.contains("\"entries\":1"), "{r}");
        assert!(r.contains("\"jobs\":1"), "{r}");
        assert!(r.contains("\"busy_ms\":"), "{r}");
    }
}

//! End-to-end tests for the serve daemon and the checkpoint/restore CLI.
//!
//! Exercises all three transports of the sim-as-a-service subsystem — the
//! in-process [`Server`], the loopback TCP daemon, and the `memnet serve
//! --stdio` binary — and the `--checkpoint` / `--restore` flags of
//! `memnet run`, asserting the two headline guarantees end to end:
//!
//! * a cache hit returns the first run's report **byte-identically**;
//! * a run restored from a snapshot is **byte-identical** to an
//!   uncheckpointed run, in both engine modes.
#![allow(
    clippy::disallowed_methods,
    reason = "a client drives the daemon from its own thread and times its peers"
)]

use memnet::serve::{ServeConfig, Server, TcpDaemon};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const RUN_PARAMS: &str = r#"{"org":"gmn","workload":"vecadd","small":true,"gpus":2,"sms":2}"#;

/// Extracts the `report` object (the last member of the result) from a
/// `run` response line.
fn report_of(response: &str) -> &str {
    let at = response.find("\"report\":").expect("response has a report");
    &response[at + "\"report\":".len()..response.len() - "}}".len()]
}

/// The 16 hex digits of a `run` response's `fingerprint`.
fn fingerprint_of(response: &str) -> &str {
    let key = "\"fingerprint\":\"";
    let at = response.find(key).expect("response has a fingerprint") + key.len();
    &response[at..at + 16]
}

fn run_request(id: u32) -> String {
    format!("{{\"id\":{id},\"method\":\"run\",\"params\":{RUN_PARAMS}}}")
}

#[test]
fn in_process_server_cold_then_cached_byte_identical() {
    let mut server = Server::new(&ServeConfig::default());
    let cold = server.handle_line(&run_request(1)).text;
    let warm = server.handle_line(&run_request(2)).text;
    assert!(cold.contains("\"cached\":false"), "{cold}");
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(report_of(&cold), report_of(&warm));
}

#[test]
fn a_typo_in_the_envelope_is_an_error_not_the_default_job() {
    // `"parms"` used to be ignored: the daemon ran and cached the default
    // full-size KMN/UMN/4-GPU job, fingerprint 20c543c2b9ce3c61.
    let mut server = Server::new(&ServeConfig::default());
    let typo = run_request(7).replace("\"params\"", "\"parms\"");
    let reply = server.handle_line(&typo).text;
    assert!(
        reply.starts_with(r#"{"id":7,"error":"#) && reply.contains("unknown field 'parms'"),
        "{reply}"
    );
    let stats = server.handle_line(r#"{"id":8,"method":"stats"}"#).text;
    assert!(
        stats.contains("\"entries\":0") && stats.contains("\"misses\":0"),
        "nothing ran, nothing was cached: {stats}"
    );
}

#[test]
fn inline_models_share_the_cache_with_their_builtin_twin() {
    // A runtime-loaded model is content-addressed by the physics it
    // encodes: the same model hits, an edited model misses, and a model
    // identical to a built-in spec shares that spec's cache entry.
    use memnet::wdl;
    use memnet::workloads::Workload;
    let model = wdl::spec_to_json(&Workload::VecAdd.spec_small()).replace('\n', " ");
    let req = |id: u32, model: &str| {
        format!(
            r#"{{"id":{id},"method":"run","params":{{"org":"gmn","gpus":2,"sms":2,"model":{model}}}}}"#
        )
    };
    let mut server = Server::new(&ServeConfig::default());
    let cold = server.handle_line(&req(1, &model)).text;
    assert!(cold.contains("\"cached\":false"), "{cold}");
    let warm = server.handle_line(&req(2, &model)).text;
    assert!(
        warm.contains("\"cached\":true"),
        "same model must hit: {warm}"
    );
    assert_eq!(report_of(&cold), report_of(&warm));
    // The equivalent built-in request resolves to the same address.
    let twin = server.handle_line(&run_request(3)).text;
    assert!(
        twin.contains("\"cached\":true"),
        "built-in twin must share the model's cache entry: {twin}"
    );
    // Any edit to the model is a different configuration → miss.
    let edited = model.replace("\"compute_gap\": ", "\"compute_gap\": 1");
    assert_ne!(edited, model, "test must actually edit the model");
    let miss = server.handle_line(&req(4, &edited)).text;
    assert!(
        miss.contains("\"cached\":false"),
        "edited model must miss: {miss}"
    );
}

#[test]
fn a_key_order_variant_of_a_cached_job_is_a_hit() {
    // The params → fingerprint memo is keyed by the bytes `params` was
    // sent as: a spaced or reordered spelling misses it, parses to the
    // same fingerprint and so hits the cache.
    let mut server = Server::new(&ServeConfig::default());
    let cold = server.handle_line(&run_request(1)).text;
    assert!(cold.contains("\"cached\":false"), "{cold}");
    let reordered = r#"{ "sms": 2, "gpus": 2, "small": true, "workload": "vecadd", "org": "gmn" }"#;
    let spaced = RUN_PARAMS.replace(',', ", ").replace(':', ": ");
    for params in [reordered, &spaced, reordered] {
        let line = format!(r#"{{"id":2,"method":"run","params":{params}}}"#);
        let warm = server.handle_line(&line).text;
        assert!(warm.contains("\"cached\":true"), "{params}: {warm}");
        assert_eq!(fingerprint_of(&warm), fingerprint_of(&cold));
        assert_eq!(report_of(&warm), report_of(&cold));
    }
    let batch = server.handle_line(&format!(
        r#"{{"id":3,"method":"batch","params":{{"jobs":[{reordered},{RUN_PARAMS}]}}}}"#
    ));
    let hits = batch.text.matches("\"cached\":true").count();
    assert_eq!(hits, 2, "{batch:?}");
}

#[test]
fn a_refused_params_value_is_refused_alike_on_every_repeat() {
    // Only an accepted params value is memoized, and its key tells apart
    // values that differ anywhere, so a near-twin of a cached job is
    // refused with its own message every time, by `run` and by `batch`.
    let mut server = Server::new(&ServeConfig::default());
    server.handle_line(&run_request(1));
    for (from, to, why) in [
        ("\"gpus\":2", "\"gpus\":2.5", "gpus' must be an exact"),
        ("\"gpus\":2", "\"gpus\":0", "gpus' must be positive"),
        ("\"sms\":2", "\"sms\":\"2\"", "sms' must be an exact"),
        ("}", ",\"bogus\":1}", "unknown field 'params"),
    ] {
        let bad = RUN_PARAMS.replace(from, to);
        let line = format!(r#"{{"id":5,"method":"run","params":{bad}}}"#);
        let first = server.handle_line(&line).text;
        assert!(
            first.starts_with(r#"{"id":5,"error":"#) && first.contains(why),
            "{first}"
        );
        for _ in 0..2 {
            assert_eq!(server.handle_line(&line).text, first);
        }
        let batch = format!(r#"{{"id":6,"method":"batch","params":{{"jobs":[{bad},{bad}]}}}}"#);
        let batch = server.handle_line(&batch).text;
        assert_eq!(batch.matches(why).count(), 2, "{batch}");
    }
    let stats = server.handle_line(r#"{"id":7,"method":"stats"}"#).text;
    assert!(
        stats.contains("\"hits\":0") && stats.contains("\"misses\":1"),
        "{stats}"
    );
}

#[test]
fn a_rewritten_workload_file_is_read_again() {
    // A job naming a `workload_file` is never memoized: the same params
    // line carries the new model's fingerprint once the file changes.
    use memnet::wdl;
    use memnet::workloads::Workload;
    let path = std::env::temp_dir().join(format!("memnet-e2e-model-{}.json", std::process::id()));
    let file = path.to_str().expect("temp path is utf-8");
    let line = format!(
        r#"{{"id":1,"method":"run","params":{{"org":"gmn","gpus":2,"sms":2,"workload_file":"{file}"}}}}"#
    );
    let mut server = Server::new(&ServeConfig::default());
    for (name, model) in [("vecadd", Workload::VecAdd), ("scan", Workload::Scan)] {
        std::fs::write(&path, wdl::spec_to_json(&model.spec_small())).expect("write the model");
        let reply = server.handle_line(&line).text;
        assert!(reply.contains("\"cached\":false"), "{name}: {reply}");
        let twin = RUN_PARAMS.replace("vecadd", name);
        let twin = server.handle_line(&format!(r#"{{"id":2,"method":"run","params":{twin}}}"#));
        assert!(twin.text.contains("\"cached\":true"), "{name}: {twin:?}");
        assert_eq!(fingerprint_of(&reply), fingerprint_of(&twin.text), "{name}");
    }
    std::fs::remove_file(&path).expect("clean up the model");
}

/// A daemon on an ephemeral loopback port and the thread it runs on.
fn spawn_daemon() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let daemon = TcpDaemon::bind(0).expect("bind an ephemeral loopback port");
    let addr = daemon.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || {
        let mut server = Server::new(&ServeConfig::default());
        daemon.run(&mut server).expect("daemon run loop");
    });
    (addr, handle)
}

/// Sends one request line and reads its one reply line. Requests and
/// replies alternate, so a reader per call leaves nothing behind. The
/// line and its newline go in one write: `writeln!` may split them, and
/// a lone newline can wait out the daemon's delayed ACK.
fn ask(mut conn: &TcpStream, line: &str) -> String {
    conn.write_all(format!("{line}\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    BufReader::new(conn)
        .read_line(&mut response)
        .expect("read response");
    assert!(response.ends_with('\n'), "line-delimited response");
    response.trim_end().to_string()
}

#[test]
fn tcp_daemon_serves_and_shuts_down() {
    let (addr, handle) = spawn_daemon();
    let conn = TcpStream::connect(addr).expect("connect to the daemon");
    let send = |line: &str| ask(&conn, line);

    let pong = send(r#"{"id":0,"method":"ping"}"#);
    assert_eq!(pong, r#"{"id":0,"result":{"pong":true}}"#);
    let cold = send(&run_request(1));
    let warm = send(&run_request(2));
    assert!(cold.contains("\"cached\":false"), "{cold}");
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(report_of(&cold), report_of(&warm));
    let stats = send(r#"{"id":3,"method":"stats"}"#);
    assert!(
        stats.contains("\"hits\":1") && stats.contains("\"misses\":1"),
        "{stats}"
    );
    let bye = send(r#"{"id":4,"method":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "{bye}");
    handle.join().expect("daemon thread exits after shutdown");
}

#[test]
fn cached_hits_over_tcp_do_not_wait_for_delayed_acks() {
    // The daemon wrote each reply and then its newline, with Nagle's
    // algorithm on, so the newline waited for the peer's delayed ACK:
    // about 44 ms a round trip, 2.2 s for these fifty.
    let (addr, handle) = spawn_daemon();
    let conn = TcpStream::connect(addr).expect("connect to the daemon");
    let cold = ask(&conn, &run_request(0));
    assert!(cold.contains("\"cached\":false"), "{cold}");
    let started = Instant::now();
    for id in 1..=50 {
        let warm = ask(&conn, &run_request(id));
        assert!(warm.contains("\"cached\":true"), "{warm}");
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "50 cached round trips took {took:?}"
    );
    ask(&conn, r#"{"id":51,"method":"shutdown"}"#);
    handle.join().expect("daemon thread exits after shutdown");
}

#[test]
fn an_over_long_line_is_refused_by_its_cap_and_the_daemon_keeps_serving() {
    // Neither read loop used to bound a line, so one peer could make the
    // daemon buffer without limit. A 2 MiB line is answered with the cap
    // (1 MiB) and costs that peer its session, nobody else theirs.
    let (addr, handle) = spawn_daemon();
    let hog = TcpStream::connect(addr).expect("connect to the daemon");
    let refusal = ask(&hog, &"x".repeat(2 << 20));
    assert!(
        refusal.contains("\"error\"") && refusal.contains("1048576-byte limit"),
        "{refusal}"
    );
    let closed = BufReader::new(&hog).read_line(&mut String::new());
    assert_eq!(closed.expect("a clean close"), 0, "the session has ended");

    let next = TcpStream::connect(addr).expect("a second connection");
    let pong = ask(&next, r#"{"id":0,"method":"ping"}"#);
    assert_eq!(pong, r#"{"id":0,"result":{"pong":true}}"#);
    ask(&next, r#"{"id":1,"method":"shutdown"}"#);
    handle.join().expect("daemon thread exits after shutdown");
}

/// Sends the cached `run_request(1)` without reading a reply until the
/// daemon, its replies unread, stops reading the requests. Returns how
/// many whole request lines were sent; a last partial one gets no reply.
fn send_unread(peer: &TcpStream) -> u32 {
    peer.set_write_timeout(Some(Duration::from_millis(500)))
        .expect("client write timeout");
    let line = format!("{}\n", run_request(1));
    let mut sent = 0u32;
    while (&*peer).write_all(line.as_bytes()).is_ok() {
        sent += 1;
        assert!(sent < 10_000_000, "the daemon never stopped reading");
    }
    sent
}

#[test]
fn a_peer_that_never_reads_its_replies_does_not_keep_the_daemon_up() {
    // Once the socket buffers fill, the handler of a peer that reads
    // nothing blocks in `write`. Without a write timeout, a `shutdown`
    // from another connection was answered but the daemon never
    // returned: its scope waited on that handler forever.
    let (addr, handle) = spawn_daemon();
    let stalled = TcpStream::connect(addr).expect("connect to the daemon");
    ask(&stalled, &run_request(0));
    let sent = send_unread(&stalled);

    let other = TcpStream::connect(addr).expect("a second connection");
    let pong = ask(&other, r#"{"id":0,"method":"ping"}"#);
    assert_eq!(pong, r#"{"id":0,"result":{"pong":true}}"#);
    ask(&other, r#"{"id":1,"method":"shutdown"}"#);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "the daemon is still up 10 s after shutdown ({sent} requests unread)"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.join().expect("daemon thread exits after shutdown");
}

#[test]
fn a_peer_that_reads_late_still_gets_every_reply_whole() {
    // The write timeout only lets a session check for shutdown: a peer
    // that pauses for many timeouts and then reads gets every reply whole.
    let (addr, handle) = spawn_daemon();
    let late = TcpStream::connect(addr).expect("connect to the daemon");
    ask(&late, &run_request(0));
    let warm = ask(&late, &run_request(1));
    let sent = send_unread(&late);
    std::thread::sleep(Duration::from_secs(1));
    late.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client read timeout");
    let mut replies = BufReader::new(&late);
    for i in 0..sent {
        let mut reply = String::new();
        replies.read_line(&mut reply).expect("read a reply");
        assert_eq!(reply.trim_end(), warm, "reply {i} of {sent}");
    }

    let other = TcpStream::connect(addr).expect("a second connection");
    ask(&other, r#"{"id":2,"method":"shutdown"}"#);
    handle.join().expect("daemon thread exits after shutdown");
}

#[test]
fn a_half_closed_peer_still_gets_its_reply() {
    // A last request without its newline, then the write side shut: the
    // request is served and the reply still reaches the peer.
    let (addr, handle) = spawn_daemon();
    let mut peer = TcpStream::connect(addr).expect("connect to the daemon");
    peer.write_all(run_request(1).as_bytes())
        .expect("send the request");
    peer.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    BufReader::new(&peer)
        .read_line(&mut reply)
        .expect("read the reply");
    assert!(reply.contains("\"cached\":false"), "{reply}");

    let next = TcpStream::connect(addr).expect("a second connection");
    ask(&next, r#"{"id":2,"method":"shutdown"}"#);
    handle.join().expect("daemon thread exits after shutdown");
}

#[test]
fn a_peer_that_leaves_mid_run_still_gets_its_job_cached() {
    // The peer closes its connection right after sending a cold job. The
    // run completes and is cached; the next connection gets a hit.
    let (addr, handle) = spawn_daemon();
    let mut gone = TcpStream::connect(addr).expect("connect to the daemon");
    writeln!(gone, "{}", run_request(1)).expect("send the request");
    drop(gone);

    let next = TcpStream::connect(addr).expect("a second connection");
    // `stats` waits for the server lock, which the cold run holds.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = ask(&next, r#"{"id":2,"method":"stats"}"#);
        if stats.contains("\"entries\":1") {
            break;
        }
        assert!(Instant::now() < deadline, "never cached: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let warm = ask(&next, &run_request(3));
    assert!(warm.contains("\"cached\":true"), "{warm}");
    ask(&next, r#"{"id":4,"method":"shutdown"}"#);
    handle.join().expect("daemon thread exits after shutdown");
}

#[test]
fn serve_stdio_binary_answers_and_caches() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_memnet"))
        .args(["serve", "--stdio"])
        .env("MEMNET_SANITIZE", "fatal")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn memnet serve --stdio");
    let mut stdin = child.stdin.take().expect("child stdin");
    writeln!(stdin, "{}", run_request(1)).expect("first request");
    writeln!(stdin, "{}", run_request(2)).expect("second request");
    writeln!(stdin, r#"{{"id":3,"method":"shutdown"}}"#).expect("shutdown");
    drop(stdin);
    let out = child.wait_with_output().expect("daemon exit");
    assert!(out.status.success(), "serve exits cleanly after shutdown");
    let lines: Vec<&str> = std::str::from_utf8(&out.stdout)
        .expect("utf-8 output")
        .lines()
        .collect();
    assert_eq!(lines.len(), 3, "one response per request: {lines:?}");
    assert!(lines[0].contains("\"cached\":false"), "{}", lines[0]);
    assert!(lines[1].contains("\"cached\":true"), "{}", lines[1]);
    assert_eq!(report_of(lines[0]), report_of(lines[1]));
    assert!(lines[2].contains("\"ok\":true"), "{}", lines[2]);
}

/// `memnet run --json`, returning stdout. Extra args go before `--json`.
fn run_json(extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_memnet"))
        .arg("run")
        .args(["--org", "gmn", "--workload", "vecadd", "--small"])
        .args(["--gpus", "2", "--sms", "2"])
        .args(extra)
        .arg("--json")
        .output()
        .expect("run memnet");
    assert!(
        out.status.success(),
        "memnet run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

#[test]
fn cli_checkpoint_and_restore_are_byte_identical_to_a_straight_run() {
    let dir = std::env::temp_dir();
    for engine in ["event", "cycle"] {
        let snap = dir.join(format!("memnet-e2e-{}-{engine}.json", std::process::id()));
        let snap = snap.to_str().expect("temp path is utf-8");
        let straight = run_json(&["--engine", engine]);
        let checkpointed = run_json(&["--engine", engine, "--checkpoint", snap]);
        let restored = run_json(&["--engine", engine, "--restore", snap]);
        assert_eq!(
            straight, checkpointed,
            "--checkpoint must not perturb ({engine})"
        );
        assert_eq!(
            straight, restored,
            "--restore must be byte-identical ({engine})"
        );
        std::fs::remove_file(snap).expect("clean up snapshot");
    }
}

#[test]
fn cli_restore_refuses_a_mismatched_configuration() {
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("memnet-e2e-mismatch-{}.json", std::process::id()));
    let snap = snap.to_str().expect("temp path is utf-8");
    run_json(&["--checkpoint", snap]);
    let out = Command::new(env!("CARGO_BIN_EXE_memnet"))
        .args(["run", "--org", "umn", "--workload", "vecadd", "--small"])
        .args(["--gpus", "2", "--sms", "2", "--restore", snap, "--json"])
        .output()
        .expect("run memnet");
    assert!(!out.status.success(), "mismatched restore must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fingerprint"), "{stderr}");
    std::fs::remove_file(snap).expect("clean up snapshot");
}

#[test]
fn cli_refuses_the_removed_engine_knobs_with_a_nonzero_exit() {
    // The perf ledger records `engine.par2_wall_ratio` as omitted when the
    // program refuses the parallel flags; that relies on a prompt non-zero
    // exit, not a hang or a quiet run on another engine.
    let run = |env: Option<&str>, args: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_memnet"));
        cmd.args(["run", "--workload", "vecadd", "--small", "--gpus", "2"])
            .args(["--sms", "2"])
            .args(args);
        match env {
            Some(v) => cmd.env("MEMNET_ENGINE", v),
            None => cmd.env_remove("MEMNET_ENGINE"),
        };
        cmd.output().expect("run memnet")
    };
    for args in [
        &["--engine", "parallel"][..],
        &["--sim-threads", "2"][..],
        &["--engine", "parallel", "--sim-threads", "2"][..],
    ] {
        let out = run(None, args);
        assert!(!out.status.success(), "{args:?} must be refused");
        assert!(out.stdout.is_empty(), "{args:?} must not print a report");
    }
    // A stale MEMNET_ENGINE is a typed error naming the variable and the
    // value; an explicit --engine does not consult it.
    let out = run(Some("parallel"), &["--json"]);
    assert!(!out.status.success(), "stale MEMNET_ENGINE must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("MEMNET_ENGINE") && stderr.contains("parallel"),
        "{stderr}"
    );
    assert!(run(Some("parallel"), &["--engine", "cycle"])
        .status
        .success());
    assert!(run(Some(""), &[]).status.success(), "empty means default");

    // The daemon answers the same condition as a JSON-RPC error.
    let mut child = Command::new(env!("CARGO_BIN_EXE_memnet"))
        .args(["serve", "--stdio"])
        .env("MEMNET_ENGINE", "parallel")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn memnet serve --stdio");
    let mut stdin = child.stdin.take().expect("child stdin");
    writeln!(stdin, "{}", run_request(1)).expect("request");
    drop(stdin);
    let out = child.wait_with_output().expect("daemon exit");
    let reply = String::from_utf8_lossy(&out.stdout);
    assert!(
        reply.contains("\"error\"") && reply.contains("MEMNET_ENGINE"),
        "{reply}"
    );
}

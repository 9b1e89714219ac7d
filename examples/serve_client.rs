//! A self-contained tour of the sim-as-a-service daemon.
//!
//! Starts a [`TcpDaemon`] on an ephemeral loopback port in a background
//! thread, then speaks the newline-delimited JSON-RPC protocol to it as a
//! client would: ping, a cold `run`, the same `run` again (served from
//! the content-addressed cache, byte-identical), a deduplicated `batch`,
//! `stats`, and `shutdown`.
//!
//! ```sh
//! cargo run --release --example serve_client
//! ```
#![allow(clippy::disallowed_methods, reason = "the daemon runs on a thread beside its client")]

use memnet::serve::{ServeConfig, Server, TcpDaemon};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn main() {
    let daemon = TcpDaemon::bind(0).expect("bind an ephemeral loopback port");
    let addr = daemon.local_addr().expect("bound address");
    println!("daemon listening on {addr}");
    let server_thread = std::thread::spawn(move || {
        let mut server = Server::new(&ServeConfig::default());
        daemon.run(&mut server).expect("daemon run loop");
    });

    let conn = TcpStream::connect(addr).expect("connect to the daemon");
    let mut reader = BufReader::new(conn.try_clone().expect("clone the stream"));
    let mut rpc = |line: &str| -> String {
        let mut conn = &conn;
        println!("→ {line}");
        // One write per request line, its newline included.
        conn.write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        let response = response.trim_end().to_string();
        let shown = if response.len() > 120 {
            format!("{}…", &response[..120])
        } else {
            response.clone()
        };
        println!("← {shown}\n");
        response
    };

    rpc(r#"{"id":0,"method":"ping"}"#);

    let job = r#"{"org":"gmn","workload":"vecadd","small":true,"gpus":2,"sms":2}"#;
    let cold = rpc(&format!(r#"{{"id":1,"method":"run","params":{job}}}"#));
    let warm = rpc(&format!(r#"{{"id":2,"method":"run","params":{job}}}"#));
    let report = |r: &str| {
        let at = r
            .find("\"report\":")
            .expect("run response carries a report");
        r[at..].to_string()
    };
    assert_eq!(report(&cold), report(&warm));
    println!("cache hit returned the first run's report byte-identically");
    println!(
        "  cold: {}\n  warm: {}\n",
        cold.contains("\"cached\":false"),
        warm.contains("\"cached\":true")
    );

    // A batch: one more copy of the cached job (hit), two copies of a new
    // job (the second deduplicates onto the first before the pool runs).
    let other = r#"{"org":"umn","workload":"vecadd","small":true,"gpus":2,"sms":2}"#;
    rpc(&format!(
        r#"{{"id":3,"method":"batch","params":{{"jobs":[{job},{other},{other}]}}}}"#
    ));

    let stats = rpc(r#"{"id":4,"method":"stats"}"#);
    println!("final stats: {stats}\n");
    rpc(r#"{"id":5,"method":"shutdown"}"#);
    server_thread.join().expect("daemon exits after shutdown");
    println!("daemon shut down cleanly");
}

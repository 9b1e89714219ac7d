//! memnet-serve: the simulator as a service.
//!
//! A sweep re-runs identical configurations constantly — the same
//! baseline cell appears in every comparison, a dashboard polls the same
//! experiment, CI replays the same smoke job. Because every memnet
//! simulation is a pure function of its configuration (bit-identical
//! reports for the same seed under either engine, DESIGN §5), those
//! repeats are pure waste. This crate packages the simulator as a
//! long-lived daemon with a **content-addressed result cache** in front
//! of it:
//!
//! * [`job::JobSpec`] — one simulation request, canonicalized into a
//!   [`SimBuilder`](memnet_core::SimBuilder) and hashed with the same
//!   FNV-1a/SplitMix64 fingerprint that guards checkpoint restores
//!   ([`memnet_core::snapshot`]). The fingerprint deliberately excludes
//!   the engine mode and observers, so results are shared across both
//!   engines — sound precisely because of the bit-identity guarantee.
//! * [`cache::ResultCache`] — an LRU of compact
//!   [`SimReport`](memnet_core::SimReport) JSON keyed by fingerprint.
//!   Hits return the cached bytes verbatim, so a repeated job is
//!   byte-identical to its first run by construction.
//! * [`server::Server`] — the protocol: newline-delimited JSON-RPC
//!   (`run` / `batch` / `stats` / `ping` / `shutdown`) over stdio or a
//!   loopback TCP socket, std-only. Misses run on the
//!   [`memnet_engine::pool`] work pool (panic isolation, deterministic
//!   result order); batches are deduplicated by fingerprint before they
//!   reach the pool. A bounded memo from a request's `params` to its
//!   fingerprint lets a repeated request skip both the parse and the
//!   fingerprint on its way to the cache.
//!
//! # Protocol
//!
//! One request per line, one response per line, both compact JSON:
//!
//! ```text
//! → {"id":1,"method":"run","params":{"org":"umn","workload":"vecadd","small":true,"gpus":2,"sms":2}}
//! ← {"id":1,"result":{"cached":false,"fingerprint":"98c4f45ad76843e2","report":{...}}}
//! → {"id":2,"method":"run","params":{"org":"umn","workload":"vecadd","small":true,"gpus":2,"sms":2}}
//! ← {"id":2,"result":{"cached":true,"fingerprint":"98c4f45ad76843e2","report":{...}}}
//! ```
//!
//! The two `report` objects above are byte-identical. Cache effectiveness
//! is observable as `cache.hit` / `cache.miss` / `cache.evict` counters
//! in the server's [`MetricsRegistry`](memnet_obs::MetricsRegistry),
//! surfaced by the `stats` method.
#![forbid(unsafe_code)]

pub mod cache;
pub mod job;
pub mod server;

pub use cache::ResultCache;
pub use job::JobSpec;
pub use server::{serve_stdio, Reply, ServeConfig, Server, TcpDaemon};

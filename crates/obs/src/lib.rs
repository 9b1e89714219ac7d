//! Observability layer for the memnet simulator.
//!
//! Three pieces, all dependency-free so the workspace builds offline:
//!
//! - [`json`] — a hand-rolled JSON writer ([`json::JsonWriter`], the
//!   [`json::ToJson`] trait, the [`to_json_struct!`] helper macro) and a
//!   strict parser ([`json::parse`] → [`json::JsonValue`]) with the one
//!   typed reader every outside input goes through ([`json::Fields`]).
//!   This replaces `serde`/`serde_json` everywhere in the workspace.
//! - [`metrics`] — hierarchically-named counters and gauges
//!   ([`metrics::MetricsRegistry`]), with periodic epoch snapshots
//!   ([`metrics::MetricsRegistry::snapshot`]) so per-interval rates
//!   (injected flits/cycle, SM occupancy, vault queue depth) can be
//!   plotted over time rather than only summed at the end of a run.
//! - [`trace`] — a bounded ring buffer of typed simulation events
//!   ([`trace::Tracer`]) with per-clock-domain cycle→femtosecond
//!   conversion, exported as Chrome trace-event JSON
//!   ([`trace::Tracer::to_chrome_json`]) for `chrome://tracing` or
//!   <https://ui.perfetto.dev>.
//!
//! Instrumented code takes `Option<&mut Tracer>` so the disabled path is a
//! single branch; `memnet run --trace out.json` turns it on.
//!
//! - [`prof`] — the self-profiler: wall-clock attribution per clock
//!   domain ([`prof::Profiler`], sampled only from the engine driver
//!   loop so simulated results stay byte-identical) and a counting
//!   global allocator ([`prof::CountingAlloc`]) for allocations/run.
//!   This is the *only* module allowed to read wall clocks on the tick
//!   path (clippy's `disallowed_methods` holds every other site), and
//!   the only one with `unsafe` code.
//!
//! [`config`] binds the shared `memnet-common` configuration and
//! statistics types to the JSON layer (export only: the configuration
//! fingerprint hashes it).
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::cast_possible_truncation))]

pub mod config;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod trace;

pub use json::{parse, Field, Fields, JsonValue, JsonWriter, ToJson, MAX_SAFE_INT};
pub use metrics::{Epoch, HistSnapshot, MetricsRegistry};
pub use prof::{alloc_stats, AllocStats, CountingAlloc, PhaseMark, ProfCat, Profiler};
pub use trace::{ClockDomain, TraceEvent, TraceEventKind, Tracer};

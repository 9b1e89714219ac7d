//! Simulation engine services: the event-calendar scheduler and the
//! parallel run executor.
//!
//! The cycle-stepped loop in `memnet-core` ticks every clock domain at
//! every edge, so wall-clock cost scales with *simulated time*. The
//! [`Calendar`] here lets the system loop park domains that report idle
//! and fast-forward their clocks when they wake, so quiescent stretches
//! (memcpy-only phases, drained kernels, pure host compute) cost
//! O(events) instead of O(cycles) — while producing bit-identical results
//! to the cycle-stepped loop.
//!
//! The [`pool`] module is a std-only work pool (`std::thread::scope` +
//! a `Mutex<VecDeque>` queue, no registry dependencies) with per-job
//! panic isolation, retry, and deterministic result ordering. `memnet sweep --jobs N`, the bench harness, and the examples
//! run on it.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::cast_possible_truncation))]

pub mod calendar;
pub mod pool;

pub use calendar::Calendar;
pub use pool::{run_jobs, run_jobs_observed, JobError, PoolConfig, PoolEvent, PoolObs, PoolStats};

//! Common foundation types for the `memnet` multi-GPU memory-network simulator.
//!
//! This crate holds everything that more than one subsystem needs:
//!
//! * strongly-typed identifiers for the agents in the system ([`ids`]),
//! * femtosecond-resolution simulation time and multi-rate clocks ([`time`]),
//! * the memory request/response messages that flow between GPUs, CPUs and
//!   HMCs ([`mem`]),
//! * a small deterministic RNG used by workload models and placement
//!   policies ([`rng`]),
//! * statistics helpers — running means, histograms and the GPU×HMC traffic
//!   matrix of Fig. 10 ([`stats`]),
//! * the Table I system configuration ([`config`]),
//! * deterministic fault plans for chaos and resilience runs, and the
//!   [`LinkTag`] vocabulary they share with the network ([`faults`]).
//!
//! # Example
//!
//! ```
//! use memnet_common::time::{Clock, FS_PER_NS};
//!
//! // A 1.25 GHz network clock (0.8 ns period).
//! let mut clk = Clock::from_freq_mhz(1250.0);
//! assert_eq!(clk.period_fs(), 800_000);
//! assert!(clk.due(0));
//! clk.advance();
//! assert!(!clk.due(FS_PER_NS / 2));
//! assert!(clk.due(FS_PER_NS));
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::cast_possible_truncation))]

pub mod config;
pub mod faults;
pub mod ids;
pub mod mem;
pub mod rng;
pub mod stats;
pub mod time;

pub use config::SystemConfig;
pub use faults::{FaultEvent, FaultKind, FaultPlan, LinkTag};
pub use ids::{Agent, CpuId, GpuId, HmcId, NodeId, ReqId, SmId, VaultId};
pub use mem::{AccessKind, MemReq, MemResp, Payload};
pub use rng::SplitMix64;
pub use time::{Clock, Fs};

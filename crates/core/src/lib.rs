//! The paper's contribution: Scalable Kernel Execution (SKE) and
//! memory-network system organizations for multi-GPU systems.
//!
//! This crate composes the substrates — `memnet-noc` (the interconnect),
//! `memnet-hmc` (memory cubes), `memnet-gpu` / `memnet-cpu` (devices) and
//! `memnet-workloads` (Table II) — into runnable full systems:
//!
//! * [`ske`] — the virtual-GPU runtime: CTA partitioning policies
//!   (static chunked / round-robin / stealing, Section III-B);
//! * [`memory`] — the shared virtual address space, page table and random
//!   page placement (Section III-C);
//! * [`system`] — the Table III organizations (PCIe, PCIe-ZC, CMN, CMN-ZC,
//!   GMN, GMN-ZC, UMN), the multi-clock engine, and [`SimReport`].
//!
//! # Example
//!
//! ```
//! use memnet_core::{Organization, SimBuilder};
//! use memnet_workloads::Workload;
//!
//! let report = SimBuilder::new(Organization::Umn)
//!     .gpus(2)
//!     .sms_per_gpu(2)
//!     .workload(Workload::VecAdd.spec_small())
//!     .run();
//! assert!(report.kernel_ns > 0.0);
//! assert_eq!(report.memcpy_ns, 0.0); // UMN shares memory — no copies
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::cast_possible_truncation))]

pub mod faults;
pub mod memory;
pub mod profile;
pub mod sanitize;
pub mod ske;
pub mod snapshot;
pub mod system;

pub use faults::{plan_from_json, plan_to_json};
pub use memory::{MemoryLayout, PlacementPolicy, HOST_BASE};
pub use profile::{DomainProfile, Heatmap, ProfileHist, ProfileReport, WorkProfile};
pub use sanitize::{SanitizeMode, SanitizerReport};
pub use ske::CtaPolicy;
pub use snapshot::{fnv1a64, SystemSnapshot};
pub use system::{EngineMode, GpuSummary, Organization, SimBuilder, SimError, SimReport};

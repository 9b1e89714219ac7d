//! GPU timing model: SMs, CTA slots, write-through caches, and the memory
//! port.
//!
//! This crate replaces GPGPU-sim in the paper's toolchain with a
//! model-driven simulator: workloads provide [`kernel::KernelModel`]s that
//! step each CTA through a deterministic op stream (compute intervals +
//! coalesced memory transactions). A resident CTA is a plain
//! [`kernel::CtaCursor`] in its SM slot, which the GPU's one kernel
//! advances; a memory op writes its transactions into a buffer the SM
//! reuses. The GPU executes them with Table I resources:
//!
//! * configurable SMs per GPU (Table I: 64), 8 resident CTAs each;
//! * per-SM 32 KB L1 and per-GPU 2 MB L2, both **write-through,
//!   write-no-allocate** (required by the SKE memory model, Section III-D);
//! * MSHR-based miss handling with merge;
//! * atomics that evict caches and execute at the HMC logic layer;
//! * CTA queues supporting static chunked assignment, round-robin and
//!   stealing (Section III-B — the policies themselves live in the SKE
//!   runtime).
//!
//! # Example
//!
//! ```
//! use memnet_gpu::{Gpu, kernel::StreamKernel};
//! use memnet_common::{GpuId, SystemConfig};
//! use std::sync::Arc;
//!
//! let mut cfg = SystemConfig::paper().gpu;
//! cfg.n_sms = 2;
//! let mut gpu = Gpu::new(GpuId(0), &cfg);
//! gpu.launch(Arc::new(StreamKernel { ctas: 8, rounds: 2, gap: 4 }), 0..8);
//! assert!(gpu.busy());
//! gpu.tick_core();
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::cast_possible_truncation))]

pub mod cache;
pub mod gpu;
pub mod kernel;
pub mod sm;

pub use cache::{Cache, CacheStats, MshrTable};
pub use gpu::{Gpu, GpuStats};
pub use kernel::{CtaCursor, CtaOp, KernelModel, MemAccess};
pub use sm::Sm;

//! # memnet — Multi-GPU System Design with Memory Networks
//!
//! A full-system simulator reproducing Kim, Lee, Jeong & Kim, *Multi-GPU
//! System Design with Memory Networks* (MICRO 2014): scalable kernel
//! execution (SKE) across discrete GPUs, hybrid-memory-cube (HMC) memory
//! networks (CMN / GMN / UMN), the sliced flattened butterfly topology, and
//! the CPU overlay network.
//!
//! This facade crate re-exports the workspace crates under one roof:
//!
//! * [`common`] — ids, clocks, config (Table I), statistics
//! * [`noc`] — flit-level interconnection-network simulator
//! * [`hmc`] — hybrid memory cube timing model
//! * [`gpu`] — GPU (SM / cache / CTA scheduler) timing model
//! * [`cpu`] — host CPU and DMA model
//! * [`workloads`] — the Table II workload models
//! * [`sim`] — SKE runtime, system organizations, full-system simulator
//! * [`engine`] — event-calendar scheduler (idle fast-forward) and the
//!   parallel job pool behind `memnet sweep --jobs`
//! * [`obs`] — observability: metrics registry, event tracer (Chrome
//!   trace JSON), and the hand-rolled JSON writer/parser
//! * [`serve`] — sim-as-a-service daemon with a content-addressed
//!   result cache, behind `memnet serve`
//! * [`wdl`] — the runtime workload model format (JSON) behind
//!   `memnet run --workload-file`, its exporter, and the workload fuzzer
//!
//! # Quickstart
//!
//! ```
//! use memnet::sim::{Organization, SimBuilder};
//! use memnet::workloads::Workload;
//!
//! # fn main() {
//! let report = SimBuilder::new(Organization::Umn)
//!     .gpus(2)
//!     .sms_per_gpu(4)
//!     .workload(Workload::VecAdd.spec_small())
//!     .run();
//! assert!(report.kernel_ns > 0.0);
//! # }
//! ```
#![forbid(unsafe_code)]

pub use memnet_common as common;
pub use memnet_core as sim;
pub use memnet_cpu as cpu;
pub use memnet_engine as engine;
pub use memnet_gpu as gpu;
pub use memnet_hmc as hmc;
pub use memnet_noc as noc;
pub use memnet_obs as obs;
pub use memnet_serve as serve;
pub use memnet_wdl as wdl;
pub use memnet_workloads as workloads;

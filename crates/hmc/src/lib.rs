//! Hybrid Memory Cube (HMC) timing model.
//!
//! An HMC (Fig. 2 of the paper) stacks DRAM layers on a logic die; each
//! vertical slice of DRAM segments forms a *vault* with its own controller.
//! The logic die also routes packets (modeled by `memnet-noc`) and executes
//! atomic operations near memory (Section III-D).
//!
//! This crate provides:
//!
//! * [`mapping::AddressMap`] — the paper's `RW:CLH:BK:CT:VL:LC:CLL:BY`
//!   physical-address interleaving (Section VI-A), with helpers for
//!   page-granular cluster placement.
//! * [`vault::Vault`] — a vault controller with a 16-entry request queue,
//!   FR-FCFS scheduling \[48\], open-row tracking and the Table I DRAM
//!   timing (tRP/tCCD/tRCD/tCL/tWR/tRAS at tCK = 1.25 ns).
//! * [`device::HmcDevice`] — one cube: 16 vaults plus the completion path
//!   and logic-die atomic unit.
//!
//! # Example
//!
//! ```
//! use memnet_hmc::mapping::AddressMap;
//! use memnet_common::SystemConfig;
//!
//! let cfg = SystemConfig::paper();
//! let map = AddressMap::new(&cfg);
//! let loc = map.decode(0x1234_5678);
//! assert!(loc.vault < 16);
//! assert_eq!(map.encode(loc), 0x1234_5678 & !0x1F); // column-word aligned
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::cast_possible_truncation))]

pub mod device;
pub mod mapping;
pub mod vault;

pub use device::HmcDevice;
pub use mapping::{AddressMap, Location};
pub use vault::Vault;

//! Helpers shared by `bench-e2e` and `bench-layers`. Standard library
//! only: nothing here may depend on the code being measured.

pub mod host;
pub mod json;
pub mod rng;
pub mod spans;
pub mod spec;
pub mod stats;

//! Table I — system configuration.
//!
//! Prints the simulated machine's parameters, which are the paper's Table I
//! values by construction (this target documents and checks that).

use crate::Size;
use memnet_common::SystemConfig;
use memnet_obs::ToJson;

/// The Table I machine; the same at every size.
pub fn run(_size: Size) -> SystemConfig {
    SystemConfig::paper()
}

/// Prints the configuration as its artifact shows it.
pub fn print(c: &SystemConfig) {
    crate::header("Table I: system configuration (paper values reproduced exactly)");
    println!("{}", c.to_json_pretty());
}

/// Table I's band: the configuration validates.
pub fn check(c: &SystemConfig, _size: Size) -> Result<(), String> {
    c.validate()
}

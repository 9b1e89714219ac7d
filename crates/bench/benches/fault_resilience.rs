//! Organization resilience under a fixed fault plan: the four steps over
//! `memnet_bench::fault_resilience`. Its artifact ends in a newline.

use memnet_bench::{fault_resilience as fig, Size};
use memnet_obs::ToJson;

fn main() {
    let size = Size::from_env();
    let result = fig::run(size);
    fig::print(&result);
    memnet_bench::write_artifact("fault_resilience", &(result.to_json_pretty() + "\n"));
    memnet_bench::check_if_asked("fault_resilience", || fig::check(&result, size));
}

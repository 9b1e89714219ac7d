//! Seed-driven generation of random-but-valid workload models.
//!
//! [`WorkloadFuzzer`] draws every kernel parameter from ranges that keep
//! [`SyntheticKernel::validate`] and [`crate::validate_spec`] satisfied by
//! construction, while still exercising every access-pattern knob the DSL
//! exposes: sequential/random/dependent/halo reads, writes, atomics,
//! temporal reuse, butterfly strides and optional host phases. Models are
//! deliberately tiny (tens of CTAs, a few iterations) so the differential
//! conformance harness can run dozens of seeds across both engines in CI
//! time.

use crate::validate_spec;
use memnet_common::SplitMix64;
use memnet_workloads::{HostWork, SyntheticKernel, WorkloadSpec};
use std::sync::Arc;

/// Coalesced line size, mirrored from `memnet_workloads::synth`.
const LINE: u64 = 128;

/// A deterministic stream of valid workload models.
///
/// Same construction seed ⇒ same sequence of specs, like
/// `FaultPlan::random`. Each generated spec's `abbr` embeds the draw seed
/// (`FUZZ-xxxxxxxx`) so failures name the reproducer.
#[derive(Debug)]
pub struct WorkloadFuzzer {
    rng: SplitMix64,
}

impl WorkloadFuzzer {
    /// Creates a fuzzer for a seed.
    pub fn new(seed: u64) -> Self {
        WorkloadFuzzer {
            rng: SplitMix64::new(seed ^ 0x57444c5f46555a5a),
        }
    }

    /// Convenience: the first spec of seed `seed`'s stream.
    pub fn spec(seed: u64) -> WorkloadSpec {
        WorkloadFuzzer::new(seed).next_spec()
    }

    /// Draws `lo..=hi` uniformly.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.rng.next_below(hi - lo + 1)
    }

    /// Generates the next model. Always valid: `validate_spec` is asserted
    /// before returning, so a construction bug fails loudly at the source
    /// rather than as a confusing downstream parse error.
    pub fn next_spec(&mut self) -> WorkloadSpec {
        let tag = self.rng.next_u64() as u32;
        let ctas = self.range(8, 32) as u32;
        let iters = self.range(2, 6) as u32;
        let compute_gap = self.range(0, 256) as u32;
        // Always at least one sequential read and one write so staging
        // moves real bytes in both directions.
        let seq_reads = self.range(1, 3) as u32;
        let writes = self.range(1, 2) as u32;
        let rand_reads = self.range(0, 2) as u32;
        let dep_reads = self.range(0, 2) as u32;
        let halo_reads = self.range(0, 1) as u32;
        let atomic_every = self.range(0, 4) as u32;
        let reuse = self.range(1, 3) as u32;
        let stride = [128, 256, 512, 1024, 4096][self.rng.next_below(5) as usize];
        let needs_shared = rand_reads > 0 || dep_reads > 0 || atomic_every > 0;
        let shared_bytes = if needs_shared || self.rng.chance(0.5) {
            self.range(64, 256) * 1024
        } else {
            0
        };
        let read_bytes = self.range(2, 8) * LINE * u64::from(ctas);
        let write_bytes = self.range(2, 8) * LINE * u64::from(ctas);
        // Keep the kernel seed within JSON's exactly-representable range.
        let seed = self.rng.next_u64() >> 11;
        let kernel = SyntheticKernel {
            ctas,
            iters,
            compute_gap,
            seq_reads,
            rand_reads,
            dep_reads,
            writes,
            halo_reads,
            atomic_every,
            reuse,
            shared_bytes,
            read_bytes,
            write_bytes,
            stride,
            seed,
        };
        let host_pre = self
            .rng
            .chance(0.3)
            .then(|| HostWork::compute(self.range(1_000, 20_000)));
        let host_post = self.rng.chance(0.3).then(|| {
            HostWork::reduce(
                shared_bytes + read_bytes,
                write_bytes.min(64 << 10),
                self.range(1, 8),
            )
        });
        let spec = WorkloadSpec {
            abbr: format!("FUZZ-{tag:08x}"),
            name: format!("Fuzzed model {tag:08x}"),
            h2d_bytes: shared_bytes + read_bytes,
            d2h_bytes: write_bytes,
            kernel: Arc::new(kernel),
            host_pre,
            host_post,
        };
        if let Err(e) = validate_spec(&spec) {
            panic!("fuzzer produced an invalid model ({}): {e}", spec.abbr);
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec_from_json, spec_to_json};

    #[test]
    fn fuzzed_specs_are_valid_and_deterministic() {
        for seed in 0..64 {
            let a = WorkloadFuzzer::spec(seed);
            let b = WorkloadFuzzer::spec(seed);
            assert_eq!(a, b, "seed {seed} must be deterministic");
            validate_spec(&a).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                a.h2d_bytes > 0 && a.d2h_bytes > 0,
                "seed {seed} stages data"
            );
        }
    }

    #[test]
    fn fuzzed_specs_differ_across_seeds() {
        let a = WorkloadFuzzer::spec(1);
        let b = WorkloadFuzzer::spec(2);
        assert_ne!(a.kernel, b.kernel);
    }

    #[test]
    fn a_fuzzer_stream_yields_distinct_models() {
        let mut f = WorkloadFuzzer::new(9);
        let a = f.next_spec();
        let b = f.next_spec();
        assert_ne!(a, b);
    }

    #[test]
    fn fuzzed_specs_round_trip_through_the_dsl() {
        for seed in 0..32 {
            let spec = WorkloadFuzzer::spec(seed);
            let json = spec_to_json(&spec);
            let back = spec_from_json(&json).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(spec, back, "seed {seed}");
            assert_eq!(json, spec_to_json(&back), "seed {seed} textual stability");
        }
    }

    #[test]
    fn host_phases_appear_for_some_seeds() {
        let any_host = (0..64).any(|s| WorkloadFuzzer::spec(s).cpu_active());
        let any_pure = (0..64).any(|s| !WorkloadFuzzer::spec(s).cpu_active());
        assert!(any_host, "some seeds must exercise host phases");
        assert!(any_pure, "some seeds must stay GPU-only");
    }
}

//! Host-side (CPU) work descriptions.
//!
//! Most Table II workloads use the CPU only to stage data and launch
//! kernels, but CG.S and FT.S perform real host computation between kernel
//! phases (reductions, twiddle updates) — these are the two workloads of
//! the overlay-network experiment (Fig. 18). A [`HostWork`] describes that
//! computation as interleaved 64 B reads over a result region with compute
//! cycles per element, from which a `CpuStream` is generated.

use memnet_cpu::{CpuOp, CpuStream};

memnet_obs::to_json_struct! {
    /// A host compute phase: `reads` strided loads over a region, with
    /// `compute_per_read` CPU cycles of work after each, plus a fixed tail.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct HostWork {
        /// Number of 64 B loads.
        pub reads: u64,
        /// Byte offset of the region the host walks (virtual).
        pub region_base: u64,
        /// Region length in bytes.
        pub region_bytes: u64,
        /// Stride between loads in bytes.
        pub stride: u64,
        /// CPU cycles of computation per load.
        pub compute_per_read: u64,
        /// Fixed compute cycles at the end of the phase.
        pub tail_compute: u64,
    }
}

impl HostWork {
    /// A pure-compute phase (no memory).
    pub fn compute(cycles: u64) -> Self {
        HostWork {
            reads: 0,
            region_base: 0,
            region_bytes: 0,
            stride: 64,
            compute_per_read: 0,
            tail_compute: cycles,
        }
    }

    /// A reduction over `[base, base + bytes)` with `per_read` cycles per
    /// element.
    pub fn reduce(base: u64, bytes: u64, per_read: u64) -> Self {
        HostWork {
            reads: bytes / 64,
            region_base: base,
            region_bytes: bytes,
            stride: 64,
            compute_per_read: per_read,
            tail_compute: 0,
        }
    }

    /// Generates the op stream for this phase.
    pub fn stream(&self) -> CpuStream {
        let w = *self;
        let mem_ops = (0..w.reads).flat_map(move |i| {
            let addr = w.region_base + (i * w.stride) % w.region_bytes.max(64);
            let compute = (w.compute_per_read > 0).then_some(CpuOp::Compute(w.compute_per_read));
            [Some(CpuOp::Read(addr)), compute].into_iter().flatten()
        });
        Box::new(mem_ops.chain((w.tail_compute > 0).then_some(CpuOp::Compute(w.tail_compute))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_phase_is_one_op() {
        let ops: Vec<CpuOp> = HostWork::compute(500).stream().collect();
        assert_eq!(ops, vec![CpuOp::Compute(500)]);
    }

    #[test]
    fn reduce_walks_the_region() {
        let w = HostWork::reduce(4096, 640, 3);
        let ops: Vec<CpuOp> = w.stream().collect();
        let reads: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                CpuOp::Read(a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(reads.len(), 10);
        assert_eq!(reads[0], 4096);
        assert_eq!(reads[9], 4096 + 9 * 64);
        let computes = ops
            .iter()
            .filter(|o| matches!(o, CpuOp::Compute(3)))
            .count();
        assert_eq!(computes, 10);
    }

    #[test]
    fn reads_stay_in_region() {
        let w = HostWork {
            reads: 100,
            region_base: 1000,
            region_bytes: 320,
            stride: 64,
            compute_per_read: 0,
            tail_compute: 0,
        };
        for op in w.stream() {
            if let CpuOp::Read(a) = op {
                assert!((1000..1320).contains(&a));
            }
        }
    }

    #[test]
    fn zero_read_reduce_is_empty() {
        let ops: Vec<CpuOp> = HostWork::reduce(0, 0, 1).stream().collect();
        assert!(ops.is_empty());
    }
}

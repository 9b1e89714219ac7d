//! Kernel execution abstraction.
//!
//! The simulator is *model-driven*: instead of executing SASS instructions
//! (the paper used GPGPU-sim), each workload provides a [`KernelModel`]
//! that generates, per CTA, a deterministic stream of [`CtaOp`]s — compute
//! intervals interleaved with memory instructions. This captures exactly
//! what the paper's evaluation depends on: traffic volume, access pattern,
//! read/write/atomic mix, and compute intensity.
//!
//! Addresses in [`MemAccess`] are *virtual*: byte offsets into the
//! workload's unified address space. The SKE runtime translates them to
//! physical addresses at the GPU boundary (Section III-C).

use memnet_common::AccessKind;

/// One memory transaction issued by a warp (already coalesced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Virtual byte address.
    pub addr: u64,
    /// Transaction size in bytes (a 128 B line for coalesced accesses).
    pub bytes: u32,
    /// Read, write, or atomic.
    pub kind: AccessKind,
}

impl MemAccess {
    /// A coalesced 128 B read.
    pub fn read(addr: u64) -> Self {
        MemAccess {
            addr,
            bytes: 128,
            kind: AccessKind::Read,
        }
    }

    /// A coalesced 128 B write.
    pub fn write(addr: u64) -> Self {
        MemAccess {
            addr,
            bytes: 128,
            kind: AccessKind::Write,
        }
    }

    /// An atomic read-modify-write (executes at the HMC).
    pub fn atomic(addr: u64) -> Self {
        MemAccess {
            addr,
            bytes: 32,
            kind: AccessKind::Atomic,
        }
    }
}

/// One step of a CTA's execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtaOp {
    /// Pure computation for the given number of core cycles.
    Compute(u32),
    /// A memory instruction: the CTA blocks until every transaction
    /// completes (reads/atomics) or is accepted by the memory system
    /// (writes, which are posted).
    Mem(Vec<MemAccess>),
}

/// A per-CTA op stream. `next_op` returns `None` when the CTA retires.
pub type CtaStream = Box<dyn Iterator<Item = CtaOp> + Send>;

/// A kernel: a generator of per-CTA op streams. The grid is the CTA
/// range the SKE runtime launches ([`crate::Gpu::launch`]).
///
/// Implementations must be deterministic: the stream for a given CTA index
/// may not depend on simulation interleaving.
pub trait KernelModel: Send + Sync {
    /// The op stream for one CTA.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `cta` lies outside the grid.
    fn cta_stream(&self, cta: u32) -> CtaStream;
}

/// A trivial kernel for tests: every CTA does `rounds` of
/// (compute `gap` cycles, then read one line), striding sequentially from
/// `cta * rounds * 128`.
#[derive(Debug, Clone)]
pub struct StreamKernel {
    /// Number of CTAs.
    pub ctas: u32,
    /// Memory instructions per CTA.
    pub rounds: u32,
    /// Compute cycles between memory instructions.
    pub gap: u32,
}

impl KernelModel for StreamKernel {
    fn cta_stream(&self, cta: u32) -> CtaStream {
        assert!(cta < self.ctas, "cta {cta} out of range");
        let base = cta as u64 * self.rounds as u64 * 128;
        let gap = self.gap;
        let rounds = self.rounds;
        Box::new((0..rounds).flat_map(move |r| {
            [
                CtaOp::Compute(gap),
                CtaOp::Mem(vec![MemAccess::read(base + r as u64 * 128)]),
            ]
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_kernel_is_deterministic() {
        let k = StreamKernel {
            ctas: 4,
            rounds: 3,
            gap: 10,
        };
        let a: Vec<CtaOp> = k.cta_stream(2).collect();
        let b: Vec<CtaOp> = k.cta_stream(2).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6); // 3 rounds × (compute + mem)
    }

    #[test]
    fn stream_kernel_ctas_access_disjoint_ranges() {
        let k = StreamKernel {
            ctas: 2,
            rounds: 2,
            gap: 1,
        };
        let addrs = |cta: u32| -> Vec<u64> {
            k.cta_stream(cta)
                .filter_map(|op| match op {
                    CtaOp::Mem(a) => Some(a[0].addr),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(addrs(0), vec![0, 128]);
        assert_eq!(addrs(1), vec![256, 384]);
    }

    #[test]
    fn access_constructors() {
        assert_eq!(MemAccess::read(0).kind, AccessKind::Read);
        assert_eq!(MemAccess::write(0).kind, AccessKind::Write);
        assert_eq!(MemAccess::atomic(0).kind, AccessKind::Atomic);
        assert_eq!(MemAccess::read(0).bytes, 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cta_panics() {
        let k = StreamKernel {
            ctas: 1,
            rounds: 1,
            gap: 1,
        };
        let _ = k.cta_stream(5);
    }
}

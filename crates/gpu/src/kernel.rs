//! Kernel execution abstraction.
//!
//! The simulator is *model-driven*: instead of executing SASS instructions
//! (the paper used GPGPU-sim), each workload provides a [`KernelModel`]
//! that steps each CTA through a deterministic stream of [`CtaOp`]s —
//! compute intervals interleaved with memory instructions. A CTA's place
//! in its stream is a plain [`CtaCursor`] that its SM slot holds, and a
//! memory instruction writes its transactions into a buffer the SM
//! reuses, so running a CTA allocates nothing. This captures exactly what
//! the paper's evaluation depends on: traffic volume, access pattern,
//! read/write/atomic mix, and compute intensity.
//!
//! Addresses in [`MemAccess`] are *virtual*: byte offsets into the
//! workload's unified address space. The SKE runtime translates them to
//! physical addresses at the GPU boundary (Section III-C).

use memnet_common::{AccessKind, SplitMix64};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtaOp {
    /// Pure computation for the given number of core cycles.
    Compute(u32),
    /// A memory instruction, whose transactions the kernel appended to
    /// the caller's buffer: the CTA blocks until every transaction
    /// completes (reads/atomics) or is accepted by the memory system
    /// (writes, which are posted).
    Mem,
}

/// Where one CTA stands in its op stream. The SM slot running the CTA
/// holds it; the kernel reads and advances it ([`KernelModel::next_op`]).
/// What `iter` and `step` count is the kernel's own choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaCursor {
    /// The CTA's index in the grid.
    pub cta: u32,
    /// The outer iteration (phase).
    pub iter: u32,
    /// The op within the iteration.
    pub step: u32,
    /// The CTA's own random stream.
    pub rng: SplitMix64,
}

impl CtaCursor {
    /// The cursor before `cta`'s first op.
    pub fn new(cta: u32, rng: SplitMix64) -> Self {
        CtaCursor {
            cta,
            iter: 0,
            step: 0,
            rng,
        }
    }
}

/// A kernel: the op streams of the CTAs of its grid, the CTA range the
/// SKE runtime launches ([`crate::Gpu::launch`]).
///
/// Implementations must be deterministic: the stream for a given CTA index
/// may not depend on simulation interleaving.
pub trait KernelModel: Send + Sync {
    /// The cursor of `cta` before its first op.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `cta` lies outside the grid.
    fn cursor(&self, cta: u32) -> CtaCursor;

    /// Advances `cur` past its next op and returns that op, or `None`
    /// once the CTA retires. A [`CtaOp::Mem`] appends its one or more
    /// transactions to `accesses`; no other op touches it.
    fn next_op(&self, cur: &mut CtaCursor, accesses: &mut Vec<MemAccess>) -> Option<CtaOp>;
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
    fn cursor(&self, cta: u32) -> CtaCursor {
        assert!(cta < self.ctas, "cta {cta} out of range");
        CtaCursor::new(cta, SplitMix64::new(0))
    }

    /// `iter` counts rounds; `step` is 1 between a round's compute and
    /// its read.
    fn next_op(&self, cur: &mut CtaCursor, accesses: &mut Vec<MemAccess>) -> Option<CtaOp> {
        if cur.iter >= self.rounds {
            return None;
        }
        if cur.step == 0 {
            cur.step = 1;
            return Some(CtaOp::Compute(self.gap));
        }
        let base = u64::from(cur.cta) * u64::from(self.rounds) * 128;
        accesses.push(MemAccess::read(base + u64::from(cur.iter) * 128));
        (cur.iter, cur.step) = (cur.iter + 1, 0);
        Some(CtaOp::Mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every op of `cta`, each with the transactions it appended.
    fn ops(k: &dyn KernelModel, cta: u32) -> Vec<(CtaOp, Vec<MemAccess>)> {
        let mut cur = k.cursor(cta);
        std::iter::from_fn(|| {
            let mut accesses = Vec::new();
            k.next_op(&mut cur, &mut accesses).map(|op| (op, accesses))
        })
        .collect()
    }

    #[test]
    fn stream_kernel_is_deterministic() {
        let k = StreamKernel {
            ctas: 4,
            rounds: 3,
            gap: 10,
        };
        let a = ops(&k, 2);
        let b = ops(&k, 2);
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
            ops(&k, cta)
                .into_iter()
                .filter_map(|(op, a)| match op {
                    CtaOp::Mem => Some(a[0].addr),
                    CtaOp::Compute(_) => None,
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
        let _ = k.cursor(5);
    }
}

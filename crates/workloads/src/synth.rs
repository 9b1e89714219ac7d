//! The parametric synthetic kernel engine.
//!
//! Every Table II workload is an instance of [`SyntheticKernel`]: a
//! deterministic generator of per-CTA op streams parameterized by compute
//! intensity, sequential/random/dependent/write access counts, atomics, and
//! the sizes of three virtual regions:
//!
//! ```text
//! | shared (random reads) | read (sequential, split per CTA) | write (split per CTA) |
//! ```
//!
//! The parameters encode each workload's *traffic character* — which is
//! what the paper's evaluation exercises: total volume, locality (L1/L2
//! reuse), spread (uniform vs. hot HMCs, Fig. 10), read/write/atomic mix,
//! and compute/memory ratio.

use memnet_common::SplitMix64;
use memnet_gpu::kernel::{CtaCursor, CtaOp, KernelModel, MemAccess};

/// Line size used for coalesced accesses.
const LINE: u64 = 128;

memnet_obs::to_json_struct! {
    /// A deterministic, parametric GPU kernel model.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SyntheticKernel {
        /// CTAs in the grid.
        pub ctas: u32,
        /// Memory phases (outer iterations) per CTA.
        pub iters: u32,
        /// Compute cycles between memory phases.
        pub compute_gap: u32,
        /// Sequential-stream reads per phase (each from its own stream slice).
        pub seq_reads: u32,
        /// Independent random reads per phase, uniform over the shared region.
        pub rand_reads: u32,
        /// Dependent random reads per phase (serialized, pointer-chasing).
        pub dep_reads: u32,
        /// Sequential writes per phase.
        pub writes: u32,
        /// Halo reads per phase: reads into the *next* CTA's slice, so adjacent
        /// CTAs share cache lines (stencil halos). This is what makes chunked
        /// CTA assignment win over round-robin (Section III-B).
        pub halo_reads: u32,
        /// Issue one atomic every this many phases (0 = never).
        pub atomic_every: u32,
        /// Temporal reuse factor: each phase additionally re-reads the previous
        /// phase's sequential/halo lines `reuse - 1` times. Models the
        /// warp-level spatial/temporal reuse that gives real GPU kernels their
        /// L1/L2 hit rates (1 = pure streaming).
        pub reuse: u32,
        /// Shared random-read region in bytes.
        pub shared_bytes: u64,
        /// Sequential-read region in bytes (divided across CTAs).
        pub read_bytes: u64,
        /// Write region in bytes (divided across CTAs).
        pub write_bytes: u64,
        /// Stride between consecutive sequential accesses (≥ 128; larger values
        /// model butterfly/transpose patterns like FWT/FT).
        pub stride: u64,
        /// Base seed; each CTA derives an independent stream.
        pub seed: u64,
    }
}

/// The most CTAs a kernel may launch; a run queues every one up front.
/// Measured with a 2-GPU × 2-SM UMN VECADD model at `--seconds-budget
/// 0.001` on a 2-core host: 1M CTAs take 0.06 s and 34 MB, 16M 0.88 s and
/// 406 MB, 64M 3.5 s and 1.6 GB, and 4 294 967 295 abort on an 8.6 GB
/// allocation. The built-in models reach 2 048 (`spec_large`).
const MAX_CTAS: u32 = 1 << 20;

/// The most accesses one memory op may carry, `(seq_reads + halo_reads) ×
/// reuse + rand_reads + writes`, which the op queues at its SM's LSU at once.
/// Measured at 2 × 16 384 SMs on the same host: 64 accesses take 42 s and
/// 748 MB, and 1 024 abort at about 3.9 GB. The built-in models reach 29
/// (3DFD), the fuzzer 16.
const MAX_OP_ACCESSES: u64 = 64;

impl SyntheticKernel {
    /// Validates parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistent parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.ctas == 0 || self.iters == 0 {
            return Err("kernel needs at least one CTA and one iteration".into());
        }
        if self.ctas > MAX_CTAS {
            return Err(format!("'ctas' must be at most {MAX_CTAS}"));
        }
        // In u64: the u32 fields can sum past u32::MAX.
        let n = u64::from;
        let reads = (n(self.seq_reads) + n(self.halo_reads)).saturating_mul(n(self.reuse.max(1)));
        let width = reads.saturating_add(n(self.rand_reads) + n(self.writes));
        if width > MAX_OP_ACCESSES {
            return Err(format!(
                "'seq_reads', 'halo_reads', 'reuse', 'rand_reads' and 'writes' give {width} \
                 accesses per op, more than {MAX_OP_ACCESSES}"
            ));
        }
        if self.seq_reads > 0 && self.read_bytes < LINE * self.ctas as u64 {
            return Err("read region too small for per-CTA slices".into());
        }
        if self.writes > 0 && self.write_bytes < LINE * self.ctas as u64 {
            return Err("write region too small for per-CTA slices".into());
        }
        if (self.rand_reads > 0 || self.dep_reads > 0 || self.atomic_every > 0)
            && self.shared_bytes < LINE
        {
            return Err("shared region required for random/dependent/atomic accesses".into());
        }
        if self.stride < LINE {
            return Err("stride must be at least one line".into());
        }
        if self.halo_reads > 0 && (self.seq_reads == 0 || self.read_bytes < LINE * self.ctas as u64)
        {
            return Err("halo reads require sequential streams and a read region".into());
        }
        if width + n(self.dep_reads) == 0 {
            return Err("kernel must access memory".into());
        }
        Ok(())
    }

    /// Total bytes of the data footprint: the three regions end to end.
    pub fn footprint_bytes(&self) -> u64 {
        self.shared_bytes + self.read_bytes + self.write_bytes
    }

    /// Start of the sequential-read region.
    fn read_base(&self) -> u64 {
        self.shared_bytes
    }

    /// Start of the write region.
    fn write_base(&self) -> u64 {
        self.shared_bytes + self.read_bytes
    }

    /// One line of the shared region, uniformly at random.
    fn rand_shared_line(&self, rng: &mut SplitMix64) -> u64 {
        let lines = (self.shared_bytes / LINE).max(1);
        rng.next_below(lines) * LINE
    }

    /// Sequential slice position of stream `s` of `streams` for `cta` at
    /// iteration `iter`, wrapping within the CTA's slice of `region_bytes`.
    fn seq_addr(
        &self,
        cta: u64,
        iter: u32,
        base: u64,
        region_bytes: u64,
        streams: u32,
        s: u32,
    ) -> u64 {
        let slice = (region_bytes / self.ctas as u64).max(LINE * streams.max(1) as u64);
        let slice_base = base + (cta * slice) % region_bytes.max(slice);
        let per_stream = (slice / streams.max(1) as u64).max(LINE);
        let stream_base = slice_base + s as u64 * per_stream;
        let off = (iter as u64 * self.stride) % per_stream.max(LINE);
        // Align and clamp inside the region.
        let addr = stream_base + (off / LINE) * LINE;
        let end = base + region_bytes;
        if addr + LINE > end {
            base + (addr % region_bytes.max(LINE)) / LINE * LINE
        } else {
            addr
        }
    }

    /// The batched accesses of `cur`'s phase: its own sequential reads,
    /// then the halo reads into the next CTA's slice, `reuse - 1` more
    /// rounds of both for the previous phase, the random reads, and the
    /// writes.
    fn batch(&self, cur: &mut CtaCursor, out: &mut Vec<MemAccess>) {
        let cta = u64::from(cur.cta);
        let neighbor = (cta + 1) % u64::from(self.ctas);
        let streams = self.seq_reads.max(1);
        // Temporal reuse: re-read the previous phase's lines, which hit in
        // the L1 (own lines) or the GPU-shared L2 (halo lines from
        // neighbor CTAs resident on the same GPU).
        let rounds = if cur.iter > 0 { self.reuse.max(1) } else { 1 };
        for round in 0..rounds {
            let iter = cur.iter - round.min(1);
            for (owner, n) in [(cta, self.seq_reads), (neighbor, self.halo_reads)] {
                for s in 0..n {
                    let a = self.seq_addr(
                        owner,
                        iter,
                        self.read_base(),
                        self.read_bytes,
                        streams,
                        s % streams,
                    );
                    out.push(MemAccess::read(a));
                }
            }
        }
        for _ in 0..self.rand_reads {
            out.push(MemAccess::read(self.rand_shared_line(&mut cur.rng)));
        }
        for s in 0..self.writes {
            let a = self.seq_addr(
                cta,
                cur.iter,
                self.write_base(),
                self.write_bytes,
                self.writes,
                s,
            );
            out.push(MemAccess::write(a));
        }
    }
}

/// A CTA's `iter` is its phase, and `step` its place in the phase:
/// compute (0), batched accesses (1), the dependent chain (2 up to
/// `dep_reads + 1`), then the atomic. A step the kernel does not use is
/// skipped.
impl KernelModel for SyntheticKernel {
    fn cursor(&self, cta: u32) -> CtaCursor {
        assert!(cta < self.ctas, "cta {cta} out of range");
        debug_assert!(
            self.validate().is_ok(),
            "invalid kernel: {:?}",
            self.validate()
        );
        CtaCursor::new(cta, SplitMix64::new(self.seed).fork(cta as u64))
    }

    fn next_op(&self, cur: &mut CtaCursor, out: &mut Vec<MemAccess>) -> Option<CtaOp> {
        while cur.iter < self.iters {
            let step = cur.step;
            cur.step += 1;
            match step {
                0 if self.compute_gap > 0 => return Some(CtaOp::Compute(self.compute_gap)),
                0 => {}
                1 => {
                    let start = out.len();
                    self.batch(cur, out);
                    if out.len() > start {
                        return Some(CtaOp::Mem);
                    }
                }
                _ if step - 2 < self.dep_reads => {
                    out.push(MemAccess::read(self.rand_shared_line(&mut cur.rng)));
                    return Some(CtaOp::Mem);
                }
                _ if step - 2 == self.dep_reads
                    && self.atomic_every > 0
                    && (cur.iter + 1).is_multiple_of(self.atomic_every) =>
                {
                    out.push(MemAccess::atomic(self.rand_shared_line(&mut cur.rng)));
                    return Some(CtaOp::Mem);
                }
                // Phase finished.
                _ => (cur.iter, cur.step) = (cur.iter + 1, 0),
            }
        }
        None
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every op of `cta`, each with the transactions it appended.
    pub(crate) fn ops(
        k: &dyn KernelModel,
        cta: u32,
    ) -> impl Iterator<Item = (CtaOp, Vec<MemAccess>)> + '_ {
        let mut cur = k.cursor(cta);
        std::iter::from_fn(move || {
            let mut accesses = Vec::new();
            k.next_op(&mut cur, &mut accesses).map(|op| (op, accesses))
        })
    }

    /// The transactions of every memory op of `cta`, one batch per op.
    fn mem_ops(k: &SyntheticKernel, cta: u32) -> impl Iterator<Item = Vec<MemAccess>> + '_ {
        ops(k, cta).filter_map(|(op, a)| (op == CtaOp::Mem).then_some(a))
    }

    fn basic() -> SyntheticKernel {
        SyntheticKernel {
            ctas: 8,
            iters: 4,
            compute_gap: 10,
            seq_reads: 2,
            rand_reads: 1,
            dep_reads: 2,
            writes: 1,
            halo_reads: 0,
            atomic_every: 2,
            reuse: 1,
            shared_bytes: 1 << 16,
            read_bytes: 1 << 16,
            write_bytes: 1 << 16,
            stride: 128,
            seed: 7,
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let k = basic();
        assert!(ops(&k, 3).eq(ops(&k, 3)));
    }

    #[test]
    fn different_ctas_differ() {
        let k = basic();
        assert!(ops(&k, 0).ne(ops(&k, 1)));
    }

    #[test]
    fn phase_structure_matches_parameters() {
        let k = basic();
        let ops: Vec<_> = ops(&k, 0).collect();
        let computes = ops
            .iter()
            .filter(|o| matches!(o.0, CtaOp::Compute(_)))
            .count();
        assert_eq!(computes, 4, "one compute per phase");
        let atomics: usize = mem_ops(&k, 0)
            .map(|v| {
                v.iter()
                    .filter(|a| a.kind == memnet_common::AccessKind::Atomic)
                    .count()
            })
            .sum();
        assert_eq!(atomics, 2, "atomic every 2 phases over 4 iters");
        // Per phase: 1 batched op + 2 dependent ops (+ maybe atomic).
        let mems = ops.iter().filter(|o| o.0 == CtaOp::Mem).count();
        assert_eq!(mems, 4 * (1 + 2) + 2);
    }

    #[test]
    fn all_addresses_stay_in_footprint() {
        let k = basic();
        let fp = k.footprint_bytes();
        for cta in 0..k.ctas {
            for a in mem_ops(&k, cta).flatten() {
                assert!(
                    a.addr + a.bytes as u64 <= fp,
                    "addr {:#x} outside footprint {fp:#x}",
                    a.addr
                );
            }
        }
    }

    #[test]
    fn regions_are_respected() {
        let k = basic();
        for a in mem_ops(&k, 2).flatten() {
            match a.kind {
                memnet_common::AccessKind::Write => {
                    assert!(
                        a.addr >= k.shared_bytes + k.read_bytes,
                        "writes go to the write region"
                    );
                }
                memnet_common::AccessKind::Atomic => {
                    assert!(a.addr < k.shared_bytes, "atomics hit the shared region");
                }
                memnet_common::AccessKind::Read => {}
            }
        }
    }

    #[test]
    fn random_reads_cover_the_shared_region_roughly_uniformly() {
        let mut k = basic();
        k.rand_reads = 4;
        k.dep_reads = 0;
        k.atomic_every = 0;
        k.iters = 64;
        let mut quart = [0u64; 4];
        for cta in 0..k.ctas {
            for a in mem_ops(&k, cta).flatten() {
                if a.addr < k.shared_bytes {
                    quart[(a.addr * 4 / k.shared_bytes) as usize] += 1;
                }
            }
        }
        let total: u64 = quart.iter().sum();
        for q in quart {
            let frac = q as f64 / total as f64;
            assert!((0.15..0.35).contains(&frac), "quartile fraction {frac}");
        }
    }

    #[test]
    fn reuse_re_reads_previous_phase_lines() {
        let mut k = basic();
        k.reuse = 2;
        k.rand_reads = 0;
        k.dep_reads = 0;
        k.atomic_every = 0;
        k.writes = 0;
        // Collect per-phase batched reads; from phase 1 on, each batch must
        // contain the previous phase's addresses again.
        let batches: Vec<Vec<u64>> = mem_ops(&k, 0)
            .map(|v| v.iter().map(|a| a.addr).collect())
            .collect();
        assert!(batches.len() >= 2);
        for w in batches.windows(2) {
            let (prev, cur) = (&w[0], &w[1]);
            // First seq_reads of prev must appear in cur (the reuse reads).
            for a in prev.iter().take(k.seq_reads as usize) {
                assert!(cur.contains(a), "phase must re-read prev line {a:#x}");
            }
        }
        // All addresses still in the footprint.
        let fp = k.footprint_bytes();
        for b in &batches {
            for &a in b {
                assert!(a + 128 <= fp);
            }
        }
    }

    #[test]
    fn validate_catches_bad_parameters() {
        let mut k = basic();
        k.ctas = 0;
        assert!(k.validate().is_err());
        let mut k = basic();
        k.stride = 64;
        assert!(k.validate().is_err());
        let mut k = basic();
        k.shared_bytes = 0;
        assert!(k.validate().is_err(), "random reads need a shared region");
        let mut k = basic();
        k.seq_reads = 0;
        k.rand_reads = 0;
        k.dep_reads = 0;
        k.writes = 0;
        k.atomic_every = 0;
        assert!(k.validate().is_err(), "kernel must access memory");
        assert!(basic().validate().is_ok());
        let mut k = basic();
        k.ctas = u32::MAX;
        assert!(k.validate().unwrap_err().contains("'ctas'"));
        for (seq, writes, reuse) in [
            (200_000_000, 1, 1),
            (3_000_000_000, 2_000_000_000, 1),
            (16, 1, 4),
        ] {
            let mut k = basic();
            (k.seq_reads, k.writes, k.reuse) = (seq, writes, reuse);
            assert!(
                k.validate().unwrap_err().contains("accesses per op"),
                "{seq} {writes}"
            );
        }
        let mut k = basic();
        (k.seq_reads, k.halo_reads, k.reuse) = (u32::MAX, u32::MAX, u32::MAX);
        assert!(
            k.validate().is_err(),
            "the width saturates instead of wrapping"
        );
    }

    #[test]
    fn strided_kernel_spreads_addresses() {
        let mut k = basic();
        k.stride = 4096;
        k.ctas = 2;
        k.read_bytes = 1 << 20;
        let mut addrs = Vec::new();
        for a in mem_ops(&k, 0).flatten() {
            if a.kind == memnet_common::AccessKind::Read
                && a.addr >= k.shared_bytes
                && a.addr < k.shared_bytes + k.read_bytes
            {
                addrs.push(a.addr);
            }
        }
        let distinct: std::collections::BTreeSet<_> = addrs.iter().map(|a| a / 4096).collect();
        assert!(
            distinct.len() > 2,
            "strided reads should touch several 4 KB pages"
        );
    }
}

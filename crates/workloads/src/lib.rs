//! The Table II workload suite as synthetic kernel models.
//!
//! Each workload is a [`SyntheticKernel`] instance whose parameters encode
//! the traffic character of the original CUDA benchmark, plus host-side
//! staging information (memcpy sizes, host compute phases). Problem sizes
//! are scaled from the paper's inputs so that a full Fig. 14 sweep
//! simulates in minutes; the scaling per workload is documented on each
//! constructor.
//!
//! | Abbr | Original | Character captured |
//! |------|----------|--------------------|
//! | VECADD | CUDA SDK vectorAdd | 2-read/1-write streaming (Fig. 7) |
//! | BP   | Rodinia Back Propagation | bandwidth-bound layered streaming |
//! | BFS  | Rodinia Breadth-First Search | irregular + atomics, low compute |
//! | SRAD | Rodinia SRAD | 2-D stencil with halo reuse |
//! | KMN  | Rodinia K-means | uniform streaming + shared centroids (Fig. 10a) |
//! | BH   | LonestarGPU Barnes-Hut | dependent tree walks |
//! | SP   | LonestarGPU Survey Propagation | irregular + atomics |
//! | SCAN | CUDA SDK prefix sum | pure streaming, memcpy-dominated |
//! | 3DFD | CUDA SDK 3-D finite difference | deep stencil streaming |
//! | FWT  | CUDA SDK Fast Walsh Transform | butterfly strides |
//! | CG.S | NAS CG class S | tiny, imbalanced, CPU-assisted (Fig. 10b, 18) |
//! | FT.S | NAS FT class S | small strided FFT, CPU-assisted (Fig. 18) |
//! | RAY  | GPGPU-sim ray tracing | compute-heavy, divergent reads |
//! | STO  | StoreGPU | hashing streams |
//! | CP   | Parboil Coulombic Potential | compute-bound, tiny reused footprint (Fig. 19) |
//!
//! # Example
//!
//! ```
//! use memnet_workloads::Workload;
//!
//! let spec = Workload::Kmn.spec();
//! assert_eq!(spec.abbr, "KMN");
//! assert!(spec.kernel.ctas > 0);
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::cast_possible_truncation))]

pub mod host;
pub mod synth;

pub use host::HostWork;
pub use synth::SyntheticKernel;

use std::sync::Arc;

/// A complete workload: kernel + host staging + host compute phases.
///
/// Specs are owned data (names included) so they can come from anywhere:
/// the built-in [`Workload`] constructors, a runtime-loaded
/// `memnet-wdl` JSON model, or a fuzzer.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Paper abbreviation (Table II) or a model-supplied label.
    pub abbr: String,
    /// Full name.
    pub name: String,
    /// The GPU kernel.
    pub kernel: Arc<SyntheticKernel>,
    /// Bytes staged host→device before the kernel (memcpy organizations).
    pub h2d_bytes: u64,
    /// Bytes staged device→host after the kernel.
    pub d2h_bytes: u64,
    /// Host compute before the kernel (None for GPU-only workloads).
    pub host_pre: Option<HostWork>,
    /// Host compute after the kernel, typically a reduction over outputs.
    pub host_post: Option<HostWork>,
}

impl WorkloadSpec {
    /// Total virtual footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.kernel.footprint_bytes()
    }

    /// True when the CPU computes between kernel phases (CG.S, FT.S).
    pub fn cpu_active(&self) -> bool {
        self.host_pre.is_some() || self.host_post.is_some()
    }
}

/// The evaluated workloads (Table II, plus vectorAdd for Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// CUDA SDK vectorAdd (Fig. 7 remote-access study).
    VecAdd,
    /// Back Propagation.
    Bp,
    /// Breadth-First Search.
    Bfs,
    /// Speckle-Reducing Anisotropic Diffusion.
    Srad,
    /// K-means.
    Kmn,
    /// Barnes-Hut.
    Bh,
    /// Survey Propagation.
    Sp,
    /// Parallel prefix sum.
    Scan,
    /// 3-D finite difference.
    Fd3d,
    /// Fast Walsh Transform.
    Fwt,
    /// NAS Conjugate Gradient, class S.
    CgS,
    /// NAS FFT, class S.
    FtS,
    /// Ray tracing.
    Ray,
    /// StoreGPU.
    Sto,
    /// Coulombic Potential.
    Cp,
}

impl Workload {
    /// Every Table II workload (excludes the Fig. 7 VECADD microbenchmark).
    pub fn table2() -> [Workload; 14] {
        use Workload::*;
        [
            Bp, Bfs, Srad, Kmn, Bh, Sp, Scan, Fd3d, Fwt, CgS, FtS, Ray, Sto, Cp,
        ]
    }

    /// The subset used for the Fig. 19 scalability study.
    pub fn scalability_set() -> [Workload; 7] {
        use Workload::*;
        [Fd3d, Bp, Cp, Fwt, Ray, Scan, Srad]
    }

    /// Paper abbreviation.
    pub fn abbr(self) -> &'static str {
        use Workload::*;
        match self {
            VecAdd => "VECADD",
            Bp => "BP",
            Bfs => "BFS",
            Srad => "SRAD",
            Kmn => "KMN",
            Bh => "BH",
            Sp => "SP",
            Scan => "SCAN",
            Fd3d => "3DFD",
            Fwt => "FWT",
            CgS => "CG.S",
            FtS => "FT.S",
            Ray => "RAY",
            Sto => "STO",
            Cp => "CP",
        }
    }

    /// The default (scaled) specification used by the bench harness,
    /// sized for the 4-GPU scaled machine.
    pub fn spec(self) -> WorkloadSpec {
        self.spec_scaled(1)
    }

    /// A tiny specification for tests and the quickstart example.
    pub fn spec_small(self) -> WorkloadSpec {
        let mut s = self.spec_scaled(1);
        let mut k = (*s.kernel).clone();
        k.ctas = (k.ctas / 8).max(8);
        k.iters = (k.iters / 4).max(2);
        k.shared_bytes = (k.shared_bytes / 8).max(4096);
        k.read_bytes = (k.read_bytes / 8).max(k.ctas as u64 * 128);
        k.write_bytes = (k.write_bytes / 8).max(k.ctas as u64 * 128);
        s.h2d_bytes = k.shared_bytes + k.read_bytes;
        s.d2h_bytes = k.write_bytes;
        // Rebase host phases onto the shrunken output region.
        s.host_post = s.host_post.map(|hp| HostWork {
            region_base: k.shared_bytes + k.read_bytes,
            region_bytes: k.write_bytes,
            reads: (k.write_bytes / 64).min(hp.reads),
            ..hp
        });
        s.kernel = Arc::new(k);
        s
    }

    /// A larger input for the Fig. 19 scalability study: `scale`× the CTAs
    /// and data of the default spec (FWT deliberately scales less — the
    /// paper notes its input was too small to keep 16 GPUs busy).
    pub fn spec_large(self) -> WorkloadSpec {
        let factor = if self == Workload::Fwt { 2 } else { 4 };
        self.spec_scaled(factor)
    }

    /// Builds the spec with a CTA/data multiplier.
    pub fn spec_scaled(self, scale: u32) -> WorkloadSpec {
        let s = scale.max(1);
        let sc = |v: u64| v * s as u64;
        let sk = |k: SyntheticKernel| Arc::new(k);
        // Baseline machine: 4 GPUs × 16 SMs × 8 slots = 512 resident CTAs.
        match self {
            Workload::VecAdd => {
                let k = sk(SyntheticKernel {
                    ctas: 512 * s,
                    iters: 16,
                    compute_gap: 64,
                    seq_reads: 2,
                    rand_reads: 0,
                    dep_reads: 0,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 0,
                    reuse: 2,
                    shared_bytes: 0,
                    read_bytes: sc(4 << 20),
                    write_bytes: sc(2 << 20),
                    stride: 128,
                    seed: 0xADD,
                });
                spec("VECADD", "vectorAdd (CUDA SDK)", k, None, None)
            }
            Workload::Bp => {
                // 1M-point backprop scaled: bandwidth-bound layered streams,
                // little compute — the workload with the largest GMN gain.
                let k = sk(SyntheticKernel {
                    ctas: 512 * s,
                    iters: 192,
                    compute_gap: 48,
                    seq_reads: 3,
                    rand_reads: 1,
                    dep_reads: 0,
                    writes: 1,
                    halo_reads: 1,
                    atomic_every: 0,
                    reuse: 3,
                    shared_bytes: sc(512 << 10),
                    read_bytes: sc(3 << 20),
                    write_bytes: sc(1 << 20),
                    stride: 128,
                    seed: 0xB9,
                });
                spec("BP", "Back Propagation (Rodinia)", k, None, None)
            }
            Workload::Bfs => {
                // 1M-node BFS scaled: scattered neighbor reads, level
                // updates via atomics, negligible compute.
                let k = sk(SyntheticKernel {
                    ctas: 384 * s,
                    iters: 96,
                    compute_gap: 64,
                    seq_reads: 1,
                    rand_reads: 3,
                    dep_reads: 2,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 4,
                    reuse: 2,
                    shared_bytes: sc(3 << 20),
                    read_bytes: sc(2 << 20),
                    write_bytes: sc(1 << 20),
                    stride: 128,
                    seed: 0xBF5,
                });
                spec("BFS", "Breadth-First Search (Rodinia)", k, None, None)
            }
            Workload::Srad => {
                // 2K×2K 5-point stencil scaled: strong halo reuse.
                let k = sk(SyntheticKernel {
                    ctas: 512 * s,
                    iters: 128,
                    compute_gap: 160,
                    seq_reads: 3,
                    rand_reads: 0,
                    dep_reads: 0,
                    writes: 1,
                    halo_reads: 2,
                    atomic_every: 0,
                    reuse: 4,
                    shared_bytes: 0,
                    read_bytes: sc(2 << 20),
                    write_bytes: sc(2 << 20),
                    stride: 128,
                    seed: 0x5AD,
                });
                spec(
                    "SRAD",
                    "Speckle Reducing Anisotropic Diffusion (Rodinia)",
                    k,
                    None,
                    None,
                )
            }
            Workload::Kmn => {
                // 484K objects × 34 features scaled: object streaming plus
                // uniform reads of shared centroids — the uniform traffic
                // matrix of Fig. 10(a).
                let k = sk(SyntheticKernel {
                    ctas: 512 * s,
                    iters: 256,
                    compute_gap: 96,
                    seq_reads: 2,
                    rand_reads: 2,
                    dep_reads: 0,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 0,
                    reuse: 3,
                    shared_bytes: sc(2 << 20),
                    read_bytes: sc(3 << 20),
                    write_bytes: sc(512 << 10),
                    stride: 128,
                    seed: 0x6A3,
                });
                spec("KMN", "K-means (Rodinia)", k, None, None)
            }
            Workload::Bh => {
                // 8K-body Barnes-Hut scaled: serialized tree walks.
                let k = sk(SyntheticKernel {
                    ctas: 384 * s,
                    iters: 56,
                    compute_gap: 224,
                    seq_reads: 1,
                    rand_reads: 1,
                    dep_reads: 5,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 0,
                    reuse: 3,
                    shared_bytes: sc(2 << 20),
                    read_bytes: sc(1 << 20),
                    write_bytes: sc(1 << 20),
                    stride: 128,
                    seed: 0xB4,
                });
                spec("BH", "Barnes-Hut (LonestarGPU)", k, None, None)
            }
            Workload::Sp => {
                // 100K clauses / 300K literals scaled: irregular graph
                // updates with atomics.
                let k = sk(SyntheticKernel {
                    ctas: 384 * s,
                    iters: 80,
                    compute_gap: 96,
                    seq_reads: 1,
                    rand_reads: 3,
                    dep_reads: 1,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 3,
                    reuse: 2,
                    shared_bytes: sc(3 << 20),
                    read_bytes: sc(2 << 20),
                    write_bytes: sc(1 << 20),
                    stride: 128,
                    seed: 0x59,
                });
                spec("SP", "Survey Propagation (LonestarGPU)", k, None, None)
            }
            Workload::Scan => {
                // 16M-element prefix sum scaled: pure streaming; memcpy
                // dominates total runtime.
                let k = sk(SyntheticKernel {
                    ctas: 512 * s,
                    iters: 192,
                    compute_gap: 32,
                    seq_reads: 1,
                    rand_reads: 0,
                    dep_reads: 0,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 0,
                    reuse: 2,
                    shared_bytes: 0,
                    read_bytes: sc(2 << 20),
                    write_bytes: sc(2 << 20),
                    stride: 128,
                    seed: 0x5CA,
                });
                spec("SCAN", "Parallel prefix sum (CUDA SDK)", k, None, None)
            }
            Workload::Fd3d => {
                // 1024×1024×4 3-D stencil scaled: deep read fan-in.
                let k = sk(SyntheticKernel {
                    ctas: 512 * s,
                    iters: 160,
                    compute_gap: 112,
                    seq_reads: 5,
                    rand_reads: 0,
                    dep_reads: 0,
                    writes: 1,
                    halo_reads: 2,
                    atomic_every: 0,
                    reuse: 4,
                    shared_bytes: 0,
                    read_bytes: sc(3 << 20),
                    write_bytes: sc(1536 << 10),
                    stride: 128,
                    seed: 0x3DFD,
                });
                spec("3DFD", "3-D finite difference (CUDA SDK)", k, None, None)
            }
            Workload::Fwt => {
                // 8M-point Walsh transform scaled: butterfly strides touch
                // distant pages each pass.
                let k = sk(SyntheticKernel {
                    ctas: 448 * s,
                    iters: 160,
                    compute_gap: 64,
                    seq_reads: 2,
                    rand_reads: 0,
                    dep_reads: 0,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 0,
                    reuse: 2,
                    shared_bytes: 0,
                    read_bytes: sc(3 << 20),
                    write_bytes: sc(1536 << 10),
                    stride: 4096,
                    seed: 0xF3,
                });
                spec("FWT", "Fast Walsh Transform (CUDA SDK)", k, None, None)
            }
            Workload::CgS => {
                // Class S (1400 rows): deliberately tiny and imbalanced —
                // too few CTAs for 4 GPUs (Fig. 10(b)); the CPU reduces
                // between iterations (Fig. 18).
                // The hot x-vector is a handful of pages, so whichever
                // clusters they randomly land on become hot HMCs — the
                // Fig. 10(b) imbalance.
                let k = sk(SyntheticKernel {
                    ctas: 24 * s,
                    iters: 28,
                    compute_gap: 96,
                    seq_reads: 2,
                    rand_reads: 3,
                    dep_reads: 1,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 1,
                    reuse: 3,
                    shared_bytes: 16 << 10,
                    read_bytes: sc(128 << 10),
                    write_bytes: sc(32 << 10),
                    stride: 128,
                    seed: 0xC6,
                });
                spec(
                    "CG.S",
                    "Conjugate Gradient class S (NAS)",
                    k,
                    Some(HostWork::compute(20_000)),
                    Some(HostWork::reduce((16 << 10) + (128 << 10), 32 << 10, 6)),
                )
            }
            Workload::FtS => {
                // Class S 64³ FFT: small strided passes; host twiddle work.
                let k = sk(SyntheticKernel {
                    ctas: 64 * s,
                    iters: 24,
                    compute_gap: 144,
                    seq_reads: 2,
                    rand_reads: 1,
                    dep_reads: 0,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 0,
                    reuse: 3,
                    shared_bytes: sc(512 << 10),
                    read_bytes: sc(2 << 20),
                    write_bytes: sc(512 << 10),
                    stride: 2048,
                    seed: 0xF7,
                });
                spec(
                    "FT.S",
                    "Fast Fourier Transform class S (NAS)",
                    k,
                    Some(HostWork::compute(15_000)),
                    Some(HostWork::reduce((512 << 10) + (2 << 20), 512 << 10, 8)),
                )
            }
            Workload::Ray => {
                // 1024×1024 ray tracing: divergent scene reads, heavy ALU.
                let k = sk(SyntheticKernel {
                    ctas: 512 * s,
                    iters: 48,
                    compute_gap: 720,
                    seq_reads: 0,
                    rand_reads: 3,
                    dep_reads: 2,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 0,
                    reuse: 3,
                    shared_bytes: sc(2 << 20),
                    read_bytes: 0,
                    write_bytes: sc(2 << 20),
                    stride: 128,
                    seed: 0x4A,
                });
                spec("RAY", "Ray Tracing (GPGPU-sim)", k, None, None)
            }
            Workload::Sto => {
                // 26 MB StoreGPU hashing scaled: stream + scattered reads.
                let k = sk(SyntheticKernel {
                    ctas: 448 * s,
                    iters: 128,
                    compute_gap: 144,
                    seq_reads: 1,
                    rand_reads: 1,
                    dep_reads: 0,
                    writes: 2,
                    halo_reads: 0,
                    atomic_every: 0,
                    reuse: 3,
                    shared_bytes: sc(512 << 10),
                    read_bytes: sc(1536 << 10),
                    write_bytes: sc(1 << 20),
                    stride: 128,
                    seed: 0x570,
                });
                spec("STO", "StoreGPU (GPGPU-sim)", k, None, None)
            }
            Workload::Cp => {
                // 512×256 grid, 100 atoms: compute-bound; the atom table is
                // tiny and reused, so L2 hit rate rises as GPUs scale — the
                // superlinear effect the paper reports at 8 GPUs.
                let k = sk(SyntheticKernel {
                    ctas: 512 * s,
                    iters: 48,
                    compute_gap: 1440,
                    seq_reads: 1,
                    rand_reads: 1,
                    dep_reads: 0,
                    writes: 1,
                    halo_reads: 0,
                    atomic_every: 0,
                    reuse: 4,
                    shared_bytes: 512 << 10,
                    read_bytes: sc(1 << 20),
                    write_bytes: sc(2 << 20),
                    stride: 128,
                    seed: 0xC9,
                });
                spec("CP", "Coulombic Potential (Parboil)", k, None, None)
            }
        }
    }
}

fn spec(
    abbr: &str,
    name: &str,
    kernel: Arc<SyntheticKernel>,
    host_pre: Option<HostWork>,
    host_post: Option<HostWork>,
) -> WorkloadSpec {
    let h2d = kernel.shared_bytes + kernel.read_bytes;
    let d2h = kernel.write_bytes;
    WorkloadSpec {
        abbr: abbr.to_string(),
        name: name.to_string(),
        kernel,
        h2d_bytes: h2d,
        d2h_bytes: d2h,
        host_pre,
        host_post,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_gpu::kernel::CtaOp;

    #[test]
    fn all_specs_validate() {
        for w in Workload::table2().into_iter().chain([Workload::VecAdd]) {
            let s = w.spec();
            s.kernel
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.abbr));
            assert!(s.h2d_bytes > 0, "{} stages input", s.abbr);
            let small = w.spec_small();
            small
                .kernel
                .validate()
                .unwrap_or_else(|e| panic!("{} small: {e}", s.abbr));
            let large = w.spec_large();
            large
                .kernel
                .validate()
                .unwrap_or_else(|e| panic!("{} large: {e}", s.abbr));
        }
    }

    #[test]
    fn abbreviations_match_table2() {
        let abbrs: Vec<String> = Workload::table2().iter().map(|w| w.spec().abbr).collect();
        assert_eq!(
            abbrs,
            [
                "BP", "BFS", "SRAD", "KMN", "BH", "SP", "SCAN", "3DFD", "FWT", "CG.S", "FT.S",
                "RAY", "STO", "CP"
            ]
        );
    }

    #[test]
    fn only_cg_and_ft_use_the_cpu() {
        for w in Workload::table2() {
            let s = w.spec();
            let expect = matches!(w, Workload::CgS | Workload::FtS);
            assert_eq!(s.cpu_active(), expect, "{}", s.abbr);
        }
    }

    // The three WorkloadSpec invariants the memnet-wdl validator also
    // enforces on runtime-loaded models, pinned here on the built-in
    // suite so the two surfaces can never drift apart.

    #[test]
    fn footprint_is_the_sum_of_the_three_regions_at_every_scale() {
        for w in Workload::table2().into_iter().chain([Workload::VecAdd]) {
            for scale in [1u32, 2, 4, 8] {
                let s = w.spec_scaled(scale);
                let k = &s.kernel;
                assert_eq!(
                    s.footprint_bytes(),
                    k.shared_bytes + k.read_bytes + k.write_bytes,
                    "{} scale {scale}",
                    s.abbr
                );
            }
            let small = w.spec_small();
            assert_eq!(
                small.footprint_bytes(),
                small.kernel.shared_bytes + small.kernel.read_bytes + small.kernel.write_bytes,
                "{} small",
                small.abbr
            );
        }
    }

    #[test]
    fn spec_scaled_is_monotonic_in_work_and_footprint() {
        for w in Workload::table2().into_iter().chain([Workload::VecAdd]) {
            let mut prev = w.spec_scaled(1);
            for scale in [2u32, 4, 8] {
                let s = w.spec_scaled(scale);
                assert!(
                    s.kernel.ctas >= prev.kernel.ctas,
                    "{} scale {scale}: CTAs must not shrink",
                    s.abbr
                );
                assert!(
                    s.footprint_bytes() >= prev.footprint_bytes(),
                    "{} scale {scale}: footprint must not shrink",
                    s.abbr
                );
                assert!(
                    s.h2d_bytes >= prev.h2d_bytes && s.d2h_bytes >= prev.d2h_bytes,
                    "{} scale {scale}: staging must not shrink",
                    s.abbr
                );
                prev = s;
            }
        }
    }

    #[test]
    fn cpu_active_iff_host_phases_present_and_they_stay_in_bounds() {
        for w in Workload::table2().into_iter().chain([Workload::VecAdd]) {
            for s in [w.spec_small(), w.spec(), w.spec_large()] {
                assert_eq!(
                    s.cpu_active(),
                    s.host_pre.is_some() || s.host_post.is_some(),
                    "{}",
                    s.abbr
                );
                // Host phases that read memory must walk a region the
                // kernel footprint actually contains.
                for h in [&s.host_pre, &s.host_post].into_iter().flatten() {
                    if h.reads > 0 {
                        assert!(h.stride > 0, "{}: zero host stride", s.abbr);
                        assert!(
                            h.region_base + h.region_bytes <= s.footprint_bytes(),
                            "{}: host region outside the footprint",
                            s.abbr
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cg_s_is_small_and_underparallel() {
        let cg = Workload::CgS.spec();
        let kmn = Workload::Kmn.spec();
        assert!(cg.kernel.ctas < 64, "class S has too few CTAs for 4 GPUs");
        assert!(
            cg.footprint_bytes() * 4 < kmn.footprint_bytes(),
            "class S footprint is tiny"
        );
    }

    #[test]
    fn bfs_and_sp_issue_atomics() {
        for w in [Workload::Bfs, Workload::Sp] {
            let s = w.spec();
            assert!(s.kernel.atomic_every > 0, "{}", s.abbr);
        }
    }

    #[test]
    fn cp_is_compute_bound() {
        let cp = Workload::Cp.spec();
        let scan = Workload::Scan.spec();
        assert!(cp.kernel.compute_gap >= 10 * scan.kernel.compute_gap);
    }

    #[test]
    fn fwt_strides_exceed_a_page() {
        assert!(Workload::Fwt.spec().kernel.stride >= 4096);
    }

    #[test]
    fn spec_large_scales_ctas() {
        let base = Workload::Bp.spec();
        let large = Workload::Bp.spec_large();
        assert_eq!(large.kernel.ctas, base.kernel.ctas * 4);
        // FWT deliberately scales less.
        assert_eq!(
            Workload::Fwt.spec_large().kernel.ctas,
            Workload::Fwt.spec().kernel.ctas * 2
        );
    }

    #[test]
    fn kernels_generate_runnable_streams() {
        for w in Workload::table2() {
            let s = w.spec_small();
            let mut ops = 0;
            let mut mem = 0;
            for (op, _) in crate::synth::tests::ops(&*s.kernel, 0) {
                ops += 1;
                if op == CtaOp::Mem {
                    mem += 1;
                }
                assert!(ops < 10_000, "{}: runaway stream", s.abbr);
            }
            assert!(mem > 0, "{}: kernel must touch memory", s.abbr);
        }
    }

    #[test]
    fn footprints_fit_the_address_space_budget() {
        for w in Workload::table2() {
            let s = w.spec_large();
            assert!(
                s.footprint_bytes() < 1 << 32,
                "{}: footprint too large",
                s.abbr
            );
        }
    }
}

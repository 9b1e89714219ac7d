//! Scalable Kernel Execution (SKE): the virtual-GPU runtime (Section III).
//!
//! SKE presents N discrete GPUs as one virtual GPU: an unmodified
//! single-GPU kernel is launched into the virtual command queue, and the
//! runtime generates one launch command per physical GPU carrying its CTA
//! range (Fig. 5). Three CTA assignment policies are modeled
//! (Section III-B):
//!
//! * [`CtaPolicy::StaticChunk`] — the paper's choice: the flattened CTA
//!   index space is split into N contiguous chunks, preserving the
//!   inter-CTA locality that raises L1/L2 hit rates.
//! * [`CtaPolicy::RoundRobin`] — fine-grained interleaving (the 8 %-slower
//!   baseline).
//! * [`CtaPolicy::Stealing`] — static assignment plus dynamic stealing of
//!   undispatched CTAs by idle GPUs (<1 % gain in the paper).

/// CTA-to-GPU assignment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CtaPolicy {
    /// Contiguous 1/N chunks (paper default).
    #[default]
    StaticChunk,
    /// CTA `i` goes to GPU `i mod N`.
    RoundRobin,
    /// Static chunks + runtime stealing from the deepest queue.
    Stealing,
}

impl CtaPolicy {
    /// True if the engine should run the stealing loop.
    pub fn steals(self) -> bool {
        matches!(self, CtaPolicy::Stealing)
    }
}

/// Splits the flattened grid `0..grid` over `n_gpus` queues.
///
/// Multi-dimensional CUDA grids are flattened before partitioning
/// (Section III-B), so a `u32` index space fully describes the grid.
///
/// # Panics
///
/// Panics if `n_gpus` is zero.
pub fn partition(grid: u32, n_gpus: u32, policy: CtaPolicy) -> Vec<Vec<u32>> {
    assert!(n_gpus > 0, "need at least one GPU");
    let mut queues = vec![Vec::new(); n_gpus as usize];
    match policy {
        CtaPolicy::StaticChunk | CtaPolicy::Stealing => {
            // First ceil(grid/n) CTAs to GPU0, the next chunk to GPU1, ...
            let base = grid / n_gpus;
            let extra = grid % n_gpus;
            let mut next = 0u32;
            for (g, q) in queues.iter_mut().enumerate() {
                #[allow(clippy::cast_possible_truncation, reason = "g < n_gpus, a u32")]
                let len = base + u32::from((g as u32) < extra);
                q.extend(next..next + len);
                next += len;
            }
        }
        CtaPolicy::RoundRobin => {
            for cta in 0..grid {
                queues[(cta % n_gpus) as usize].push(cta);
            }
        }
    }
    queues
}

/// Picks a steal: `(victim, count)` — half the deepest queue — for an idle
/// GPU, or `None` if no queue has more than one undispatched CTA.
pub fn pick_steal(pending: &[usize]) -> Option<(usize, usize)> {
    let (victim, &depth) = pending.iter().enumerate().max_by_key(|&(_, &d)| d)?;
    if depth < 2 {
        return None;
    }
    Some((victim, depth / 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coverage_ok(grid: u32, queues: &[Vec<u32>]) {
        let mut seen = vec![false; grid as usize];
        for q in queues {
            for &c in q {
                assert!(!seen[c as usize], "cta {c} assigned twice");
                seen[c as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every CTA must be assigned");
    }

    #[test]
    fn static_chunks_are_contiguous_and_cover() {
        let q = partition(100, 4, CtaPolicy::StaticChunk);
        coverage_ok(100, &q);
        assert_eq!(q[0], (0..25).collect::<Vec<_>>());
        assert_eq!(q[3], (75..100).collect::<Vec<_>>());
    }

    #[test]
    fn static_handles_remainders() {
        let q = partition(10, 4, CtaPolicy::StaticChunk);
        coverage_ok(10, &q);
        let lens: Vec<usize> = q.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
        // Chunks remain contiguous.
        assert_eq!(q[0], vec![0, 1, 2]);
        assert_eq!(q[1], vec![3, 4, 5]);
    }

    #[test]
    fn round_robin_interleaves() {
        let q = partition(8, 4, CtaPolicy::RoundRobin);
        coverage_ok(8, &q);
        assert_eq!(q[0], vec![0, 4]);
        assert_eq!(q[1], vec![1, 5]);
    }

    #[test]
    fn fewer_ctas_than_gpus() {
        let q = partition(2, 4, CtaPolicy::StaticChunk);
        coverage_ok(2, &q);
        assert_eq!(q.iter().filter(|q| q.is_empty()).count(), 2);
    }

    #[test]
    fn zero_grid_is_empty() {
        let q = partition(0, 4, CtaPolicy::RoundRobin);
        assert!(q.iter().all(Vec::is_empty));
    }

    #[test]
    fn single_gpu_gets_everything() {
        let q = partition(64, 1, CtaPolicy::StaticChunk);
        assert_eq!(q[0].len(), 64);
    }

    #[test]
    fn stealing_uses_static_initial_assignment() {
        assert_eq!(
            partition(64, 4, CtaPolicy::Stealing),
            partition(64, 4, CtaPolicy::StaticChunk)
        );
        assert!(CtaPolicy::Stealing.steals());
        assert!(!CtaPolicy::StaticChunk.steals());
    }

    #[test]
    fn pick_steal_halves_the_deepest_queue() {
        assert_eq!(pick_steal(&[0, 10, 4, 0]), Some((1, 5)));
        assert_eq!(pick_steal(&[0, 1, 0]), None, "too shallow to steal");
        assert_eq!(pick_steal(&[]), None);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_panics() {
        let _ = partition(10, 0, CtaPolicy::StaticChunk);
    }

    /// Deterministic randomized property: any (grid, n, policy) drawn from
    /// a seeded generator covers each CTA exactly once.
    #[test]
    fn every_policy_covers_each_cta_exactly_once() {
        use memnet_common::rng::SplitMix64;
        let policies = [
            CtaPolicy::StaticChunk,
            CtaPolicy::RoundRobin,
            CtaPolicy::Stealing,
        ];
        let mut rng = SplitMix64::new(0x5ce_cafe);
        for _ in 0..32 {
            let grid = rng.next_below(5000) as u32;
            let n = 1 + rng.next_below(16) as u32;
            let policy = policies[rng.next_below(3) as usize];
            let q = partition(grid, n, policy);
            assert_eq!(q.len(), n as usize, "grid {grid} n {n} {policy:?}");
            let mut all: Vec<u32> = q.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..grid).collect::<Vec<_>>(),
                "grid {grid} n {n} {policy:?}"
            );
        }
    }
}

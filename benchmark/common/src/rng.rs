//! Seeded input generation. The benchmark owns its generator so that the
//! program under test only ever sees generated inputs, never the seed.

/// SplitMix64 (Steele, Lea & Flood): a fixed sequence per seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be nonzero");
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `count` draws.
    pub fn sequence(&self, rng: &mut SplitMix64, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.draw(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_reproducible_per_seed_and_differs_across_seeds() {
        let z = Zipf::new(120, 1.0);
        let a = z.sequence(&mut SplitMix64::new(1), 400);
        let b = z.sequence(&mut SplitMix64::new(1), 400);
        let c = z.sequence(&mut SplitMix64::new(2), 400);
        assert_eq!(a, b, "same seed, same sequence");
        assert_ne!(a, c, "another seed, another sequence");
        assert!(a.iter().all(|&r| r < 120));
    }

    #[test]
    fn zipf_head_is_hot() {
        let z = Zipf::new(8, 1.0);
        let seq = z.sequence(&mut SplitMix64::new(7), 10_000);
        let count = |r| seq.iter().filter(|&&x| x == r).count() as f64;
        // Weight of rank 0 is 1/H(8) = 0.368, of rank 7 an eighth of that.
        assert!((count(0) / 10_000.0 - 0.368).abs() < 0.02);
        assert!((count(0) / count(7) - 8.0).abs() < 1.5);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..56).collect();
        let mut b = a.clone();
        SplitMix64::new(3).shuffle(&mut a);
        SplitMix64::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..56).collect::<Vec<_>>());
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..56).collect::<Vec<_>>());
    }
}

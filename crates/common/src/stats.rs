//! Statistics collection: running moments, latency histograms, the GPU×HMC
//! traffic matrix of Fig. 10, and small numeric helpers (geometric mean for
//! the Fig. 19 scalability summary).

use std::fmt;

/// Streaming mean/min/max/count accumulator.
#[derive(Debug, Clone, Copy)]
pub struct RunningStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The raw `(count, sum, min, max)` fields, including the ±∞ sentinels
    /// of an empty accumulator. Checkpoint hook: feed the tuple back
    /// through [`RunningStats::from_raw`] to reconstruct bit-identically.
    pub fn raw(&self) -> (u64, f64, f64, f64) {
        (self.count, self.sum, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`RunningStats::raw`] output.
    pub fn from_raw(count: u64, sum: f64, min: f64, max: f64) -> Self {
        RunningStats {
            count,
            sum,
            min,
            max,
        }
    }
}

// A derived Default would zero-initialize `min`/`max`, silently clamping
// the observed minimum of any default-constructed accumulator to 0.0.
// Defer to `new()` and its ±∞ sentinels.
impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.2} min={:.2} max={:.2}",
                self.count,
                self.mean(),
                self.min,
                self.max
            )
        }
    }
}

/// Power-of-two bucketed histogram for latencies / queue depths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `log2(max)+1` buckets; values ≥ 2^63 land in
    /// the last bucket.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize; // 0 -> bucket 0, 1 -> 1, 2..3 -> 2, ...
        self.buckets[b.min(63)] += 1;
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw bucket counts; bucket `i > 0` covers `[2^(i-1), 2^i)`.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate percentile (0..=100) as the lower bound of the bucket that
    /// crosses it. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, reason = "saturating f64 cast; at most total")]
        let target = (p / 100.0 * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        1u64 << 62
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Source × destination traffic accumulation in bytes (Fig. 10).
///
/// Rows are traffic sources (GPUs), columns are HMCs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMatrix {
    rows: usize,
    cols: usize,
    bytes: Vec<u64>,
}

impl TrafficMatrix {
    /// Creates a zeroed `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        TrafficMatrix {
            rows,
            cols,
            bytes: vec![0; rows * cols],
        }
    }

    /// Number of source rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of destination columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Adds `bytes` of traffic from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range.
    #[inline]
    pub fn add(&mut self, src: usize, dst: usize, bytes: u64) {
        assert!(
            src < self.rows && dst < self.cols,
            "traffic matrix index out of range"
        );
        self.bytes[src * self.cols + dst] += bytes;
    }

    /// Raw byte count for a cell.
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.cols + dst]
    }

    /// Total bytes across all cells.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Per-destination (column) totals — the per-HMC load used to measure
    /// the Fig. 10(b) imbalance.
    pub fn column_totals(&self) -> Vec<u64> {
        (0..self.cols)
            .map(|c| (0..self.rows).map(|r| self.get(r, c)).sum())
            .collect()
    }

    /// The flat row-major cell contents — checkpoint hook.
    pub fn raw_bytes(&self) -> &[u64] {
        &self.bytes
    }

    /// The same cells, for a restore to overwrite.
    pub fn raw_bytes_mut(&mut self) -> &mut [u64] {
        &mut self.bytes
    }
}

/// Geometric mean of positive values; returns 0.0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        s.record(2.0);
        s.record(4.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn default_uses_infinity_sentinels() {
        // Regression: a derived Default zeroed min/max, so a default
        // accumulator reported min() = Some(0.0) after recording only
        // positive samples, and max() = Some(0.0) after negative ones.
        let mut d = RunningStats::default();
        d.record(5.0);
        assert_eq!(d.min(), Some(5.0));
        assert_eq!(d.max(), Some(5.0));
        let mut n = RunningStats::default();
        n.record(-2.0);
        assert_eq!(n.max(), Some(-2.0));
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!(h.percentile(50.0) <= 4);
        assert!(h.percentile(100.0) >= 512);
        assert_eq!(Histogram::new().percentile(99.0), 0);
    }

    #[test]
    fn histogram_zero_and_huge() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn traffic_matrix_column_totals() {
        let mut m = TrafficMatrix::new(2, 3);
        m.add(0, 0, 10);
        m.add(0, 1, 117);
        m.add(1, 1, 3);
        assert_eq!(m.column_totals(), [10, 120, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn traffic_matrix_bounds() {
        let mut m = TrafficMatrix::new(1, 1);
        m.add(0, 1, 1);
    }

    #[test]
    fn geomean_matches_hand_value() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}

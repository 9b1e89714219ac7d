//! Order statistics for timing samples.

/// Sorted copy of `v` (total order; NaN sorts last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v`; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no sample is a bug in the
/// caller, not a value.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(v, n=4)` (the exclusive method), which is what
/// the acceptance procedure computes spreads with. `None` below two
/// samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut q = [0.0; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(q)
}

/// Distance between the first and the third quartile as a share of the
/// median — the run-to-run spread. `None` below two samples or for a
/// zero median.
pub fn iqr_share(v: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(v)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile `p` (0..=100) of `v`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of p50 / p90 / p99 / p99.9 that still has at least ten
/// samples beyond it; a tail percentile resting on fewer is one outlier's
/// value, not a statistic, and is not printed.
pub fn highest_percentile(n: usize) -> f64 {
    // Per-mille integers: 100 × (1 − 0.9) is not 10 in binary floating point.
    [999usize, 990, 900]
        .into_iter()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .map_or(50.0, |p| p as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(5.5 / 5.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(5), 50.0);
        assert_eq!(highest_percentile(99), 50.0);
        assert_eq!(highest_percentile(100), 90.0);
        assert_eq!(highest_percentile(999), 90.0);
        assert_eq!(highest_percentile(1_000), 99.0);
        assert_eq!(highest_percentile(5_000), 99.0);
        assert_eq!(highest_percentile(10_000), 99.9);
    }
}

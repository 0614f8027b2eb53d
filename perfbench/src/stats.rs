//! Percentiles with sample-count discipline, and histogram deltas over the
//! program's own `LogHistogram`s.

use dabs_obs::HistSnapshot;

/// Value reported for a percentile that lands on a miss (a solve that did
/// not reach its target, a job that was refused or never finished): misses
/// sort as +∞, and JSON has no infinity.
pub const MISS_MS: f64 = 1.0e9;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: f64 = 10.0;

/// Whether `n` samples support the `q` quantile.
pub fn supported(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= MIN_BEYOND - 1e-9
}

/// Nearest-rank quantile of `values` (any order; `f64::INFINITY` allowed).
/// `None` when the sample is too small to support `q`.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !supported(values.len(), q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median of a small sample (set-up repetitions): no support rule.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Replace an infinite quantile (a miss) with [`MISS_MS`].
pub fn finite_or_miss(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        MISS_MS
    }
}

/// Per-bucket difference of two snapshots of the same histogram: the
/// observations recorded between them.
pub fn hist_delta(before: &HistSnapshot, after: &HistSnapshot) -> Vec<u64> {
    after
        .buckets()
        .iter()
        .zip(before.buckets())
        .map(|(a, b)| a.saturating_sub(*b))
        .collect()
}

/// Nearest-rank quantile over bucket counts: the bucket's inclusive upper
/// bound (≤12.5% above the true value). `None` when unsupported.
pub fn hist_quantile(counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 || !supported(total as usize, q) {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (idx, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let (_, hi) = HistSnapshot::bucket_bounds(idx);
            return Some(hi.saturating_sub(1) as f64);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.99), None);
        assert!(supported(1000, 0.99));
    }

    #[test]
    fn misses_sort_last() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert_eq!(quantile(&v, 0.5), Some(11.0));
    }
}

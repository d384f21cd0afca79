//! Exact order statistics over raw samples. Every percentile the
//! benchmark reports is nearest-rank on the sorted sample, printed with
//! its sample count — no histogram bucketing, no interpolation.

/// Nearest-rank percentile of `sorted` (ascending), `q` in `(0, 1]`:
/// the smallest sample with at least `q·n` samples at or below it.
/// Returns 0 for an empty sample.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its nearest-rank percentile.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile_sorted(samples, q)
}

/// Median of `values` (mean of the two middle values when the count is
/// even). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Largest of `values` (−∞ for an empty slice).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Smallest of `values` (+∞ for an empty slice).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `(max − min) ÷ median`: the relative spread of a run's windows.
pub fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    (max(values) - min(values)) / m
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.50), 50);
        assert_eq!(percentile(&mut s, 0.99), 99);
        assert_eq!(percentile(&mut s, 1.0), 100);
        // Nearest rank never interpolates: 5 samples, p50 is the 3rd.
        let mut s = vec![10, 1, 7, 3, 1000];
        assert_eq!(percentile(&mut s, 0.5), 7);
        assert_eq!(percentile(&mut s, 0.9), 1000);
        assert_eq!(percentile(&mut s, 0.01), 1);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn window_median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 5.0, 4.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!((max(&[3.0, 9.0, 1.0]), min(&[3.0, 9.0, 1.0])), (9.0, 1.0));
        assert!((relative_spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(relative_spread(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), 0.0);
        assert!((coefficient_of_variation(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}

//! Small statistics toolkit used by reports and the experiment harness.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
}

impl Summary {
    /// Computes summary statistics; returns `None` for an empty sample.
    pub fn of(sample: &[f64]) -> Option<Summary> {
        if sample.is_empty() {
            return None;
        }
        let n = sample.len();
        let mean = mean(sample);
        let std_dev = std_dev(sample);
        let mut sorted: Vec<f64> = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n,
            mean,
            std_dev,
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 50.0),
        })
    }

    /// Half-width of the ~95 % confidence interval of the mean (normal
    /// approximation, `1.96 σ / √n`).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std_dev / (self.n as f64).sqrt()
        }
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample variance with `n − 1` denominator (0 for fewer than 2 points).
pub fn variance(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Weighted mean; returns 0 when total weight is 0.
pub fn weighted_mean(xs: &[f64], ws: &[f64]) -> f64 {
    assert_eq!(xs.len(), ws.len(), "value/weight length mismatch");
    let wsum: f64 = ws.iter().sum();
    if wsum == 0.0 {
        return 0.0;
    }
    xs.iter().zip(ws).map(|(x, w)| x * w).sum::<f64>() / wsum
}

/// Percentile (0–100) by linear interpolation over an *unsorted* sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Online mean/variance accumulator (Welford's algorithm) — constant-memory
/// streaming statistics for long simulations.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Running sample variance (n − 1 denominator).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Running sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Fixed-width histogram over `[lo, hi)` with `bins` buckets; values outside
/// the range clamp to the edge buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram; `bins ≥ 1`, `lo < hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins >= 1, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        let bins = self.counts.len();
        let idx = if x <= self.lo {
            0
        } else if x >= self.hi {
            bins - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize
        };
        self.counts[idx.min(bins - 1)] += 1;
    }

    /// Bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[5.0]).unwrap();
        assert_eq!(s.median, 5.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_matches() {
        assert_eq!(weighted_mean(&[1.0, 3.0], &[1.0, 1.0]), 2.0);
        assert_eq!(weighted_mean(&[1.0, 3.0], &[3.0, 1.0]), 1.5);
        assert_eq!(weighted_mean(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    fn welford_agrees_with_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.variance() - variance(&xs)).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.push(-1.0); // clamps to bucket 0
        h.push(0.5);
        h.push(9.9);
        h.push(42.0); // clamps to last bucket
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[4], 2);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.median, 2.0);
        assert!(s.ci95_half_width() > 0.0);
    }
}

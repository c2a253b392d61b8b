//! Plain statistics utilities used by the experiments: summary statistics,
//! histograms (the pdf plots of Figures 10, 11a and 13) and empirical CDFs
//! (Figures 11b and 14).

use serde::Serialize;

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation (0 for fewer than two samples).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics of `values`. Returns a zeroed summary for
    /// an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `values` using linear
/// interpolation between order statistics. Returns `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile {q} not in [0, 1]");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let w = pos - lo as f64;
        Some(sorted[lo] * (1.0 - w) + sorted[hi] * w)
    }
}

/// Empirical cumulative distribution function evaluated at each point of
/// `grid`: the fraction of `values` that are ≤ the grid point.
pub fn ecdf(values: &[f64], grid: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return vec![0.0; grid.len()];
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    grid.iter()
        .map(|&x| {
            let count = sorted.partition_point(|v| *v <= x);
            count as f64 / sorted.len() as f64
        })
        .collect()
}

/// A fixed-width histogram over a closed range, producing the "fraction of
/// nodes" densities plotted in the paper.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "invalid histogram range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.total += 1;
        if value < self.lo {
            self.underflow += 1;
            return;
        }
        if value >= self.hi {
            self.overflow += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = ((value - self.lo) / width) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Adds every observation in `values`.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.add(v);
        }
    }

    /// Number of observations recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The bin centers.
    pub fn centers(&self) -> Vec<f64> {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (0..self.counts.len())
            .map(|i| self.lo + (i as f64 + 0.5) * width)
            .collect()
    }

    /// The fraction of all observations falling in each bin (the paper's
    /// "fraction of nodes" y-axis).
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Unbiased std dev of this classic sample is sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_of_empty_sample_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn ecdf_is_monotone_and_normalized() {
        let values = [1.0, 2.0, 2.0, 3.0, 10.0];
        let grid = [0.0, 1.0, 2.0, 5.0, 10.0];
        let cdf = ecdf(&values, &grid);
        assert_eq!(cdf, vec![0.0, 0.2, 0.6, 0.8, 1.0]);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn histogram_bins_and_fractions() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.extend([0.5, 1.5, 1.6, 9.9, -1.0, 10.0]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        let fr = h.fractions();
        assert!((fr[1] - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.centers()[0], 0.5);
    }

    #[test]
    #[should_panic]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}

//! Median and quartiles over the repetitions of a run.

/// Order statistics of one metric over the repetitions of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    /// Every repetition's value, in run order (`compare` needs them for the
    /// "every run better than every run" rule).
    pub values: Vec<f64>,
}

impl Summary {
    /// Summarises `values` (at least one).
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a metric needs at least one repetition");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Summary {
            median: median(&sorted),
            min: sorted[0],
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them, so the spread printed here is the one the acceptance rule computes.
/// A single value is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.q3), (1.0, 3.0));
        // statistics.quantiles([10,20,30,40,50,60,70,80,90,100], n=4)
        //   == [27.5, 55.0, 82.5]
        let v: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (27.5, 55.0, 82.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median_and_min_is_kept() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.values, vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(Summary::of(&[2.0]).spread(), 0.0);
    }
}

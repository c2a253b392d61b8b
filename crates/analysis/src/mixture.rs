//! Two-component Gaussian mixture fitting.
//!
//! Section 6.2 of the paper notes that the score distribution is "a mixture of
//! two components" (honest nodes and freeriders) and that likelihood
//! maximization could be used to separate them, before arguing for a fixed
//! absolute threshold instead. This module provides a small 1-D expectation–
//! maximization fitter so the repository can *ablate* that design choice: the
//! `fig11_score_distributions` experiment compares the fixed threshold
//! `η = −9.75` with the crossing point of a fitted mixture.

/// One Gaussian component of the mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// Mixing weight in `[0, 1]`.
    pub weight: f64,
    /// Mean.
    pub mean: f64,
    /// Variance (floored at a small positive value during fitting).
    pub variance: f64,
}

impl Component {
    fn pdf(&self, x: f64) -> f64 {
        let var = self.variance.max(1e-9);
        let d = x - self.mean;
        (-(d * d) / (2.0 * var)).exp() / (2.0 * std::f64::consts::PI * var).sqrt()
    }
}

/// A two-component 1-D Gaussian mixture fitted by EM.
///
/// The component with the lower mean is always reported first (for the score
/// mixtures of the paper that is the freerider mode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianMixture {
    /// Component with the lower mean (freeriders, for score data).
    pub low: Component,
    /// Component with the higher mean (honest nodes, for score data).
    pub high: Component,
    /// Log-likelihood of the data under the fitted mixture.
    pub log_likelihood: f64,
}

impl GaussianMixture {
    /// Fits a two-component mixture to `data` with `iterations` EM steps.
    ///
    /// Returns `None` if fewer than four samples are provided (the fit would
    /// be meaningless).
    pub fn fit(data: &[f64], iterations: usize) -> Option<GaussianMixture> {
        if data.len() < 4 {
            return None;
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let n = sorted.len();
        // Initialize from the lower and upper halves of the sorted data.
        let half = n / 2;
        let mut low = init_component(&sorted[..half], 0.5);
        let mut high = init_component(&sorted[half..], 0.5);

        let mut responsibilities = vec![0.0f64; n];
        let mut log_likelihood = f64::NEG_INFINITY;
        for _ in 0..iterations.max(1) {
            // E step: responsibility of the low component for each point.
            let mut ll = 0.0;
            for (i, &x) in data.iter().enumerate() {
                let pl = low.weight * low.pdf(x);
                let ph = high.weight * high.pdf(x);
                let total = (pl + ph).max(1e-300);
                responsibilities[i] = pl / total;
                ll += total.ln();
            }
            log_likelihood = ll;
            // M step.
            let rl: f64 = responsibilities.iter().sum();
            let rh = n as f64 - rl;
            if rl < 1e-9 || rh < 1e-9 {
                break; // one component collapsed; keep the current estimate
            }
            low = m_step(data, &responsibilities, rl, true);
            high = m_step(data, &responsibilities, rh, false);
        }
        let (low, high) = if low.mean <= high.mean {
            (low, high)
        } else {
            (high, low)
        };
        Some(GaussianMixture {
            low,
            high,
            log_likelihood,
        })
    }

    /// Posterior probability that `x` belongs to the low-mean component.
    pub fn posterior_low(&self, x: f64) -> f64 {
        let pl = self.low.weight * self.low.pdf(x);
        let ph = self.high.weight * self.high.pdf(x);
        if pl + ph == 0.0 {
            0.5
        } else {
            pl / (pl + ph)
        }
    }

    /// The decision boundary between the two components: the point between the
    /// two means where the posterior switches (found by bisection).
    pub fn decision_boundary(&self) -> f64 {
        let mut lo = self.low.mean;
        let mut hi = self.high.mean;
        if lo == hi {
            return lo;
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if self.posterior_low(mid) > 0.5 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

fn init_component(data: &[f64], weight: f64) -> Component {
    let n = data.len().max(1) as f64;
    let mean = data.iter().sum::<f64>() / n;
    let variance = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    Component {
        weight,
        mean,
        variance: variance.max(1e-6),
    }
}

fn m_step(data: &[f64], resp_low: &[f64], total_resp: f64, low: bool) -> Component {
    let n = data.len() as f64;
    let resp = |i: usize| {
        if low {
            resp_low[i]
        } else {
            1.0 - resp_low[i]
        }
    };
    let mean = data
        .iter()
        .enumerate()
        .map(|(i, &x)| resp(i) * x)
        .sum::<f64>()
        / total_resp;
    let variance = data
        .iter()
        .enumerate()
        .map(|(i, &x)| resp(i) * (x - mean) * (x - mean))
        .sum::<f64>()
        / total_resp;
    Component {
        weight: total_resp / n,
        mean,
        variance: variance.max(1e-6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_sample(rng: &mut SmallRng, mean: f64, std: f64) -> f64 {
        // Box–Muller transform; good enough for test data.
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn recovers_two_well_separated_modes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut data = Vec::new();
        for _ in 0..900 {
            data.push(gaussian_sample(&mut rng, 0.0, 2.0));
        }
        for _ in 0..100 {
            data.push(gaussian_sample(&mut rng, -25.0, 3.0));
        }
        let fit = GaussianMixture::fit(&data, 100).unwrap();
        assert!(
            (fit.low.mean - (-25.0)).abs() < 2.0,
            "low mean {}",
            fit.low.mean
        );
        assert!(fit.high.mean.abs() < 1.0, "high mean {}", fit.high.mean);
        assert!((fit.low.weight - 0.1).abs() < 0.05);
        let boundary = fit.decision_boundary();
        assert!(boundary > -25.0 && boundary < 0.0, "boundary {boundary}");
        assert!(fit.posterior_low(-30.0) > 0.99);
        assert!(fit.posterior_low(1.0) < 0.01);
    }

    #[test]
    fn too_few_samples_returns_none() {
        assert!(GaussianMixture::fit(&[1.0, 2.0], 10).is_none());
    }

    #[test]
    fn single_mode_data_still_converges() {
        let mut rng = SmallRng::seed_from_u64(2);
        let data: Vec<f64> = (0..500)
            .map(|_| gaussian_sample(&mut rng, 5.0, 1.0))
            .collect();
        let fit = GaussianMixture::fit(&data, 50).unwrap();
        // Both components should sit near the single mode.
        assert!((fit.low.mean - 5.0).abs() < 2.0);
        assert!((fit.high.mean - 5.0).abs() < 2.0);
        assert!(fit.log_likelihood.is_finite());
    }
}

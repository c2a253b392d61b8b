//! Analysis-level Monte-Carlo model of the blames applied to a node.
//!
//! Figures 10–12 of the paper are produced by Monte-Carlo simulations of the
//! *blame process* (not of the full packet-level system): each gossip period,
//! a node is blamed by its partners and verifiers according to the events
//! described in Section 6.2, with message losses drawn from a Bernoulli
//! distribution. [`BlameModel`] implements exactly that generative process; it
//! mirrors the structure of the closed forms in [`crate::formulas`] so the two
//! can be cross-validated (and are, in the tests below).

use lifting_sim::{pool, split_seed};
use rand::rngs::SmallRng;
use rand::{Bernoulli, Rng, SeedableRng};

use crate::formulas::{FreeridingDegree, ProtocolParams};
use crate::stats::Summary;

/// Generative model of per-period blames for one node.
#[derive(Debug, Clone, Copy)]
pub struct BlameModel {
    params: ProtocolParams,
    pdcc: f64,
    /// Cached `exp(-f)` for the Poisson verifier-count draw: the exponential
    /// is invariant across the millions of samples a sweep takes, and it
    /// dominated the per-sample cost when recomputed inside the loop.
    poisson_l: f64,
    /// Precomputed draws for the model-invariant probabilities (each is
    /// bit-identical to `gen_bool` at the same probability — see
    /// [`Bernoulli`]): message survival `pr`, both-ways `pr²`, the
    /// all-serves-plus-ack chain `pr^(|R|+1)`, the per-witness chain `pr³`,
    /// and the cross-check trigger `pdcc`.
    draw_pr: Bernoulli,
    draw_pr_both_ways: Bernoulli,
    draw_pr_serves_and_ack: Bernoulli,
    draw_pr_cubed: Bernoulli,
    draw_pdcc: Bernoulli,
}

/// Normalized scores sampled for a population of honest nodes and freeriders.
#[derive(Debug, Clone, Default)]
pub struct ScoreSamples {
    /// Normalized scores of honest nodes.
    pub honest: Vec<f64>,
    /// Normalized scores of freeriders.
    pub freeriders: Vec<f64>,
}

impl BlameModel {
    /// Creates a blame model.
    ///
    /// # Panics
    ///
    /// Panics if `pdcc` is not in `[0, 1]`.
    pub fn new(params: ProtocolParams, pdcc: f64) -> Self {
        assert!((0.0..=1.0).contains(&pdcc), "pdcc = {pdcc} not in [0, 1]");
        BlameModel {
            params,
            pdcc,
            poisson_l: (-(params.fanout as f64)).exp(),
            draw_pr: Bernoulli::new(params.pr),
            draw_pr_both_ways: Bernoulli::new(params.pr * params.pr),
            draw_pr_serves_and_ack: Bernoulli::new(params.pr.powi(params.requested as i32 + 1)),
            draw_pr_cubed: Bernoulli::new(params.pr.powi(3)),
            draw_pdcc: Bernoulli::new(pdcc),
        }
    }

    /// The protocol parameters of the model.
    pub fn params(&self) -> ProtocolParams {
        self.params
    }

    /// The probability `pdcc` of triggering a direct cross-check.
    pub fn pdcc(&self) -> f64 {
        self.pdcc
    }

    /// Expected wrongful blame per period given this model's `pdcc`
    /// (Equation 5 covers `pdcc = 1`; for smaller `pdcc` only a fraction of
    /// the cross-checking blames occur). This is the per-period compensation
    /// LiFTinG applies to all scores.
    pub fn compensation_per_period(&self) -> f64 {
        self.params.expected_blame_direct_verification()
            + self.pdcc * self.params.expected_blame_cross_checking()
    }

    /// Samples the blame applied to a node of degree `delta` during one gossip
    /// period (Section 6.2's event model).
    pub fn sample_period_blame<R: Rng + ?Sized>(
        &self,
        delta: FreeridingDegree,
        rng: &mut R,
    ) -> f64 {
        // Every probability below is loop-invariant; computing them once per
        // sample (and the model-level powers/exponentials once per model)
        // matters because a sweep draws hundreds of millions of these. The
        // values — and therefore every RNG draw and outcome — are exactly the
        // ones the inline expressions produced.
        let f = self.params.fanout;
        let r_len = self.params.requested;
        let f_blame = f as f64;
        let propose_target = (1.0 - delta.delta1) * f_blame;
        let serve_target = (1.0 - delta.delta3) * r_len as f64;
        let draw_witness_keep = Bernoulli::new(1.0 - delta.delta1);
        let draw_drop_source = Bernoulli::new(delta.delta2);
        let draw_pr = self.draw_pr;
        let mut blame = 0.0;

        // --- Direct verification: blames from the partners this node proposed to.
        // Fractional counts (e.g. serving 90 % of 4 chunks) are resolved by
        // randomized rounding so expectations match the closed forms exactly.
        let fanout_used = sample_count(rng, propose_target).min(f);
        for _ in 0..fanout_used {
            if !draw_pr.sample(rng) {
                continue; // proposal lost: the partner never expects anything
            }
            if !draw_pr.sample(rng) {
                // Request lost: nothing arrives, the partner blames by f.
                blame += f_blame;
                continue;
            }
            let served = sample_count(rng, serve_target).min(r_len);
            let received = (0..served).filter(|_| draw_pr.sample(rng)).count();
            blame += f_blame * (r_len - received) as f64 / r_len as f64;
        }

        // --- Direct cross-checking: blames from the nodes that served this
        // node during the previous period. Each other node picks its partners
        // uniformly at random, so the number of verifiers is Poisson(f)
        // distributed around the fanout in steady state.
        let verifiers = sample_poisson_with(rng, self.poisson_l);
        for _ in 0..verifiers {
            // Partial propose: this verifier's chunks were deliberately dropped.
            if delta.delta2 > 0.0 && draw_drop_source.sample(rng) {
                blame += f_blame;
                continue;
            }
            if !self.draw_pdcc.sample(rng) {
                continue; // this verifier does not cross-check this time
            }
            // The verifier only holds the node accountable if its own
            // proposal/request exchange with the node succeeded.
            if !self.draw_pr_both_ways.sample(rng) {
                continue;
            }
            // All |R| serves plus the ack must arrive for the verifier to see
            // a consistent acknowledgment; otherwise it blames by f.
            if !self.draw_pr_serves_and_ack.sample(rng) {
                blame += f_blame;
                continue;
            }
            // Per-witness checks: each of the f expected witnesses yields a
            // blame of 1 if the propose/confirm/response chain breaks or if
            // the node never proposed to it because of its reduced fanout.
            for _ in 0..f {
                let witness_ok = draw_witness_keep.sample(rng) && self.draw_pr_cubed.sample(rng);
                if !witness_ok {
                    blame += 1.0;
                }
            }
        }
        blame
    }

    /// Samples the normalized score (Equation 6) of a node of degree `delta`
    /// after `periods` gossip periods: blames are compensated by the expected
    /// wrongful blame each period and averaged.
    pub fn sample_normalized_score<R: Rng + ?Sized>(
        &self,
        delta: FreeridingDegree,
        periods: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(periods > 0, "at least one period is required");
        let compensation = self.compensation_per_period();
        let mut sum = 0.0;
        for _ in 0..periods {
            sum += self.sample_period_blame(delta, rng) - compensation;
        }
        -sum / periods as f64
    }

    /// Samples normalized scores for a whole population: `honest` honest nodes
    /// and `freeriders` freeriders of degree `delta`, each observed for
    /// `periods` gossip periods.
    ///
    /// Trials run on a worker pool. Each node's RNG stream is derived from
    /// `(seed, node index)` with the splitmix64 mixer, so the result is
    /// bit-identical however many workers execute the loop (including one) —
    /// the same deterministic-seed discipline as the scenario fleet in
    /// `lifting-runtime`.
    pub fn population_scores(
        &self,
        honest: usize,
        freeriders: usize,
        delta: FreeridingDegree,
        periods: usize,
        seed: u64,
    ) -> ScoreSamples {
        let total = honest + freeriders;
        let mut scores = pool::run_indexed(total, |i| {
            let mut rng = SmallRng::seed_from_u64(split_seed(seed, i as u64));
            let degree = if i < honest {
                FreeridingDegree::HONEST
            } else {
                delta
            };
            self.sample_normalized_score(degree, periods, &mut rng)
        });
        let freerider_scores = scores.split_off(honest);
        ScoreSamples {
            honest: scores,
            freeriders: freerider_scores,
        }
    }

    /// Monte-Carlo estimate of the mean and standard deviation of the
    /// per-period blame applied to a node of degree `delta`.
    ///
    /// The paper's closed form for the standard deviation lives in a companion
    /// technical report; this estimator plays its role when evaluating the
    /// Chebyshev bounds of Section 6.3.1.
    pub fn estimate_blame_stats(
        &self,
        delta: FreeridingDegree,
        samples: usize,
        seed: u64,
    ) -> Summary {
        // Same per-trial seed derivation as `population_scores`: parallel and
        // sequential execution agree bit for bit.
        let draws = pool::run_indexed(samples, |i| {
            let mut rng = SmallRng::seed_from_u64(split_seed(seed, i as u64));
            self.sample_period_blame(delta, &mut rng)
        });
        Summary::of(&draws)
    }
}

/// Randomized rounding of a non-negative real count: returns `floor(x)` or
/// `ceil(x)` with probabilities such that the expectation equals `x`.
fn sample_count<R: Rng + ?Sized>(rng: &mut R, x: f64) -> usize {
    let base = x.floor();
    let frac = x - base;
    let mut count = base as usize;
    if frac > 0.0 && rng.gen_bool(frac) {
        count += 1;
    }
    count
}

/// Samples a Poisson variate with Knuth's product-of-uniforms algorithm
/// (fine for the small λ ≈ fanout used here), taking the precomputed
/// `l = exp(-λ)` so the exponential is paid once per model, not per sample.
/// `l >= 1` (i.e. λ ≤ 0) degenerates to zero, like the old λ check did.
fn sample_poisson_with<R: Rng + ?Sized>(rng: &mut R, l: f64) -> usize {
    if l >= 1.0 {
        return 0;
    }
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // defensive cap; unreachable for the λ used here
        }
    }
}

impl ScoreSamples {
    /// All scores (honest then freeriders).
    pub fn all(&self) -> Vec<f64> {
        let mut v = self.honest.clone();
        v.extend_from_slice(&self.freeriders);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_mean_blame_matches_closed_form() {
        // Figure 10 setting: f = 12, |R| = 4, pl = 7 %, pdcc = 1.
        let params = ProtocolParams::simulation_defaults();
        let model = BlameModel::new(params, 1.0);
        let stats = model.estimate_blame_stats(FreeridingDegree::HONEST, 20_000, 42);
        let expected = params.expected_wrongful_blame();
        let rel_err = (stats.mean - expected).abs() / expected;
        assert!(
            rel_err < 0.02,
            "Monte-Carlo mean {} vs closed form {expected}",
            stats.mean
        );
        // The paper reports an experimental σ(b) of 25.6 in this setting.
        assert!(
            (stats.std_dev - 25.6).abs() < 3.0,
            "σ(b) = {}",
            stats.std_dev
        );
    }

    #[test]
    fn freerider_mean_blame_matches_closed_form() {
        let params = ProtocolParams::simulation_defaults();
        let model = BlameModel::new(params, 1.0);
        let delta = FreeridingDegree::uniform(0.1);
        let stats = model.estimate_blame_stats(delta, 20_000, 43);
        let expected = params.expected_blame_freerider(delta);
        let rel_err = (stats.mean - expected).abs() / expected;
        assert!(
            rel_err < 0.05,
            "Monte-Carlo mean {} vs closed form {expected}",
            stats.mean
        );
    }

    #[test]
    fn compensated_honest_scores_average_zero() {
        let params = ProtocolParams::simulation_defaults();
        let model = BlameModel::new(params, 1.0);
        let samples = model.population_scores(2_000, 0, FreeridingDegree::HONEST, 1, 7);
        let summary = Summary::of(&samples.honest);
        assert!(
            summary.mean.abs() < 2.0,
            "average honest score should be ≈ 0, got {}",
            summary.mean
        );
    }

    #[test]
    fn freeriders_score_lower_than_honest_nodes() {
        let params = ProtocolParams::simulation_defaults();
        let model = BlameModel::new(params, 1.0);
        let samples = model.population_scores(500, 500, FreeridingDegree::uniform(0.1), 50, 11);
        let honest = Summary::of(&samples.honest);
        let freeriders = Summary::of(&samples.freeriders);
        assert!(
            freeriders.mean < honest.mean - 5.0,
            "freeriders {} vs honest {}",
            freeriders.mean,
            honest.mean
        );
    }

    #[test]
    fn normalized_score_variance_shrinks_with_time() {
        let params = ProtocolParams::simulation_defaults();
        let model = BlameModel::new(params, 1.0);
        let short = model.population_scores(500, 0, FreeridingDegree::HONEST, 2, 3);
        let long = model.population_scores(500, 0, FreeridingDegree::HONEST, 50, 4);
        assert!(Summary::of(&long.honest).std_dev < Summary::of(&short.honest).std_dev);
    }

    #[test]
    fn lower_pdcc_produces_less_blame() {
        let params = ProtocolParams::planetlab_defaults();
        let full = BlameModel::new(params, 1.0);
        let half = BlameModel::new(params, 0.5);
        let b_full = full.estimate_blame_stats(FreeridingDegree::HONEST, 10_000, 5);
        let b_half = half.estimate_blame_stats(FreeridingDegree::HONEST, 10_000, 6);
        assert!(b_half.mean < b_full.mean);
        assert!(half.compensation_per_period() < full.compensation_per_period());
    }

    #[test]
    fn no_loss_and_honest_means_zero_blame() {
        let params = ProtocolParams::new(7, 4, 1.0);
        let model = BlameModel::new(params, 1.0);
        let stats = model.estimate_blame_stats(FreeridingDegree::HONEST, 1_000, 9);
        assert_eq!(stats.mean, 0.0);
        assert_eq!(stats.std_dev, 0.0);
    }

    #[test]
    fn population_scores_are_reproducible() {
        let params = ProtocolParams::simulation_defaults();
        let model = BlameModel::new(params, 1.0);
        let a = model.population_scores(50, 50, FreeridingDegree::uniform(0.05), 10, 123);
        let b = model.population_scores(50, 50, FreeridingDegree::uniform(0.05), 10, 123);
        assert_eq!(a.honest, b.honest);
        assert_eq!(a.freeriders, b.freeriders);
    }

    /// The regression contract of the parallel trial loop: whatever the pool
    /// does, every score equals the one produced by a plain sequential loop
    /// deriving the same per-node stream from `(seed, index)`.
    #[test]
    fn parallel_population_scores_match_the_sequential_derivation() {
        let params = ProtocolParams::simulation_defaults();
        let model = BlameModel::new(params, 1.0);
        let (honest_n, freerider_n, periods, seed) = (120, 80, 5, 987u64);
        let delta = FreeridingDegree::uniform(0.1);
        let samples = model.population_scores(honest_n, freerider_n, delta, periods, seed);

        let sequential: Vec<f64> = (0..honest_n + freerider_n)
            .map(|i| {
                let mut rng = SmallRng::seed_from_u64(split_seed(seed, i as u64));
                let degree = if i < honest_n {
                    FreeridingDegree::HONEST
                } else {
                    delta
                };
                model.sample_normalized_score(degree, periods, &mut rng)
            })
            .collect();
        assert_eq!(samples.honest, sequential[..honest_n]);
        assert_eq!(samples.freeriders, sequential[honest_n..]);
    }

    #[test]
    #[should_panic]
    fn zero_periods_panics() {
        let params = ProtocolParams::simulation_defaults();
        let model = BlameModel::new(params, 1.0);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = model.sample_normalized_score(FreeridingDegree::HONEST, 0, &mut rng);
    }
}

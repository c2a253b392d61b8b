//! Message-loss models.

use rand::Rng;

/// Probability model for losing a UDP message.
///
/// The paper's analysis (Section 6.2) assumes losses "independently drawn from
/// a Bernoulli distribution of parameter `pl`"; PlanetLab exhibited an average
/// loss of 4 % and the Monte-Carlo simulations use 7 %. Real wide-area loss is
/// *bursty*, though: outages cluster in time. The
/// [`GilbertElliott`](LossModel::GilbertElliott) variant models that with the classic
/// two-state Markov chain (a low-loss "good" state and a high-loss "bad"
/// state), whose per-message state lives in [`BurstState`] on the network
/// side — the model itself stays a pure, comparable configuration value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No losses at all.
    #[default]
    None,
    /// Each message is independently lost with probability `pl`.
    ///
    /// `Bernoulli { pl: 0.0 }` is *behaviourally* identical to
    /// [`LossModel::None`] — no message is ever lost and no randomness is
    /// consumed — but the two values compare unequal: a config built with
    /// [`LossModel::bernoulli`]`(0.0)` round-trips as the Bernoulli variant
    /// it asked for instead of being silently rewritten to `None`.
    Bernoulli {
        /// Probability of losing a message, in `[0, 1]`.
        pl: f64,
    },
    /// Gilbert–Elliott bursty loss: a two-state Markov chain alternating
    /// between a good state (loss `loss_good`) and a bad state (loss
    /// `loss_bad`), with per-message transition probabilities `p_gb`
    /// (good → bad) and `p_bg` (bad → good). Mean burst length is `1/p_bg`
    /// messages; the stationary loss rate is
    /// `(p_bg·loss_good + p_gb·loss_bad) / (p_gb + p_bg)`.
    GilbertElliott {
        /// Probability of entering the bad state on each message while good.
        p_gb: f64,
        /// Probability of leaving the bad state on each message while bad.
        p_bg: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

/// The mutable Markov-chain state of a [`LossModel::GilbertElliott`] channel.
///
/// Kept outside [`LossModel`] so the model remains a `Copy + PartialEq`
/// configuration value; the network owns one chain (bursts are modelled as a
/// network-wide condition, e.g. backbone congestion episodes shared by every
/// flow). The stateless variants ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BurstState {
    /// True while the chain is in the bad (high-loss) state.
    pub bad: bool,
}

impl LossModel {
    /// Creates a Bernoulli loss model.
    ///
    /// The requested variant is preserved even for `pl = 0.0` (see the
    /// equivalence note on [`LossModel::Bernoulli`]).
    ///
    /// # Panics
    ///
    /// Panics if `pl` is not within `[0, 1]`.
    pub fn bernoulli(pl: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&pl),
            "loss probability {pl} not in [0,1]"
        );
        LossModel::Bernoulli { pl }
    }

    /// Creates a Gilbert–Elliott bursty loss model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is outside `[0, 1]` or both transition
    /// probabilities are zero (the chain would never mix).
    pub fn gilbert_elliott(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, p) in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} not in [0,1]");
        }
        assert!(
            p_gb + p_bg > 0.0,
            "degenerate Gilbert-Elliott chain: both transition probabilities are zero"
        );
        LossModel::GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
        }
    }

    /// The average (stationary) loss probability of this model.
    pub fn loss_probability(&self) -> f64 {
        match self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { pl } => *pl,
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => (p_bg * loss_good + p_gb * loss_bad) / (p_gb + p_bg),
        }
    }

    /// The reception probability `pr = 1 - pl` (stationary for bursty models).
    pub fn reception_probability(&self) -> f64 {
        1.0 - self.loss_probability()
    }

    /// Samples whether a message is lost, advancing the burst chain for the
    /// stateful [`GilbertElliott`](LossModel::GilbertElliott) variant.
    ///
    /// `None` and `Bernoulli { pl: 0.0 }` consume no randomness (keeping them
    /// draw-for-draw interchangeable); `Bernoulli { pl > 0 }` consumes one
    /// draw per message exactly as it always did. Gilbert–Elliott consumes
    /// two draws per message (transition, then loss) — acceptable because the
    /// variant only ever appears in configs that opted into it.
    pub fn is_lost_with<R: Rng + ?Sized>(&self, state: &mut BurstState, rng: &mut R) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli { pl } => *pl > 0.0 && rng.gen_bool(*pl),
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                let flip = rng.gen_bool(if state.bad { *p_bg } else { *p_gb });
                if flip {
                    state.bad = !state.bad;
                }
                let pl = if state.bad { *loss_bad } else { *loss_good };
                rng.gen_bool(pl)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::derive_rng;

    #[test]
    fn none_never_loses() {
        let (mut rng, mut state) = (derive_rng(1, 0), BurstState::default());
        assert!((0..1000).all(|_| !LossModel::None.is_lost_with(&mut state, &mut rng)));
    }

    #[test]
    fn bernoulli_rate_is_close_to_parameter() {
        let model = LossModel::bernoulli(0.07);
        let (mut rng, mut state) = (derive_rng(2, 0), BurstState::default());
        let losses = (0..100_000)
            .filter(|_| model.is_lost_with(&mut state, &mut rng))
            .count();
        let rate = losses as f64 / 100_000.0;
        assert!((rate - 0.07).abs() < 0.005, "observed rate {rate}");
    }

    #[test]
    fn probabilities_are_consistent() {
        let m = LossModel::bernoulli(0.04);
        assert!((m.loss_probability() - 0.04).abs() < 1e-12);
        assert!((m.reception_probability() - 0.96).abs() < 1e-12);
    }

    #[test]
    fn zero_probability_bernoulli_is_preserved_and_lossless() {
        // The variant round-trips as requested instead of collapsing to
        // `None`, and stays behaviourally identical to it: never a loss,
        // never an RNG draw.
        let m = LossModel::bernoulli(0.0);
        assert_eq!(m, LossModel::Bernoulli { pl: 0.0 });
        assert_ne!(m, LossModel::None);
        assert_eq!(m.loss_probability(), 0.0);
        let mut a = derive_rng(3, 0);
        let mut b = derive_rng(3, 0);
        let mut state = BurstState::default();
        assert!((0..1000).all(|_| !m.is_lost_with(&mut state, &mut a)));
        // Same draw count as None: the two RNGs stay in lockstep.
        let _ = LossModel::None.is_lost_with(&mut state, &mut b);
        assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
    }

    #[test]
    fn gilbert_elliott_matches_stationary_rate_and_bursts() {
        // 1 % loss in the good state, 50 % in the bad; the chain spends
        // p_gb/(p_gb+p_bg) = 1/11 of its time bad => ~5.45 % average loss.
        let model = LossModel::gilbert_elliott(0.01, 0.10, 0.01, 0.50);
        assert!((model.loss_probability() - (0.10 * 0.01 + 0.01 * 0.50) / 0.11).abs() < 1e-12);
        let mut rng = derive_rng(4, 0);
        let mut state = BurstState::default();
        let n = 200_000;
        let mut losses = 0usize;
        let mut paired = 0usize; // losses immediately following a loss
        let mut prev = false;
        for _ in 0..n {
            let lost = model.is_lost_with(&mut state, &mut rng);
            losses += lost as usize;
            paired += (lost && prev) as usize;
            prev = lost;
        }
        let rate = losses as f64 / n as f64;
        assert!(
            (rate - model.loss_probability()).abs() < 0.005,
            "observed rate {rate}"
        );
        // Burstiness: P(loss | previous lost) must exceed the marginal rate —
        // an i.i.d. Bernoulli of the same average would make them equal.
        let conditional = paired as f64 / losses as f64;
        assert!(
            conditional > 2.0 * rate,
            "loss process not bursty: P(loss|loss) = {conditional:.3} vs rate {rate:.3}"
        );
    }

    #[test]
    fn gilbert_elliott_is_deterministic_given_state_and_seed() {
        let model = LossModel::gilbert_elliott(0.05, 0.2, 0.0, 0.8);
        let run = |seed| {
            let mut rng = derive_rng(seed, 0);
            let mut state = BurstState::default();
            (0..64)
                .map(|_| model.is_lost_with(&mut state, &mut rng))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic]
    fn invalid_probability_panics() {
        let _ = LossModel::bernoulli(1.5);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn frozen_gilbert_elliott_chain_is_rejected() {
        let _ = LossModel::gilbert_elliott(0.0, 0.0, 0.0, 0.5);
    }
}

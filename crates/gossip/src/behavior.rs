//! Node behaviours: honest or freeriding.
//!
//! Section 4 of the paper enumerates the ways a freerider can deviate in each
//! phase. The dissemination-level deviations are captured here; partner-
//! selection bias is configured through `lifting-membership` samplers and
//! verification-layer collusion (lying in acks, covering up colluders) through
//! `lifting-core`.

use lifting_sim::ComponentError;
use rand::Rng;

/// Dissemination-level freeriding configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeriderConfig {
    /// `δ1` — fanout decrease: the node proposes to `(1-δ1)·f` partners.
    pub delta1: f64,
    /// `δ2` — partial propose: chunks received from a fraction `δ2` of the
    /// nodes that served it are silently dropped from the next proposal.
    pub delta2: f64,
    /// `δ3` — partial serve: only `(1-δ3)·|R|` of the requested chunks are
    /// served.
    pub delta3: f64,
    /// Gossip-period stretching: the node only runs a propose phase every
    /// `period_stretch` periods (1 = no stretching). Section 4.1(iv).
    pub period_stretch: u32,
}

impl FreeriderConfig {
    /// A freerider applying the same decrease `δ` to every deviation, as in
    /// Figure 12.
    pub fn uniform(delta: f64) -> Self {
        FreeriderConfig {
            delta1: delta,
            delta2: delta,
            delta3: delta,
            period_stretch: 1,
        }
    }

    /// The freerider used in the PlanetLab deployment (Section 7.1):
    /// `fˆ = 6` of `f = 7`, propose 90 %, serve 90 %.
    pub fn planetlab() -> Self {
        FreeriderConfig {
            delta1: 1.0 / 7.0,
            delta2: 0.1,
            delta3: 0.1,
            period_stretch: 1,
        }
    }

    /// Validates the configuration: every `δ` in `[0, 1]`, a positive
    /// `period_stretch`. An error names the offending key of component
    /// `freerider`.
    pub fn validate(&self) -> Result<(), ComponentError> {
        let require = |ok, key, reason| ComponentError::require(ok, "freerider", key, reason);
        for (key, v) in [
            ("delta1", self.delta1),
            ("delta2", self.delta2),
            ("delta3", self.delta3),
        ] {
            require((0.0..=1.0).contains(&v), key, "not in [0, 1]")?;
        }
        require(
            self.period_stretch >= 1,
            "period_stretch",
            "period stretch must be ≥ 1",
        )
    }

    /// Upload-bandwidth gain: `1 - (1-δ1)(1-δ2)(1-δ3)`.
    pub fn gain(&self) -> f64 {
        1.0 - (1.0 - self.delta1) * (1.0 - self.delta2) * (1.0 - self.delta3)
    }
}

/// Behaviour of a node at the dissemination layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Behavior {
    /// Strictly follows the protocol.
    #[default]
    Honest,
    /// Deviates according to the embedded configuration.
    Freerider(FreeriderConfig),
}

impl Behavior {
    /// Validates the embedded freerider configuration, if any.
    pub fn validate(&self) -> Result<(), ComponentError> {
        self.freerider().map_or(Ok(()), FreeriderConfig::validate)
    }

    /// True if the node is a freerider.
    pub fn is_freerider(&self) -> bool {
        matches!(self, Behavior::Freerider(_))
    }

    /// The freerider configuration, if any.
    pub fn freerider(&self) -> Option<&FreeriderConfig> {
        match self {
            Behavior::Honest => None,
            Behavior::Freerider(cfg) => Some(cfg),
        }
    }

    /// The number of partners this node will actually contact given the
    /// protocol fanout `f` (randomized rounding of `(1-δ1)·f` so the expected
    /// value matches the analysis).
    pub fn effective_fanout<R: Rng + ?Sized>(&self, fanout: usize, rng: &mut R) -> usize {
        match self {
            Behavior::Honest => fanout,
            Behavior::Freerider(cfg) => {
                let target = (1.0 - cfg.delta1) * fanout as f64;
                let base = target.floor();
                let mut k = base as usize;
                let frac = target - base;
                if frac > 0.0 && rng.gen_bool(frac) {
                    k += 1;
                }
                k.min(fanout)
            }
        }
    }

    /// The number of chunks this node will serve out of `requested` (randomized
    /// rounding of `(1-δ3)·|R|`).
    pub fn effective_serve<R: Rng + ?Sized>(&self, requested: usize, rng: &mut R) -> usize {
        match self {
            Behavior::Honest => requested,
            Behavior::Freerider(cfg) => {
                let target = (1.0 - cfg.delta3) * requested as f64;
                let base = target.floor();
                let mut k = base as usize;
                let frac = target - base;
                if frac > 0.0 && rng.gen_bool(frac) {
                    k += 1;
                }
                k.min(requested)
            }
        }
    }

    /// Whether chunks received from one particular source should be dropped
    /// from the next proposal (partial-propose attack): true with probability
    /// `δ2` for freeriders, never for honest nodes.
    pub fn drops_source<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        match self {
            Behavior::Honest => false,
            Behavior::Freerider(cfg) => cfg.delta2 > 0.0 && rng.gen_bool(cfg.delta2),
        }
    }

    /// Whether the node skips its propose phase at `period_index` because it
    /// stretches its gossip period.
    pub fn skips_period(&self, period_index: u64) -> bool {
        match self {
            Behavior::Honest => false,
            Behavior::Freerider(cfg) => {
                cfg.period_stretch > 1 && !period_index.is_multiple_of(cfg.period_stretch as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::derive_rng;

    #[test]
    fn honest_behaviour_never_deviates() {
        let mut rng = derive_rng(1, 0);
        let b = Behavior::Honest;
        assert!(!b.is_freerider());
        assert_eq!(b.effective_fanout(7, &mut rng), 7);
        assert_eq!(b.effective_serve(4, &mut rng), 4);
        assert!(!b.drops_source(&mut rng));
        assert!(!b.skips_period(3));
    }

    #[test]
    fn planetlab_freerider_contacts_six_of_seven() {
        let mut rng = derive_rng(2, 0);
        let b = Behavior::Freerider(FreeriderConfig::planetlab());
        // δ1 = 1/7 exactly ⇒ (1-δ1)·7 = 6, no rounding randomness.
        for _ in 0..20 {
            assert_eq!(b.effective_fanout(7, &mut rng), 6);
        }
        assert!((FreeriderConfig::planetlab().gain() - 0.3).abs() < 0.01);
    }

    #[test]
    fn effective_serve_matches_delta3_in_expectation() {
        let mut rng = derive_rng(3, 0);
        let b = Behavior::Freerider(FreeriderConfig::uniform(0.1));
        let total: usize = (0..10_000).map(|_| b.effective_serve(4, &mut rng)).sum();
        let mean = total as f64 / 10_000.0;
        assert!((mean - 3.6).abs() < 0.05, "mean served {mean}");
    }

    #[test]
    fn drops_source_matches_delta2_in_expectation() {
        let mut rng = derive_rng(4, 0);
        let b = Behavior::Freerider(FreeriderConfig::uniform(0.25));
        let drops = (0..10_000).filter(|_| b.drops_source(&mut rng)).count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn period_stretching_skips_intermediate_periods() {
        let b = Behavior::Freerider(FreeriderConfig {
            delta1: 0.0,
            delta2: 0.0,
            delta3: 0.0,
            period_stretch: 3,
        });
        let skipped: Vec<bool> = (0..6).map(|i| b.skips_period(i)).collect();
        assert_eq!(skipped, vec![false, true, true, false, true, true]);
    }

    #[test]
    fn invalid_freerider_config_is_rejected() {
        let err = FreeriderConfig {
            delta1: 2.0,
            delta2: 0.0,
            delta3: 0.0,
            period_stretch: 1,
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err, ComponentError::InvalidParam { key, .. } if key == "delta1"));
        assert_eq!(Behavior::Honest.validate(), Ok(()));
    }
}

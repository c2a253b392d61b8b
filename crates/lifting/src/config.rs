//! LiFTinG configuration.

use lifting_sim::{ComponentError, SimDuration};
use serde::{Deserialize, Serialize};

/// How long a requester waits for requested chunks before running direct
/// verification: one gossip period `Tg` of the deployment (the paper checks
/// at the next period).
pub const SERVE_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// How long a server waits for the receiver's acknowledgment before blaming
/// it by `f`: the acknowledgment follows the receiver's next propose phase,
/// so a bit more than two gossip periods (`3·Tg`).
pub const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(1_500);

/// How long a verifier waits for confirm responses from the witnesses
/// (`2·Tg`); retry `i` of the hardened path waits `(i + 1)` times this.
pub const CONFIRM_TIMEOUT: SimDuration = SimDuration::from_millis(1_000);

/// Fraction of a node's managers that must vote for expulsion before the
/// node is cut off: a majority, `ceil(M/2)` distinct voters.
pub const EXPULSION_QUORUM: f64 = 0.5;

/// Static parameters of the LiFTinG verification layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LiftingConfig {
    /// Probability `pdcc` of triggering a direct cross-check after each serve
    /// (Section 5). 0 when the system is considered healthy, 1 when it must be
    /// purged from freeriders.
    pub pdcc: f64,
    /// Number of reputation managers `M` per node (25 in the deployment).
    pub managers: usize,
    /// Score-based detection threshold `η` (the paper uses −9.75, calibrated
    /// for a false-positive probability below 1 %).
    pub eta: f64,
    /// Entropy-based detection threshold `γ` (the paper uses 8.95 for
    /// `nh·f = 600` history entries).
    pub gamma: f64,
    /// History length `nh` in gossip periods kept for a-posteriori audits
    /// (50 in the paper's entropy experiments).
    pub history_periods: usize,
    /// Bounded retries for unanswered cross-check confirms (resilience
    /// hardening). `0` — the paper's behaviour — converts every witness
    /// still unconfirmed at the first timeout into a contradicted-proposal
    /// blame, which under message loss wrongly blames honest proposers
    /// (Figure 10's σ). `k > 0` re-sends the confirm to the still-silent
    /// witnesses up to `k` times with a deterministic linear backoff
    /// (attempt `i` waits [`CONFIRM_TIMEOUT`]` · (i + 1)`), and when the retries
    /// exhaust **aborts the check without blame**: a silent witness is then
    /// indistinguishable from a partitioned one, so contradiction evidence
    /// is left to the a-posteriori audit plane instead of being guessed.
    pub confirm_retries: u32,
    /// Minimum number of observed gossip periods before a node can be expelled
    /// on its score (a joining node's score is not yet comparable,
    /// Section 6.2).
    pub min_periods_before_expulsion: u64,
    /// Whether wrongful blames are compensated each period using the expected
    /// value from the loss rate (Equation 5). Disabling this is an ablation.
    pub compensate_wrongful_blames: bool,
}

impl LiftingConfig {
    /// The PlanetLab deployment parameters of Section 7.1.
    pub fn planetlab() -> Self {
        LiftingConfig {
            pdcc: 1.0,
            managers: 25,
            eta: -9.75,
            gamma: 8.95,
            history_periods: 50,
            confirm_retries: 0,
            min_periods_before_expulsion: 10,
            compensate_wrongful_blames: true,
        }
    }

    /// Same as [`planetlab`](LiftingConfig::planetlab) but with a different
    /// cross-checking probability.
    pub fn with_pdcc(mut self, pdcc: f64) -> Self {
        self.pdcc = pdcc;
        self
    }

    /// Enables the hardened confirm path: up to `retries` re-sends of an
    /// unanswered cross-check confirm before the check is abandoned without
    /// blame (see [`confirm_retries`](Self::confirm_retries)).
    pub fn with_confirm_retries(mut self, retries: u32) -> Self {
        self.confirm_retries = retries;
        self
    }

    /// Validates the configuration: `pdcc` in `[0, 1]`, thresholds of the
    /// right sign, at least one manager and one history period. An error
    /// names the offending key of component `lifting`.
    pub fn validate(&self) -> Result<(), ComponentError> {
        let require = |ok, key, reason| ComponentError::require(ok, "lifting", key, reason);
        require(
            (0.0..=1.0).contains(&self.pdcc),
            "pdcc",
            "pdcc out of range",
        )?;
        require(
            self.managers > 0,
            "managers",
            "at least one manager is required",
        )?;
        require(self.eta < 0.0, "eta", "η must be negative")?;
        require(self.gamma > 0.0, "gamma", "γ must be positive")?;
        require(
            self.history_periods > 0,
            "history_periods",
            "history must cover ≥ 1 period",
        )
    }
}

impl Default for LiftingConfig {
    fn default() -> Self {
        LiftingConfig::planetlab()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planetlab_preset_matches_the_paper() {
        let c = LiftingConfig::planetlab();
        assert_eq!(c.pdcc, 1.0);
        assert_eq!(c.managers, 25);
        assert_eq!(c.eta, -9.75);
        assert_eq!(c.gamma, 8.95);
        assert_eq!(c.history_periods, 50);
        assert_eq!(c.validate(), Ok(()));
        let half = c.with_pdcc(0.5);
        assert_eq!(half.pdcc, 0.5);
        assert_eq!(half.validate(), Ok(()));
    }

    fn rejected_key(c: LiftingConfig) -> String {
        match c.validate() {
            Err(ComponentError::InvalidParam { key, .. }) => key,
            other => panic!("expected an invalid parameter, got {other:?}"),
        }
    }

    #[test]
    fn positive_eta_is_rejected() {
        let mut c = LiftingConfig::planetlab();
        c.eta = 3.0;
        assert_eq!(rejected_key(c), "eta");
    }

    #[test]
    fn out_of_range_pdcc_is_rejected() {
        let mut c = LiftingConfig::planetlab();
        c.pdcc = 1.5;
        assert_eq!(rejected_key(c), "pdcc");
    }
}

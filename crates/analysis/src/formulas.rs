//! Closed-form expressions of Section 6 of the paper.
//!
//! All formulas are expressed in terms of the protocol parameters gathered in
//! [`ProtocolParams`] (fanout `f`, number of requested chunks `|R|`, message
//! reception probability `pr`) and, for freeriders, of the degree of
//! freeriding [`FreeridingDegree`].

/// Degree of freeriding `Δ = (δ1, δ2, δ3)` (Section 6.3.1).
///
/// Each component is the *fraction by which the freerider decreases* the
/// corresponding contribution:
///
/// * `δ1` — fanout decrease: the node contacts `(1-δ1)·f` partners,
/// * `δ2` — partial propose: chunks received from a fraction `δ2` of the nodes
///   that served it are not proposed further,
/// * `δ3` — partial serve: only `(1-δ3)·|R|` of the requested chunks are served.
///
/// The paper's PlanetLab experiment uses `Δ = (1/7, 0.1, 0.1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeridingDegree {
    /// Fanout decrease fraction, in `[0, 1]`.
    pub delta1: f64,
    /// Partial-propose fraction, in `[0, 1]`.
    pub delta2: f64,
    /// Partial-serve fraction, in `[0, 1]`.
    pub delta3: f64,
}

impl FreeridingDegree {
    /// An honest node: no deviation at all.
    pub const HONEST: FreeridingDegree = FreeridingDegree {
        delta1: 0.0,
        delta2: 0.0,
        delta3: 0.0,
    };

    /// Creates a degree of freeriding, validating the range of each component.
    ///
    /// # Panics
    ///
    /// Panics if any component is outside `[0, 1]`.
    pub fn new(delta1: f64, delta2: f64, delta3: f64) -> Self {
        for (name, v) in [("delta1", delta1), ("delta2", delta2), ("delta3", delta3)] {
            assert!((0.0..=1.0).contains(&v), "{name} = {v} not in [0, 1]");
        }
        FreeridingDegree {
            delta1,
            delta2,
            delta3,
        }
    }

    /// The uniform degree `δ1 = δ2 = δ3 = δ` used for Figure 12.
    pub fn uniform(delta: f64) -> Self {
        FreeridingDegree::new(delta, delta, delta)
    }

    /// The degree used in the paper's PlanetLab deployment (Section 7.1):
    /// `fˆ = 6` out of `f = 7` (δ1 = 1/7), propose 90 % (δ2 = 0.1), serve 90 %
    /// (δ3 = 0.1).
    pub fn planetlab() -> Self {
        FreeridingDegree::new(1.0 / 7.0, 0.1, 0.1)
    }

    /// Upload-bandwidth gain of the freerider (Section 6.3.1):
    /// `1 - (1-δ1)(1-δ2)(1-δ3)`.
    pub fn gain(&self) -> f64 {
        1.0 - (1.0 - self.delta1) * (1.0 - self.delta2) * (1.0 - self.delta3)
    }
}

impl Default for FreeridingDegree {
    fn default() -> Self {
        FreeridingDegree::HONEST
    }
}

/// Protocol parameters entering the closed forms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolParams {
    /// Fanout `f`: number of partners per propose phase.
    pub fanout: usize,
    /// `|R|`: number of chunks requested per proposal (assumed constant in the
    /// analysis, Section 6.2).
    pub requested: usize,
    /// Reception probability `pr = 1 - pl`.
    pub pr: f64,
}

impl ProtocolParams {
    /// Creates protocol parameters.
    ///
    /// # Panics
    ///
    /// Panics if `pr` is not in `[0, 1]` or if `fanout`/`requested` are zero.
    pub fn new(fanout: usize, requested: usize, pr: f64) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        assert!(requested > 0, "requested chunk count must be positive");
        assert!((0.0..=1.0).contains(&pr), "pr = {pr} not in [0, 1]");
        ProtocolParams {
            fanout,
            requested,
            pr,
        }
    }

    /// The parameters of the paper's Monte-Carlo simulations (Figures 10–11):
    /// `f = 12`, `|R| = 4`, `pl = 7 %`.
    pub fn simulation_defaults() -> Self {
        ProtocolParams::new(12, 4, 0.93)
    }

    /// The parameters of the paper's PlanetLab deployment (Figure 14):
    /// `f = 7`, `|R| = 4`, observed loss 4 %.
    pub fn planetlab_defaults() -> Self {
        ProtocolParams::new(7, 4, 0.96)
    }

    fn f(&self) -> f64 {
        self.fanout as f64
    }

    /// Expected wrongful blame from **direct verification** per gossip period
    /// (Equation 2): `b̃_dv = pr·(1 - pr²)·f²`.
    pub fn expected_blame_direct_verification(&self) -> f64 {
        let pr = self.pr;
        pr * (1.0 - pr * pr) * self.f() * self.f()
    }

    /// Expected wrongful blame from **direct cross-checking** per gossip
    /// period (Equation 3): `b̃_dcc = pr²·(1 - pr^(|R|+4))·f²`.
    pub fn expected_blame_cross_checking(&self) -> f64 {
        let pr = self.pr;
        pr * pr * (1.0 - pr.powi(self.requested as i32 + 4)) * self.f() * self.f()
    }

    /// Total expected wrongful blame per gossip period applied to an honest
    /// node (Equation 5): `b̃ = pr·(1 + pr - pr² - pr^(|R|+5))·f²`.
    ///
    /// This is the amount by which LiFTinG periodically *compensates* scores
    /// so honest nodes average zero.
    pub fn expected_wrongful_blame(&self) -> f64 {
        let pr = self.pr;
        pr * (1.0 + pr - pr * pr - pr.powi(self.requested as i32 + 5)) * self.f() * self.f()
    }

    /// Expected blame per gossip period applied to a freerider of degree `Δ`
    /// (Section 6.3.1, expression for `b̃'(Δ)`):
    ///
    /// ```text
    /// b̃'(Δ) = (1-δ1)·pr·(1 - pr²(1-δ3))·f²
    ///        + δ2·f²
    ///        + (1-δ2)·pr²·[ pr^(|R|+1)·(1 - pr³(1-δ1)) + (1 - pr^(|R|+1)) ]·f²
    /// ```
    ///
    /// For `Δ = (0,0,0)` this reduces to [`expected_wrongful_blame`].
    ///
    /// [`expected_wrongful_blame`]: ProtocolParams::expected_wrongful_blame
    pub fn expected_blame_freerider(&self, delta: FreeridingDegree) -> f64 {
        let pr = self.pr;
        let f2 = self.f() * self.f();
        let pr_r1 = pr.powi(self.requested as i32 + 1);
        let term_dv = (1.0 - delta.delta1) * pr * (1.0 - pr * pr * (1.0 - delta.delta3)) * f2;
        let term_dropped = delta.delta2 * f2;
        let term_dcc = (1.0 - delta.delta2)
            * pr
            * pr
            * (pr_r1 * (1.0 - pr.powi(3) * (1.0 - delta.delta1)) + (1.0 - pr_r1))
            * f2;
        term_dv + term_dropped + term_dcc
    }

    /// Expected *excess* blame of a freerider relative to an honest node, i.e.
    /// the expected normalized score drift per period (negated): after
    /// compensation, an honest node's score drifts by 0 per period while a
    /// freerider's drifts by `-(b̃'(Δ) - b̃)`.
    pub fn expected_excess_blame(&self, delta: FreeridingDegree) -> f64 {
        self.expected_blame_freerider(delta) - self.expected_wrongful_blame()
    }

    /// Upper bound on the probability of a false positive after `r` gossip
    /// periods, for detection threshold `η < 0` (Section 6.3.1):
    /// `β ≤ σ(b)² / (r·η²)`.
    pub fn false_positive_bound(&self, sigma_b: f64, periods: usize, eta: f64) -> f64 {
        assert!(eta < 0.0, "detection threshold must be negative");
        (sigma_b * sigma_b / (periods as f64 * eta * eta)).min(1.0)
    }

    /// Lower bound on the probability of detecting a freerider of degree `Δ`
    /// after `r` gossip periods (Section 6.3.1):
    /// `α ≥ 1 - σ(b'(Δ))² / (r·(b̃'(Δ) - b̃ + η)²)` — the freerider's expected
    /// normalized score is `-(b̃'(Δ) - b̃)` and it is detected when the score
    /// drops below `η`.
    ///
    /// Returns 0 when the freerider's expected score is above the threshold
    /// (Chebyshev gives no guarantee in that regime).
    pub fn detection_bound(
        &self,
        delta: FreeridingDegree,
        sigma_b_freerider: f64,
        periods: usize,
        eta: f64,
    ) -> f64 {
        assert!(eta < 0.0, "detection threshold must be negative");
        let drift = self.expected_excess_blame(delta);
        let margin = drift + eta; // distance between E[s] = -drift and η
        if margin <= 0.0 {
            return 0.0;
        }
        (1.0 - sigma_b_freerider * sigma_b_freerider / (periods as f64 * margin * margin)).max(0.0)
    }

    /// Maximum number of verification/blame messages per gossip period
    /// (Table 3): messages sent by a node in its verifier role for direct
    /// cross-checking, `pdcc·f²`, plus replies as a witness `pdcc·f²`, plus
    /// acknowledgements `f`, plus blames to managers `O(M·f)`.
    pub fn verification_message_bound(&self, pdcc: f64, managers: usize) -> f64 {
        let f = self.f();
        pdcc * f * f // confirm requests sent as verifier
            + pdcc * f * f // confirm responses sent as witness
            + f // acks sent to the nodes that served us
            + (1.0 + pdcc) * managers as f64 * f // direct-verification + cross-check blames
    }

    /// Number of messages sent per gossip period by the three-phase protocol
    /// itself, `f·(2 + |R|)` (Section 6.1).
    pub fn gossip_message_count(&self) -> f64 {
        self.f() * (2.0 + self.requested as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn gain_formula_matches_paper_examples() {
        // Section 6.3.1: gain of 10 % is achieved for δ ≈ 0.035.
        let g = FreeridingDegree::uniform(0.035).gain();
        assert!(close(g, 0.101, 0.005), "gain {g}");
        // PlanetLab freeriders decrease contribution by about 30 %.
        let g = FreeridingDegree::planetlab().gain();
        assert!(close(g, 0.3, 0.01), "gain {g}");
        assert_eq!(FreeridingDegree::HONEST.gain(), 0.0);
    }

    #[test]
    fn honest_expectation_matches_figure_10_value() {
        // Figure 10: f = 12, |R| = 4, pl = 7 % ⇒ b̃ = 72.95.
        let p = ProtocolParams::simulation_defaults();
        let b = p.expected_wrongful_blame();
        assert!(close(b, 72.95, 0.05), "b̃ = {b}");
    }

    #[test]
    fn component_expectations_sum_to_total() {
        let p = ProtocolParams::new(12, 4, 0.93);
        let total = p.expected_blame_direct_verification() + p.expected_blame_cross_checking();
        assert!(close(total, p.expected_wrongful_blame(), 1e-9));
    }

    #[test]
    fn freerider_expectation_reduces_to_honest_for_zero_delta() {
        let p = ProtocolParams::new(7, 4, 0.96);
        let b_honest = p.expected_wrongful_blame();
        let b_zero = p.expected_blame_freerider(FreeridingDegree::HONEST);
        assert!(close(b_honest, b_zero, 1e-9));
        assert!(close(
            p.expected_excess_blame(FreeridingDegree::HONEST),
            0.0,
            1e-9
        ));
    }

    #[test]
    fn freerider_blame_increases_with_each_delta() {
        let p = ProtocolParams::new(12, 4, 0.93);
        let base = p.expected_blame_freerider(FreeridingDegree::HONEST);
        for d in [
            FreeridingDegree::new(0.2, 0.0, 0.0),
            FreeridingDegree::new(0.0, 0.2, 0.0),
            FreeridingDegree::new(0.0, 0.0, 0.2),
        ] {
            assert!(
                p.expected_blame_freerider(d) > base,
                "expected blame should increase for {d:?}"
            );
        }
    }

    #[test]
    fn no_loss_means_no_wrongful_blame() {
        let p = ProtocolParams::new(7, 4, 1.0);
        assert!(close(p.expected_wrongful_blame(), 0.0, 1e-12));
        assert!(close(p.expected_blame_direct_verification(), 0.0, 1e-12));
        assert!(close(p.expected_blame_cross_checking(), 0.0, 1e-12));
    }

    #[test]
    fn chebyshev_bounds_behave_monotonically() {
        let p = ProtocolParams::simulation_defaults();
        let beta_10 = p.false_positive_bound(25.6, 10, -9.75);
        let beta_50 = p.false_positive_bound(25.6, 50, -9.75);
        assert!(beta_50 < beta_10, "β bound must shrink with time");

        let d = FreeridingDegree::uniform(0.1);
        let alpha_10 = p.detection_bound(d, 30.0, 10, -9.75);
        let alpha_50 = p.detection_bound(d, 30.0, 50, -9.75);
        assert!(alpha_50 >= alpha_10, "α bound must grow with time");
        assert!(
            alpha_50 > 0.9,
            "strong freeriding must be detected: {alpha_50}"
        );
    }

    #[test]
    fn detection_bound_is_zero_when_drift_is_below_threshold() {
        let p = ProtocolParams::simulation_defaults();
        // Tiny deviation: expected score stays above η ⇒ bound degenerates to 0.
        let d = FreeridingDegree::uniform(0.001);
        assert_eq!(p.detection_bound(d, 20.0, 50, -50.0), 0.0);
    }

    #[test]
    fn message_bounds_match_section_6_1() {
        let p = ProtocolParams::new(7, 4, 0.96);
        assert!(close(p.gossip_message_count(), 7.0 * 6.0, 1e-12));
        // With pdcc = 0 only acks and direct-verification blames remain.
        let m0 = p.verification_message_bound(0.0, 25);
        assert!(close(m0, 7.0 + 25.0 * 7.0, 1e-9));
        let m1 = p.verification_message_bound(1.0, 25);
        assert!(m1 > m0);
    }

    #[test]
    #[should_panic]
    fn invalid_delta_panics() {
        let _ = FreeridingDegree::new(1.2, 0.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn positive_threshold_panics() {
        let p = ProtocolParams::simulation_defaults();
        let _ = p.false_positive_bound(25.0, 10, 1.0);
    }
}

//! Consistency between the three levels of the reproduction: the closed forms
//! of Section 6, the analysis-level Monte-Carlo blame model, and the packet-
//! level simulator — plus property-based tests on the cross-crate invariants.

use lifting::analysis::{
    calibrate_threshold, detection_rate, false_positive_rate, max_undetectable_bias, BlameModel,
    FreeridingDegree, ProtocolParams,
};
use proptest::prelude::*;

#[test]
fn monte_carlo_blames_match_closed_forms_across_parameters() {
    for (fanout, requested, pr) in [(7usize, 4usize, 0.96f64), (12, 4, 0.93), (10, 2, 0.90)] {
        let params = ProtocolParams::new(fanout, requested, pr);
        let model = BlameModel::new(params, 1.0);
        for delta in [
            FreeridingDegree::HONEST,
            FreeridingDegree::uniform(0.05),
            FreeridingDegree::uniform(0.15),
            FreeridingDegree::planetlab(),
        ] {
            let expected = params.expected_blame_freerider(delta);
            let observed = model.estimate_blame_stats(delta, 20_000, 7).mean;
            let rel = (observed - expected).abs() / expected.max(1.0);
            assert!(
                rel < 0.05,
                "f={fanout} |R|={requested} pr={pr} Δ={delta:?}: MC {observed} vs closed {expected}"
            );
        }
    }
}

#[test]
fn detection_improves_with_the_degree_of_freeriding() {
    // The core of Figure 12: more freeriding ⇒ more detection, at a fixed
    // false-positive budget.
    let params = ProtocolParams::simulation_defaults();
    let model = BlameModel::new(params, 1.0);
    let honest = model
        .population_scores(3_000, 0, FreeridingDegree::HONEST, 50, 1)
        .honest;
    let eta = calibrate_threshold(&honest, 0.01).unwrap();
    let mut last = 0.0;
    for delta in [0.02, 0.05, 0.10, 0.15] {
        let scores = model
            .population_scores(0, 1_000, FreeridingDegree::uniform(delta), 50, 2)
            .freeriders;
        let alpha = detection_rate(&scores, eta);
        assert!(
            alpha + 0.05 >= last,
            "detection should not decrease with δ (δ={delta}, α={alpha}, prev={last})"
        );
        last = alpha;
    }
    assert!(
        last > 0.95,
        "strong freeriders must be almost surely caught"
    );
    assert!(false_positive_rate(&honest, eta) <= 0.011);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The gain formula is monotone in each δ and bounded by [0, 1].
    #[test]
    fn gain_is_monotone_and_bounded(d1 in 0.0f64..1.0, d2 in 0.0f64..1.0, d3 in 0.0f64..1.0) {
        let g = FreeridingDegree::new(d1, d2, d3).gain();
        prop_assert!((0.0..=1.0).contains(&g));
        let g_more = FreeridingDegree::new((d1 + 0.1).min(1.0), d2, d3).gain();
        prop_assert!(g_more + 1e-12 >= g);
    }

    /// Freeriding never decreases the expected blame, whatever the parameters.
    #[test]
    fn freeriding_never_pays_in_expectation(
        fanout in 3usize..20,
        requested in 1usize..8,
        pl in 0.0f64..0.3,
        delta in 0.0f64..0.5,
    ) {
        let params = ProtocolParams::new(fanout, requested, 1.0 - pl);
        let honest = params.expected_blame_freerider(FreeridingDegree::HONEST);
        let cheat = params.expected_blame_freerider(FreeridingDegree::uniform(delta));
        prop_assert!(cheat + 1e-9 >= honest);
    }

    /// Wrongful-blame expectations are non-negative and vanish without loss.
    #[test]
    fn wrongful_blame_expectations_are_sane(
        fanout in 3usize..20,
        requested in 1usize..8,
        pl in 0.0f64..0.5,
    ) {
        let params = ProtocolParams::new(fanout, requested, 1.0 - pl);
        prop_assert!(params.expected_wrongful_blame() >= 0.0);
        prop_assert!(params.expected_blame_direct_verification() >= 0.0);
        prop_assert!(params.expected_blame_cross_checking() >= 0.0);
        let no_loss = ProtocolParams::new(fanout, requested, 1.0);
        prop_assert!(no_loss.expected_wrongful_blame().abs() < 1e-9);
    }

    /// The maximal undetectable bias shrinks as the threshold γ grows.
    #[test]
    fn undetectable_bias_is_monotone_in_gamma(
        colluders in 2usize..60,
        extra in 0.1f64..1.2,
    ) {
        let history = 600usize;
        let base = max_undetectable_bias(8.0, colluders, history);
        let strict = max_undetectable_bias(8.0 + extra.min(1.2), colluders, history);
        if let (Some(b), Some(s)) = (base, strict) {
            prop_assert!(s <= b + 1e-9);
        }
    }
}

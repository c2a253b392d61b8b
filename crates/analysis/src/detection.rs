//! Score-based detection metrics (Section 6.3.1).
//!
//! The paper expels a node when its normalized score drops below a fixed
//! threshold `η`. Given samples of honest and freerider scores, these helpers
//! compute the achieved detection probability `α`, the false-positive
//! probability `β`, and calibrate `η` for a target `β` (the paper picks
//! `η = −9.75` so that `β < 1 %`).

/// Fraction of freerider scores strictly below the detection threshold `eta`
/// (the detection probability `α`). Returns 0 for an empty sample.
pub fn detection_rate(freerider_scores: &[f64], eta: f64) -> f64 {
    rate_below(freerider_scores, eta)
}

/// Fraction of honest scores strictly below the detection threshold `eta`
/// (the false-positive probability `β`). Returns 0 for an empty sample.
pub fn false_positive_rate(honest_scores: &[f64], eta: f64) -> f64 {
    rate_below(honest_scores, eta)
}

/// The detection convention, shared by every rate and by the calibration:
/// a node is flagged when its score **drops strictly below** `η` (the paper's
/// "score drops below η"); a score sitting exactly on `η` is never flagged.
fn rate_below(scores: &[f64], eta: f64) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    scores.iter().filter(|s| **s < eta).count() as f64 / scores.len() as f64
}

/// Calibrates the detection threshold `η` so that at most a fraction
/// `target_beta` of the given honest scores fall **strictly below** it —
/// the same convention [`false_positive_rate`] applies, so the calibrated
/// threshold always satisfies `false_positive_rate(honest, η) ≤ target_beta`,
/// ties included. Returns `None` if the sample is empty.
///
/// `η` is the `(⌊target_beta·n⌋ + 1)`-th smallest honest score: at most
/// `⌊target_beta·n⌋` scores lie strictly below it, and any larger threshold
/// would flag at least one more score and bust the budget. This replaces an
/// interpolated quantile, which could land *between* order statistics and —
/// with small samples or duplicated scores at the boundary — either violate
/// the β budget or silently exclude the boundary scores from detection.
///
/// # Panics
///
/// Panics if `target_beta` is outside `[0, 1]` or a score is NaN.
pub fn calibrate_threshold(honest_scores: &[f64], target_beta: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&target_beta),
        "target β = {target_beta} not in [0, 1]"
    );
    if honest_scores.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = honest_scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let budget = (target_beta * sorted.len() as f64).floor() as usize;
    Some(sorted[budget.min(sorted.len() - 1)])
}

/// A robust low-outlier threshold for a *contaminated* live sample: the
/// lowest `trim` fraction (the suspected-freerider tail) is discarded, the
/// median and the MAD of the kept bulk estimate the honest location and
/// scale, and the threshold is placed `nmads` normal-consistent MADs
/// (`1.4826 · MAD`) below the median. Scores under the returned value are
/// low outliers relative to the honest bulk.
///
/// Unlike a quantile of the kept sample, which by construction sits *at*
/// the trim boundary and flags a fixed fraction of the population every
/// period, this adapts to the bulk's
/// spread: a tight honest cluster pushes the threshold right below itself,
/// a diffuse one keeps it conservative. Returns `None` when the sample is
/// empty or the bulk is degenerate (zero MAD — no scale to judge outliers
/// against).
///
/// # Panics
///
/// Panics if `trim` is outside `[0, 0.5]`, `nmads` is not positive, or a
/// score is NaN.
pub fn robust_outlier_threshold(scores: &[f64], trim: f64, nmads: f64) -> Option<f64> {
    assert!((0.0..=0.5).contains(&trim), "trim = {trim} not in [0, 0.5]");
    assert!(nmads > 0.0, "nmads = {nmads} must be positive");
    if scores.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let dropped = (trim * sorted.len() as f64).floor() as usize;
    let kept = &sorted[dropped.min(sorted.len() - 1)..];
    let median = kept[kept.len() / 2];
    let mut deviations: Vec<f64> = kept.iter().map(|s| (s - median).abs()).collect();
    deviations.sort_by(|a, b| a.partial_cmp(b).expect("NaN in deviations"));
    let mad = deviations[deviations.len() / 2];
    if mad <= 0.0 {
        return None;
    }
    Some(median - nmads * 1.4826 * mad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_count_strictly_below_threshold() {
        let honest = [0.0, -1.0, -2.0, -20.0];
        let freeriders = [-30.0, -15.0, -5.0, -1.0];
        assert_eq!(false_positive_rate(&honest, -9.75), 0.25);
        assert_eq!(detection_rate(&freeriders, -9.75), 0.5);
        assert_eq!(detection_rate(&[], -9.75), 0.0);
        assert_eq!(false_positive_rate(&[], -9.75), 0.0);
    }

    #[test]
    fn calibration_meets_false_positive_budget() {
        // 1000 honest scores spread between -20 and 0.
        let honest: Vec<f64> = (0..1000).map(|i| -20.0 + 0.02 * i as f64).collect();
        let eta = calibrate_threshold(&honest, 0.01).unwrap();
        let beta = false_positive_rate(&honest, eta);
        assert!(beta <= 0.011, "β = {beta}");
        // A threshold slightly larger would exceed the budget.
        let beta_loose = false_positive_rate(&honest, eta + 0.5);
        assert!(beta_loose > beta);
    }

    #[test]
    fn calibration_of_empty_sample_is_none() {
        assert_eq!(calibrate_threshold(&[], 0.01), None);
    }

    #[test]
    fn calibration_with_tied_boundary_scores_respects_the_budget() {
        // Regression: the interpolated-quantile calibration could land between
        // order statistics, flagging more than target_beta of the honest
        // population. With heavy ties at the boundary the order-statistic
        // calibration must (a) keep β within budget and (b) leave the tied
        // boundary scores unflagged (strict `<`, the paper's convention).
        let honest = [-12.0, -12.0, -12.0, -12.0, -3.0, -2.0, -1.0, 0.0, 0.0, 1.0];
        let eta = calibrate_threshold(&honest, 0.10).unwrap();
        assert_eq!(eta, -12.0, "η sits on the tied boundary score");
        let beta = false_positive_rate(&honest, eta);
        assert!(beta <= 0.10, "β = {beta} busts the 10% budget");
        assert_eq!(beta, 0.0, "ties at η are never flagged");
        // A small sample where interpolation used to bust the budget: with
        // n = 10 and β = 1 %, *no* honest score may be flagged, so η must not
        // exceed the smallest honest score.
        let small = [-20.0, -10.0, -5.0, -4.0, -3.0, -2.5, -2.0, -1.5, -1.0, 0.0];
        let eta = calibrate_threshold(&small, 0.01).unwrap();
        assert_eq!(eta, -20.0);
        assert_eq!(false_positive_rate(&small, eta), 0.0);
        // Freeriders tied exactly on η are not detected (documented: strict).
        assert_eq!(detection_rate(&[-20.0, -30.0], eta), 0.5);
    }

    #[test]
    fn calibration_is_the_largest_budget_respecting_threshold() {
        let honest: Vec<f64> = (0..100).map(|i| -(i as f64)).collect();
        let eta = calibrate_threshold(&honest, 0.05).unwrap();
        assert!(false_positive_rate(&honest, eta) <= 0.05);
        // Any strictly larger threshold (up to the next distinct score)
        // flags more than the budget allows.
        let next = honest
            .iter()
            .copied()
            .filter(|s| *s > eta)
            .fold(f64::INFINITY, f64::min);
        assert!(false_positive_rate(&honest, next) > 0.05);
    }

    #[test]
    #[should_panic]
    fn invalid_target_beta_panics() {
        let _ = calibrate_threshold(&[0.0], 2.0);
    }

    #[test]
    fn outlier_threshold_separates_a_low_cluster_without_eating_the_bulk() {
        // A tight honest bulk around 7.5 (spread ±1) plus a freerider
        // cluster near 4.5. The threshold must land between them: below
        // every bulk score, above the cluster's top.
        let mut live: Vec<f64> = (0..80).map(|i| 6.5 + 0.025 * i as f64).collect();
        live.extend((0..15).map(|i| 4.0 + 0.05 * i as f64));
        let thr = robust_outlier_threshold(&live, 0.3, 3.0).unwrap();
        assert!(thr < 6.5, "threshold {thr} eats into the honest bulk");
        assert!(thr > 4.75, "threshold {thr} misses the freerider cluster");
        // Unlike the trimmed quantile, the rule never flags a fixed slice of
        // a *clean* population: on the bulk alone the threshold stays below
        // every score.
        let clean = &live[..80];
        let thr = robust_outlier_threshold(clean, 0.3, 3.0).unwrap();
        assert!(clean.iter().all(|s| *s > thr), "clean bulk flagged: {thr}");
    }

    #[test]
    fn outlier_threshold_degenerate_cases_are_none() {
        assert_eq!(robust_outlier_threshold(&[], 0.3, 3.0), None);
        // Identical scores: zero MAD, no scale to judge outliers against.
        assert_eq!(robust_outlier_threshold(&[5.0; 10], 0.3, 3.0), None);
    }

    #[test]
    #[should_panic]
    fn invalid_nmads_panics() {
        let _ = robust_outlier_threshold(&[0.0], 0.3, 0.0);
    }
}

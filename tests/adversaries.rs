//! End-to-end tests of the pluggable adversaries: the registry scenarios the
//! pre-refactor `Behavior`/`CollusionConfig` wiring could not express.

use lifting::prelude::*;
use lifting::runtime::{build_engine, StackLayer};

fn on_off(on_periods: u64, off_periods: u64) -> AdversaryFamily {
    AdversaryFamily::OnOff {
        on_periods,
        off_periods,
    }
}

fn blame_spam(blames_per_period: u32, blame_value: f64) -> AdversaryFamily {
    AdversaryFamily::BlameSpam {
        blames_per_period,
        blame_value,
    }
}

#[test]
fn on_off_freeriders_run_through_the_registry_and_score_below_honest() {
    let mut config =
        ScenarioRegistry::builtin().build("adversary/on-off-freeriders", Scale::Quick, 5);
    config.duration = SimDuration::from_secs(12);
    assert_eq!(config.adversary, on_off(2, 2));
    let outcome = run_scenario(config);
    let honest = outcome.finals.honest_scores();
    let freeriders = outcome.finals.freerider_scores();
    assert!(!honest.is_empty() && !freeriders.is_empty());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&freeriders) < mean(&honest),
        "on-off freeriders {:.2} should still score below honest {:.2}",
        mean(&freeriders),
        mean(&honest)
    );
}

#[test]
fn on_off_freeriders_dilute_blame_relative_to_constant_freeriders() {
    // Same population, same degree: the on-off adversary spends half its
    // periods honest, so its mean score must sit above the always-on
    // freerider's (that dilution is the attack).
    let build = |adversary: AdversaryFamily| {
        let mut config = ScenarioConfig::small_test(40, 77).with_planetlab_freeriders(0.25);
        config.duration = SimDuration::from_secs(15);
        config.adversary = adversary;
        config
    };
    let constant = run_scenario(build(AdversaryFamily::default()));
    let on_off = run_scenario(build(on_off(1, 3)));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let constant_mean = mean(&constant.finals.freerider_scores());
    let on_off_mean = mean(&on_off.finals.freerider_scores());
    assert!(
        on_off_mean > constant_mean,
        "on-off ({on_off_mean:.2}) must dilute blame vs constant freeriding ({constant_mean:.2})"
    );
}

#[test]
fn blame_spammers_inflate_reputation_traffic_and_hurt_honest_scores() {
    let build = |adversary: AdversaryFamily| {
        let mut config = ScenarioConfig::small_test(30, 9).with_planetlab_freeriders(0.2);
        config.duration = SimDuration::from_secs(10);
        config.adversary = adversary;
        config
    };
    let baseline = run_scenario(build(AdversaryFamily::default()));
    let spammed = run_scenario(build(blame_spam(5, 5.0)));
    let blame_bytes = |o: &RunOutcome| {
        o.layer_traffic
            .iter()
            .find(|l| l.layer == StackLayer::Reputation)
            .map(|l| l.bytes_sent)
            .unwrap_or(0)
    };
    assert!(
        blame_bytes(&spammed) > 2 * blame_bytes(&baseline),
        "spam must inflate reputation-plane traffic ({} vs {})",
        blame_bytes(&spammed),
        blame_bytes(&baseline)
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&spammed.finals.honest_scores()) < mean(&baseline.finals.honest_scores()),
        "fabricated blames must drag honest scores down"
    );
}

#[test]
fn blame_spam_can_never_score_or_expel_the_source() {
    // The blame router drops any blame targeting node 0 before it reaches a
    // manager, so even an extreme spam volume cannot create a score record
    // for the source, let alone expel it.
    let mut config = ScenarioConfig::small_test(15, 13).with_planetlab_freeriders(0.2);
    config.adversary = blame_spam(50, 100.0);
    config.duration = SimDuration::from_secs(8);
    let mut engine = build_engine(config);
    engine.run_until(SimTime::from_secs(8));
    assert!(
        !engine.world().is_expelled(NodeId::new(0)),
        "the source must never be expelled"
    );
    assert!(
        !engine.world().emitted_chunks().is_empty(),
        "the stream must keep flowing under spam"
    );
}

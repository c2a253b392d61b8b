//! Integration tests for colluding freeriders: biased partner selection,
//! cover-ups during cross-checking, the man-in-the-middle attack of Figure 8b,
//! and the a-posteriori audits that defeat them.

use lifting::prelude::*;
use lifting::sim::{ParamMap, SeedSplitter};

fn colluding_scenario(seed: u64, audits: bool) -> ScenarioConfig {
    let mut config = ScenarioConfig::small_test(60, seed).with_planetlab_freeriders(0.2);
    config.duration = SimDuration::from_secs(20);
    config.adversary = AdversaryFamily::Baseline {
        partner_bias: 0.7,
        cover_up: true,
        man_in_the_middle: true,
    };
    config.audits_enabled = audits;
    config.audit_interval = SimDuration::from_secs(4);
    config
}

#[test]
fn collusion_as_baseline_params_reproduces_the_pinned_run() {
    // The only run whose freeriders collude with all three flags: its
    // `digest` export is pinned, so a change to how collusion is declared or
    // wired that moves the run fails here.
    let outcome = run_scenario(colluding_scenario(3, true));
    let digest = lifting::runtime::exporter_components()
        .build("digest", &ParamMap::new(), &mut SeedSplitter::new(0))
        .unwrap()
        .export("collusion", -9.75, &outcome);
    assert_eq!(digest, "collusion: 0x3bb152cadc1ad897 mem=15172.6");
}

#[test]
fn audits_expel_colluding_freeriders() {
    let outcome = run_scenario(colluding_scenario(3, true));
    let expelled_freeriders = outcome
        .finals
        .outcomes
        .iter()
        .filter(|o| o.expelled && o.is_freerider)
        .count();
    assert!(
        expelled_freeriders > 0,
        "the entropy checks should expel at least one colluder"
    );
    let expelled_honest = outcome
        .finals
        .outcomes
        .iter()
        .filter(|o| o.expelled && !o.is_freerider)
        .count();
    assert!(
        expelled_freeriders > expelled_honest,
        "audits must hit colluders harder than honest nodes \
         ({expelled_freeriders} vs {expelled_honest})"
    );
}

#[test]
fn audits_catch_more_colluders_than_scores_alone() {
    let with_audits = run_scenario(colluding_scenario(9, true));
    let without_audits = run_scenario(colluding_scenario(9, false));
    let detected = |o: &RunOutcome| {
        o.finals
            .outcomes
            .iter()
            .filter(|n| {
                n.is_freerider && (n.expelled || n.score.map(|s| s < -9.75).unwrap_or(false))
            })
            .count()
    };
    assert!(
        detected(&with_audits) >= detected(&without_audits),
        "audits should not reduce detection ({} vs {})",
        detected(&with_audits),
        detected(&without_audits)
    );
}

#[test]
fn honest_nodes_survive_audits() {
    // No freeriders at all: periodic audits must not expel anyone.
    let mut config = ScenarioConfig::small_test(40, 17);
    config.audits_enabled = true;
    config.audit_interval = SimDuration::from_secs(3);
    config.duration = SimDuration::from_secs(20);
    let outcome = run_scenario(config);
    assert_eq!(
        outcome.expelled_count, 0,
        "audits of honest nodes must never expel them"
    );
}

#[test]
fn cover_up_without_audits_lets_colluders_linger() {
    // With cover-ups and no audits, at least some colluders stay undetected —
    // the motivation for the a-posteriori procedures.
    let outcome = run_scenario(colluding_scenario(21, false));
    let undetected = outcome
        .finals
        .outcomes
        .iter()
        .filter(|n| n.is_freerider && !n.expelled && n.score.map(|s| s >= -9.75).unwrap_or(true))
        .count();
    assert!(
        undetected > 0,
        "without audits, cover-ups should shield at least one colluder"
    );
}

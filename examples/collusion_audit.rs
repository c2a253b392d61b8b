//! Colluding freeriders versus the a-posteriori audit.
//!
//! Colluders bias their partner selection towards the coalition, cover each
//! other up during confirmations and mount the man-in-the-middle attack of
//! Figure 8b. Direct cross-checking alone misses much of this; the entropy
//! checks of the local history audit expel them.
//!
//! Run with: `cargo run --release --example collusion_audit`

use lifting::prelude::*;

fn scenario(audits: bool, seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::small_test(100, seed).with_planetlab_freeriders(0.15);
    config.duration = SimDuration::from_secs(30);
    config.streams[0].rate_bps = 300_000;
    config.adversary = AdversaryFamily::Baseline {
        partner_bias: 0.6,
        cover_up: true,
        man_in_the_middle: true,
    };
    config.audits_enabled = audits;
    config.audit_interval = SimDuration::from_secs(5);
    config
}

fn report(label: &str, outcome: &RunOutcome) {
    let eta = PAPER_ETA;
    println!("== {label} ==");
    println!(
        "  detection rate      : {:.1} %",
        100.0 * outcome.detection_rate(eta)
    );
    println!(
        "  false positives     : {:.1} %",
        100.0 * outcome.false_positive_rate(eta)
    );
    println!("  expelled nodes      : {}", outcome.expelled_count);
    println!(
        "  audit traffic       : {} bytes",
        outcome
            .traffic
            .per_category
            .iter()
            .find(|(c, _)| matches!(c, lifting::net::TrafficCategory::Audit))
            .map(|(_, v)| v.bytes_sent)
            .unwrap_or(0)
    );
    println!();
}

fn main() {
    println!("colluding freeriders: biased selection + cover-up + man-in-the-middle\n");

    println!("running without a-posteriori audits ...");
    let without = run_scenario(scenario(false, 7));
    println!("running with a-posteriori audits ...\n");
    let with = run_scenario(scenario(true, 7));

    report("score-based detection only (no audits)", &without);
    report("with local-history audits and entropy checks", &with);

    println!(
        "audits expelled {} more nodes than score-based detection alone",
        with.expelled_count.saturating_sub(without.expelled_count)
    );

    // The analytical side of the same story: how much a colluder can bias its
    // selection before the entropy check fires (Equation 7).
    let gamma = 8.95;
    let pm = lifting::analysis::max_undetectable_bias(gamma, 25, 600).unwrap();
    println!(
        "\nEq. 7: with γ = {gamma}, a freerider colluding with 25 nodes can direct at most \
         {:.0} % of its pushes to the coalition without being caught",
        100.0 * pm
    );
}

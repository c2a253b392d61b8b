//! Quickstart: broadcast a stream over gossip with 10 % freeriders and watch
//! LiFTinG separate them from the honest nodes.
//!
//! Run with: `cargo run --release --example quickstart`

use lifting::prelude::*;

fn main() {
    // A 100-node system streaming 300 kbps, with 10 % freeriders applying the
    // paper's PlanetLab degree of freeriding Δ = (1/7, 0.1, 0.1).
    // `LIFTING_EXAMPLE_QUICK=1` shrinks the run for smoke gates (CI executes
    // every example at quick scale so the entry points stay runnable).
    let quick = std::env::var_os("LIFTING_EXAMPLE_QUICK").is_some();
    let nodes = if quick { 40 } else { 100 };
    let secs = if quick { 8 } else { 30 };
    let mut config = ScenarioConfig::small_test(nodes, 42).with_planetlab_freeriders(0.1);
    config.streams[0].rate_bps = 300_000;
    config.duration = SimDuration::from_secs(secs);

    println!(
        "running a {}-node system for {}...",
        config.nodes, config.duration
    );
    let outcome = run_scenario(config);

    let eta = PAPER_ETA;
    println!();
    println!("== scores after {} ==", outcome.duration);
    let honest = outcome.finals.honest_scores();
    let freeriders = outcome.finals.freerider_scores();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "  honest nodes   : {:>4}   mean score {:>7.2}",
        honest.len(),
        mean(&honest)
    );
    println!(
        "  freeriders     : {:>4}   mean score {:>7.2}",
        freeriders.len(),
        mean(&freeriders)
    );
    println!();
    println!("== detection at η = {eta} ==");
    println!(
        "  detection rate       : {:.1} %",
        100.0 * outcome.detection_rate(eta)
    );
    println!(
        "  false-positive rate  : {:.1} %",
        100.0 * outcome.false_positive_rate(eta)
    );
    println!("  expelled nodes       : {}", outcome.expelled_count);
    println!();
    println!("== cost ==");
    println!(
        "  LiFTinG overhead     : {:.2} % of the gossip traffic",
        100.0 * outcome.traffic.overhead_ratio
    );
    println!(
        "  total messages sent  : {}",
        outcome.traffic.total_messages_sent
    );
}

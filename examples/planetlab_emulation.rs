//! Full PlanetLab-scale emulation (the deployment of Section 7).
//!
//! 300 nodes, a 674 kbps stream, f = 7, Tg = 500 ms, M = 25 managers, 4 %
//! message loss, 10 % freeriders with Δ = (1/7, 0.1, 0.1). Prints the score
//! distributions at 25 s, 30 s and 35 s (Figure 14) and the headline detection
//! and false-positive rates.
//!
//! Run with: `cargo run --release --example planetlab_emulation`

use lifting::prelude::*;

fn main() {
    let config = ScenarioConfig::planetlab_baseline(2026).with_planetlab_freeriders(0.1);
    println!(
        "emulating {} nodes, {} kbps stream, {} freeriders ...",
        config.nodes,
        config.streams[0].rate_bps / 1000,
        config.freerider_count()
    );

    let snapshots = [
        SimDuration::from_secs(25),
        SimDuration::from_secs(30),
        SimDuration::from_secs(35),
    ];
    let outcome = run_scenario_with_snapshots(config, &snapshots);

    let eta = PAPER_ETA;
    for snap in &outcome.snapshots {
        let honest = Summary::of(&snap.honest_scores());
        let freeriders = Summary::of(&snap.freerider_scores());
        println!();
        println!("== after {} ==", snap.at);
        println!(
            "  honest    : mean {:>7.2}  σ {:>6.2}  (n = {})",
            honest.mean, honest.std_dev, honest.count
        );
        println!(
            "  freerider : mean {:>7.2}  σ {:>6.2}  (n = {})",
            freeriders.mean, freeriders.std_dev, freeriders.count
        );
        println!(
            "  detection {:.1} %   false positives {:.1} %",
            100.0 * snap.detection_rate(eta),
            100.0 * snap.false_positive_rate(eta)
        );
    }

    println!();
    println!(
        "final: detection {:.1} %, false positives {:.1} %, overhead {:.2} %, {} expelled",
        100.0 * outcome.detection_rate(eta),
        100.0 * outcome.false_positive_rate(eta),
        100.0 * outcome.traffic.overhead_ratio,
        outcome.expelled_count
    );
}

//! Invariants of the resilience plane: closed-loop adversaries, fault
//! injection, hardened audits, and the online recalibration defence.
//!
//! The core safety property mirrors the churn boundary: a disturbance the
//! *environment* causes (a partition, a loss burst, a whitewash departure)
//! must never be converted into blame or expulsion of an honest node — and
//! the detection story must be honest both ways: a gradient freerider really
//! does evade the paper's static `η`, and only the online recalibration
//! brings it back into reach.

use lifting_runtime::{run_scenario, run_scenarios_parallel, Scale, ScenarioRegistry, WaveKind};

/// Same seed as the bench resilience sweep, so the numbers asserted here are
/// the published ones.
const SEED: u64 = 55;

/// The static threshold every resilience scenario configures (the paper's
/// offline PlanetLab calibration).
fn static_eta() -> f64 {
    lifting_core::LiftingConfig::planetlab().eta
}

#[test]
fn gradient_freerider_evades_static_eta_but_not_the_online_recalibration() {
    let registry = ScenarioRegistry::builtin();

    // Static η: the closed-loop population throttles its freeriding to sit
    // above the threshold — zero detections, zero expulsions, end of story.
    let evaded = run_scenario(registry.build("resilience/gradient-freerider", Scale::Quick, SEED));
    assert_eq!(evaded.expelled_count, 0, "static η must be fully evaded");
    assert_eq!(evaded.finals.detection_rate(static_eta()), 0.0);
    let recovery = evaded
        .recovery
        .as_ref()
        .expect("closed-loop run traces recovery");
    assert!(
        recovery.eta_trace.iter().all(|eta| *eta == static_eta()),
        "without the online defence the threshold never moves"
    );

    // Online recalibration: the threshold climbs off the static floor and
    // the same adversary population is detected and expelled.
    let defended =
        run_scenario(registry.build("resilience/gradient-freerider-online", Scale::Quick, SEED));
    let recovery = defended.recovery.as_ref().expect("recovery traces");
    let eta_final = *recovery.eta_trace.last().unwrap();
    assert!(
        eta_final > static_eta(),
        "the recalibrated threshold must rise above the static η, got {eta_final}"
    );
    assert!(
        recovery.eta_trace.iter().all(|eta| *eta >= static_eta()),
        "the static η is a floor of every recalibrated threshold"
    );
    assert_eq!(recovery.eta_trace.len(), recovery.period_precision.len());
    assert_eq!(recovery.eta_trace.len(), recovery.period_recall.len());
    assert!(defended.expelled_count > 0, "the defence must expel");
    let expelled_freeriders = defended
        .finals
        .outcomes
        .iter()
        .filter(|o| o.expelled && o.is_freerider)
        .count();
    let expelled_honest = defended
        .finals
        .outcomes
        .iter()
        .filter(|o| o.expelled && !o.is_freerider)
        .count();
    // The honest and freerider score distributions genuinely overlap at this
    // scale, so some collateral is unavoidable — but the expulsions must
    // target the freerider population, not decimate the honest bulk.
    assert!(
        expelled_freeriders > expelled_honest,
        "expulsions must skew freerider: {expelled_freeriders} freeriders vs \
         {expelled_honest} honest"
    );
    let honest_total = defended
        .finals
        .outcomes
        .iter()
        .filter(|o| !o.is_freerider)
        .count();
    assert!(
        (expelled_honest as f64) < 0.2 * honest_total as f64,
        "honest collateral out of hand: {expelled_honest}/{honest_total}"
    );
    let recall = *recovery.period_recall.last().unwrap();
    assert!(
        recall >= 0.5,
        "the online defence must catch most of the population, recall {recall}"
    );
}

#[test]
fn whitewash_cycles_shed_no_blame_and_are_traced_as_waves() {
    let registry = ScenarioRegistry::builtin();
    let outcome = run_scenario(registry.build("resilience/whitewasher", Scale::Quick, SEED));

    // The attack actually ran: departures and rejoins happened in cycles.
    assert!(outcome.churn.departures > 0, "whitewashers must depart");
    assert!(outcome.churn.rejoins > 0, "whitewashers must rejoin");
    let recovery = outcome.recovery.as_ref().expect("recovery traces");
    assert!(
        recovery.waves.iter().any(|w| w.kind == WaveKind::Whitewash),
        "whitewash departures must be registered as recovery waves"
    );

    // The manager books freeze on departure and carry over the rejoin, so a
    // whitewash cycle does not launder the blame history: the whitewashing
    // population still scores clearly below the honest one at the end.
    let honest = outcome.finals.honest_scores();
    let freeriders = outcome.finals.freerider_scores();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&freeriders) < mean(&honest) - 1.0,
        "whitewashing must not launder the score gap: freerider mean {:.2} vs \
         honest mean {:.2}",
        mean(&freeriders),
        mean(&honest)
    );
}

#[test]
fn partition_waves_abort_audits_instead_of_blaming_the_unreachable() {
    let registry = ScenarioRegistry::builtin();
    let outcome = run_scenario(registry.build("resilience/partition-waves", Scale::Quick, SEED));

    // The faults hit audits hard enough to matter: RPCs timed out, retries
    // were spent, and some audits gave up on unreachable counterparts.
    assert!(
        outcome.audit_rpc.rpc_timeouts > 0,
        "partitions must time out audit RPCs"
    );
    assert!(
        outcome.audit_rpc.rpc_retries > 0,
        "the retry policy must fire"
    );
    assert!(
        outcome.audit_rpc.aborted_unreachable > 0,
        "audits against partitioned nodes must abort"
    );
    // ... and the safety boundary held: none of that became an expulsion of
    // an honest node (scores stay on the static η in this scenario).
    let wrongful = outcome
        .finals
        .outcomes
        .iter()
        .filter(|o| o.expelled && !o.is_freerider)
        .count();
    assert_eq!(wrongful, 0, "a partition must never expel an honest node");
    // Both scheduled waves were registered with their reconvergence readout.
    let recovery = outcome.recovery.as_ref().expect("recovery traces");
    let partitions: Vec<_> = recovery
        .waves
        .iter()
        .filter(|w| w.kind == WaveKind::Partition)
        .collect();
    assert_eq!(partitions.len(), 2, "both fault waves must be traced");
    // ... and the stream survived them: 0.367 of the nodes view it clear at
    // the longest lag.
    let clear = outcome.stream_health.fraction_clear.last().copied();
    assert!(
        clear.is_some_and(|clear| clear > 0.2),
        "the stream collapsed under partition waves ({clear:?})"
    );
}

#[test]
fn resilience_scenarios_run_parallel_eq_sequential_bit_for_bit() {
    // The resilience plane touches the hot path (fault events, duplicated
    // deliveries, per-period recalibration, closed-loop feedback); all of it
    // must preserve the engine's parallel == sequential determinism, traces
    // included.
    let registry = ScenarioRegistry::builtin();
    for name in [
        "resilience/partition-waves",
        "resilience/gradient-freerider-online",
        "resilience/bursty-loss",
    ] {
        let config = registry.build(name, Scale::Quick, 3);
        std::env::set_var(lifting_sim::pool::WORKERS_ENV, "3");
        let parallel = run_scenarios_parallel(vec![config.clone()]);
        std::env::set_var(lifting_sim::pool::WORKERS_ENV, "1");
        let sequential = run_scenario(config);
        std::env::remove_var(lifting_sim::pool::WORKERS_ENV);
        assert_eq!(
            parallel[0].finals.outcomes, sequential.finals.outcomes,
            "{name}"
        );
        assert_eq!(parallel[0].churn, sequential.churn, "{name}: churn stats");
        assert_eq!(
            parallel[0].recovery, sequential.recovery,
            "{name}: recovery traces"
        );
        assert_eq!(
            parallel[0].audit_rpc, sequential.audit_rpc,
            "{name}: audit RPCs"
        );
        assert_eq!(
            parallel[0].confirm_retry, sequential.confirm_retry,
            "{name}: confirm retries"
        );
        assert_eq!(
            parallel[0].traffic.total_bytes_sent, sequential.traffic.total_bytes_sent,
            "{name}: traffic"
        );
        assert_eq!(
            parallel[0].stream_health.fraction_clear, sequential.stream_health.fraction_clear,
            "{name}: stream health"
        );
    }
}

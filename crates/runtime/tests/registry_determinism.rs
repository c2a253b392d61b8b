//! Property test: every registered scenario runs parallel == sequential
//! bit-for-bit.
//!
//! The worker pool must never change results — only wall-clock time. The
//! property samples (scenario, seed) pairs from the builtin registry —
//! including the dynamic-membership `churn/*` family, whose schedule draws,
//! stack rebuilds and epoch bookkeeping must be just as deterministic — runs
//! the scenario through the parallel fleet and through plain sequential
//! calls, and compares every number down to the bit pattern. Durations are
//! truncated so the property stays fast; the truncation does not weaken the
//! property (determinism must hold at every prefix of a run).
//! (`churn_invariants.rs` additionally pins two churn scenarios at full quick
//! duration, so the family is covered even when this property's sampler
//! happens not to draw it.)

use lifting_runtime::{run_scenario, run_scenarios_parallel, RunOutcome, Scale, ScenarioRegistry};
use lifting_sim::SimDuration;
use proptest::prelude::*;

fn assert_bit_identical(p: &RunOutcome, s: &RunOutcome, scenario: &str) {
    assert_eq!(p.finals.outcomes, s.finals.outcomes, "{scenario}: outcomes");
    assert_eq!(p.expelled_count, s.expelled_count, "{scenario}: expulsions");
    assert_eq!(
        p.traffic.total_bytes_sent, s.traffic.total_bytes_sent,
        "{scenario}: bytes"
    );
    assert_eq!(
        p.traffic.total_messages_sent, s.traffic.total_messages_sent,
        "{scenario}: messages"
    );
    assert_eq!(
        p.traffic.overhead_ratio.to_bits(),
        s.traffic.overhead_ratio.to_bits(),
        "{scenario}: overhead"
    );
    assert_eq!(
        p.layer_traffic, s.layer_traffic,
        "{scenario}: layer traffic"
    );
    assert_eq!(
        p.stream_health.fraction_clear, s.stream_health.fraction_clear,
        "{scenario}: stream health"
    );
    assert_eq!(p.emitted_chunks, s.emitted_chunks, "{scenario}: chunks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn any_registered_scenario_runs_parallel_eq_sequential(
        scenario_index in 0usize..ScenarioRegistry::builtin().names().len(),
        seed in 1u64..10_000,
    ) {
        let registry = ScenarioRegistry::builtin();
        let name = registry.names()[scenario_index].to_string();
        let mut config = registry.build(&name, Scale::Quick, seed);
        // Keep the property fast: a short prefix of the run is just as
        // deterministic as the full scenario.
        config.duration = config.duration.min(SimDuration::from_secs(3));

        std::env::set_var(lifting_sim::pool::WORKERS_ENV, "3");
        let parallel = run_scenarios_parallel(vec![config.clone(), config.clone()]);
        std::env::set_var(lifting_sim::pool::WORKERS_ENV, "1");
        let sequential = run_scenario(config);
        std::env::remove_var(lifting_sim::pool::WORKERS_ENV);

        prop_assert!(parallel.len() == 2);
        // Both parallel copies must agree with the sequential reference.
        assert_bit_identical(&parallel[0], &sequential, &name);
        assert_bit_identical(&parallel[1], &sequential, &name);
    }
}

//! Property test: every registered scenario runs sharded == sequential
//! bit-for-bit, at every shard count.
//!
//! The sharded wave executor must never change results — only how the
//! node-local event waves are executed. The property samples (scenario,
//! seed) pairs from the builtin registry — including the dynamic-membership
//! `churn/*` family (rebuild sessions, epoch bumps), the fault-injecting
//! `resilience/*` family and the multi-channel `multistream/*` family, all
//! of which route messages, timers and blames through the wave executor's
//! Phase A/B split — runs each at 1, 2, 4 and 8 shards, and compares every
//! number down to the bit pattern. Durations are truncated so the property
//! stays fast; determinism must hold at every prefix of a run. The shard
//! count is a parameter of the runner (`run_scenario_sharded`) or of the
//! world (`set_shard_count`); nothing reads it from the environment, so
//! concurrently running tests cannot race on it.

use lifting_runtime::runner::default_lag_grid;
use lifting_runtime::{
    build_engine, exporter_components, run_scenario_sharded, RunOutcome, Scale, ScenarioRegistry,
};
use lifting_sim::{ParamMap, SeedSplitter, SimDuration, SimTime};
use proptest::prelude::*;

fn assert_bit_identical(a: &RunOutcome, b: &RunOutcome, scenario: &str, shards: usize) {
    assert_eq!(
        a.finals.outcomes, b.finals.outcomes,
        "{scenario} @ {shards} shards: outcomes"
    );
    assert_eq!(
        a.expelled_count, b.expelled_count,
        "{scenario} @ {shards} shards: expulsions"
    );
    assert_eq!(
        a.traffic.total_bytes_sent, b.traffic.total_bytes_sent,
        "{scenario} @ {shards} shards: bytes"
    );
    assert_eq!(
        a.traffic.total_messages_sent, b.traffic.total_messages_sent,
        "{scenario} @ {shards} shards: messages"
    );
    assert_eq!(
        a.traffic.overhead_ratio.to_bits(),
        b.traffic.overhead_ratio.to_bits(),
        "{scenario} @ {shards} shards: overhead"
    );
    assert_eq!(
        a.layer_traffic, b.layer_traffic,
        "{scenario} @ {shards} shards: layer traffic"
    );
    assert_eq!(
        a.stream_health.fraction_clear, b.stream_health.fraction_clear,
        "{scenario} @ {shards} shards: stream health"
    );
    assert_eq!(
        a.emitted_chunks, b.emitted_chunks,
        "{scenario} @ {shards} shards: chunks"
    );
    assert_eq!(
        a.memory_per_node_bytes.to_bits(),
        b.memory_per_node_bytes.to_bits(),
        "{scenario} @ {shards} shards: memory metric"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn any_registered_scenario_is_shard_invariant(
        scenario_index in 0usize..ScenarioRegistry::builtin().len(),
        seed in 1u64..10_000,
    ) {
        let registry = ScenarioRegistry::builtin();
        let name = registry.names()[scenario_index].to_string();
        let mut config = registry.build(&name, Scale::Quick, seed);
        // Keep the property fast: a short prefix of the run is just as
        // deterministic as the full scenario.
        config.duration = config.duration.min(SimDuration::from_secs(3));

        let sequential = run_scenario_sharded(config.clone(), 1);
        for shards in [2usize, 4, 8] {
            let sharded = run_scenario_sharded(config.clone(), shards);
            assert_bit_identical(&sharded, &sequential, &name, shards);
        }
    }
}

/// `(waves, events in waves, intra + cross staged effects)` and the k = 2
/// `(intra, cross)` split of one pinned run, generated at commit `d8f0747`
/// (before Phase B was rewritten as a position-ordered walk) and regenerated
/// once since, when witness answers stopped being queued events (they land
/// in their confirm check at send time, so fewer events share an instant).
struct PinnedWaves {
    scenario: &'static str,
    shape: (u64, u64, u64),
    split_at_2: (u64, u64),
}

const PINNED_WAVES: [PinnedWaves; 3] = [
    PinnedWaves {
        scenario: "scale/1k",
        shape: (139, 278, 376),
        split_at_2: (218, 158),
    },
    PinnedWaves {
        scenario: "churn/steady-fast",
        shape: (27, 54, 66),
        split_at_2: (35, 31),
    },
    PinnedWaves {
        scenario: "multistream/overlapping-audiences",
        shape: (80, 160, 275),
        split_at_2: (177, 98),
    },
];

/// The wave executor's execution shape is pinned, not just its outcome: the
/// waves formed, the events they hold and the effects they stage are the same
/// at every shard count (only the intra/cross split depends on where the
/// shard boundaries fall), and a sharded run processes exactly the events —
/// and produces exactly the digest — of the sequential one.
#[test]
fn wave_counters_and_digests_are_pinned_at_every_shard_count() {
    let registry = ScenarioRegistry::builtin();
    let digest = exporter_components()
        .build("digest", &ParamMap::new(), &mut SeedSplitter::new(7))
        .expect("the digest exporter is registered");
    for pinned in &PINNED_WAVES {
        let name = pinned.scenario;
        let mut config = registry.build(name, Scale::Quick, 7);
        config.duration = SimDuration::from_secs(4);
        let end = SimTime::ZERO + config.duration;
        let run = |shards: usize| {
            let mut engine = build_engine(config.clone());
            engine.world_mut().set_shard_count(shards);
            engine.run_until_sharded(end);
            let outcome = engine
                .world()
                .run_outcome(end, Vec::new(), &default_lag_grid());
            (
                engine.events_processed(),
                engine.world().wave_stats(),
                digest.export(name, -9.75, &outcome),
            )
        };
        let (events, stats, sequential_digest) = run(1);
        assert_eq!(stats, None, "{name}: one shard runs no waves");
        for shards in [2usize, 4, 8] {
            let (sharded_events, stats, sharded_digest) = run(shards);
            assert_eq!(sharded_events, events, "{name} @ {shards}: events");
            assert_eq!(sharded_digest, sequential_digest, "{name} @ {shards}");
            let (waves, wave_events, intra, cross) = stats.expect("sharded run has wave stats");
            assert_eq!(
                (waves, wave_events, intra + cross),
                pinned.shape,
                "{name} @ {shards}: (waves, events in waves, staged effects)"
            );
            if shards == 2 {
                assert_eq!((intra, cross), pinned.split_at_2, "{name} @ 2: split");
            }
        }
    }
}

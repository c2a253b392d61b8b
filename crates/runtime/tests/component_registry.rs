//! Integration coverage for the typed scenario axes — the capability,
//! workload and adversary values of a `ScenarioConfig` — and the exporter
//! registry, the one axis chosen by name.
//!
//! Four concerns live here:
//!
//! 1. **Error paths** — every out-of-range axis parameter comes back out of
//!    `build_world` as a structured [`ComponentError`] naming the offending
//!    key, never a panic (`config_errors.rs` pushes every such field out of
//!    range; the cases here spell out why a rule exists). An unknown
//!    exporter name is a structured error too.
//! 2. **The adversary families make the adversaries** — every family spawns
//!    the adversary it names, declares its closed-loop flag, reports its
//!    cross-field rules as typed errors, and is the family a rejoin rebuilds.
//! 3. **Workload scenarios do what their generators promise** — diurnal and
//!    regional-failure plans actually take nodes offline and bring them
//!    back; the zap plan actually resubscribes viewers between channels.
//! 4. **Shard invariance** — the three `workload/*` scenarios are pinned at
//!    1/2/4/8 shards explicitly (the registry-wide proptest samples scenario
//!    indices, so a family this new deserves deterministic coverage too).

use std::sync::Arc;

use lifting_membership::{
    Churn, DiurnalCycle, PartitionWaves, RegionalFailureWaves, Wave, Workload, ZapSwitching,
};
use lifting_runtime::builder::build_world;
use lifting_runtime::{
    build_engine, exporter_components, run_scenario_sharded, AdversaryFamily, RunOutcome, Scale,
    ScenarioConfig, ScenarioRegistry, StreamSpec,
};
use lifting_sim::{ComponentError, ParamMap, SeedSplitter, SimDuration, SimTime};

// ---------------------------------------------------------------------------
// 1. Error paths: structured Err, never panic, offending key in the message.
// ---------------------------------------------------------------------------

fn quick_config(seed: u64) -> ScenarioConfig {
    ScenarioRegistry::builtin().build("smoke/small", Scale::Quick, seed)
}

/// The typed error `config` fails to build with.
fn build_error(config: &ScenarioConfig, why: &str) -> ComponentError {
    build_world(config.clone())
        .err()
        .unwrap_or_else(|| panic!("{why}"))
}

#[test]
fn every_registered_scenario_resolves_at_both_scales() {
    let registry = ScenarioRegistry::builtin();
    for name in registry.names() {
        for scale in [Scale::Paper, Scale::Quick] {
            let config = registry.build(name, scale, 7);
            if let Err(err) = config.validate() {
                panic!("{name} at {scale:?} does not validate: {err}");
            }
        }
    }
}

#[test]
fn unknown_component_name_is_a_structured_error_naming_the_kind() {
    let err = exporter_components()
        .build("tidal", &ParamMap::new(), &mut SeedSplitter::new(1))
        .err()
        .expect("an unknown name must not build");
    match &err {
        ComponentError::UnknownComponent { kind, name, known } => {
            assert_eq!(kind, "exporter");
            assert_eq!(name, "tidal");
            assert!(known.iter().any(|n| n == "digest"), "known list: {known:?}");
        }
        other => panic!("expected UnknownComponent, got {other:?}"),
    }
    let text = err.to_string();
    assert!(
        text.contains("tidal"),
        "error must name the component: {text}"
    );
    assert!(
        text.contains("digest"),
        "error must list known names: {text}"
    );
}

/// `workload` fails to build with an `InvalidParam` naming its generator
/// and `key`.
fn assert_invalid_workload_param(workload: Workload, key: &str) {
    let generator = workload.name();
    let mut config = quick_config(1);
    config.workload = Some(workload);
    let err = build_error(&config, &format!("{generator}: bad `{key}` must not build"));
    assert!(
        matches!(&err, ComponentError::InvalidParam { component, key: k, .. }
            if component == generator && k == key),
        "{generator}: expected InvalidParam naming `{key}`, got {err:?}"
    );
    assert!(err.to_string().contains(key), "{err}");
}

#[test]
fn out_of_range_param_is_rejected_with_the_offending_key() {
    // Every disturbance that could not run is a typed error naming the
    // generator and the key.
    let churn = Churn::default();
    let partitions = PartitionWaves::default();
    let cases = [
        (
            "participation",
            Workload::DiurnalCycle(DiurnalCycle {
                participation: 1.5,
                ..DiurnalCycle::default()
            }),
        ),
        (
            "fraction",
            Workload::Churn(Churn {
                fraction: 1.5,
                ..churn
            }),
        ),
        (
            "mean_session_secs",
            Workload::Churn(Churn {
                mean_session: SimDuration::ZERO,
                ..churn
            }),
        ),
        (
            "flash_crowd_fraction",
            Workload::Churn(Churn {
                flash_crowd: Wave {
                    fraction: 0.95,
                    ..churn.flash_crowd
                },
                ..churn
            }),
        ),
        (
            "waves",
            Workload::PartitionWaves(PartitionWaves {
                waves: 0,
                ..partitions
            }),
        ),
        (
            "waves",
            Workload::PartitionWaves(PartitionWaves {
                waves: 256,
                ..partitions
            }),
        ),
        (
            "fraction",
            Workload::PartitionWaves(PartitionWaves {
                fraction: 0.95,
                ..partitions
            }),
        ),
    ];
    for (key, workload) in cases {
        assert_invalid_workload_param(workload, key);
    }
}

#[test]
fn churn_wave_at_instant_zero_is_rejected() {
    // A catastrophe at t = 0 would crash nodes before the stream starts.
    assert_invalid_workload_param(
        Workload::Churn(Churn {
            catastrophe: Wave {
                at: SimDuration::ZERO,
                fraction: 0.1,
            },
            ..Churn::default()
        }),
        "catastrophe_at_secs",
    );
}

#[test]
fn partition_wave_with_zero_outage_is_rejected() {
    // A zero-length outage would heal in the instant it begins.
    assert_invalid_workload_param(
        Workload::PartitionWaves(PartitionWaves {
            outage: SimDuration::ZERO,
            ..PartitionWaves::default()
        }),
        "outage_secs",
    );
}

#[test]
fn component_names_are_unique_within_each_registry() {
    let registry = exporter_components();
    let mut names: Vec<_> = registry.names().collect();
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "exporter registry");
}

#[test]
fn every_registered_workload_component_builds_with_default_params() {
    let mut config = quick_config(7);
    config.streams.push(config.streams[0]); // something to zap between
    for workload in [
        Workload::DiurnalCycle(DiurnalCycle::default()),
        Workload::RegionalFailureWaves(RegionalFailureWaves::default()),
        Workload::ZapSwitching(ZapSwitching::default()),
        Workload::Churn(Churn::default()),
        Workload::PartitionWaves(PartitionWaves::default()),
    ] {
        config.workload = Some(workload);
        if let Err(e) = build_world(config.clone()) {
            panic!("{} must build with defaults: {e}", workload.name());
        }
    }
}

#[test]
fn every_workload_default_validates_and_expands_deterministically() {
    for workload in [
        Workload::DiurnalCycle(DiurnalCycle::default()),
        Workload::RegionalFailureWaves(RegionalFailureWaves::default()),
        Workload::ZapSwitching(ZapSwitching::default()),
        Workload::Churn(Churn::default()),
        Workload::PartitionWaves(PartitionWaves::default()),
    ] {
        assert_eq!(workload.validate(), Ok(()), "{}", workload.name());
        let expand = || workload.expand(20, 2, SimDuration::from_secs(30), 1);
        assert_eq!(expand(), expand(), "{}", workload.name());
    }
    let mut config = quick_config(7);
    config.workload = Some(Workload::DiurnalCycle(DiurnalCycle {
        cycle: SimDuration::ZERO,
        ..DiurnalCycle::default()
    }));
    let err = build_error(&config, "a zero diurnal cycle must not build");
    assert!(
        matches!(&err, ComponentError::InvalidParam { component, key, .. }
            if component == "diurnal" && key == "cycle_secs"),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------------
// 2. The adversary families make the adversaries.
// ---------------------------------------------------------------------------

/// `(family at its defaults, its name, name() of the adversary it spawns,
/// closed loop)`.
const FAMILIES: [(AdversaryFamily, &str, &str, bool); 7] = [
    (
        AdversaryFamily::Baseline {
            partner_bias: 0.0,
            cover_up: false,
            man_in_the_middle: false,
        },
        "baseline",
        "freerider",
        false,
    ),
    (
        AdversaryFamily::OnOff {
            on_periods: 2,
            off_periods: 2,
        },
        "on-off",
        "on-off-freerider",
        false,
    ),
    (
        AdversaryFamily::BlameSpam {
            blames_per_period: 5,
            blame_value: 5.0,
        },
        "blame-spam",
        "blame-spammer",
        false,
    ),
    (
        AdversaryFamily::SelectiveFreerider { silent_mask: 0b10 },
        "selective-freerider",
        "selective-freerider",
        false,
    ),
    (
        AdversaryFamily::GradientFreerider {
            margin: 2.0,
            step: 0.25,
        },
        "gradient-freerider",
        "gradient-freerider",
        true,
    ),
    (
        AdversaryFamily::Whitewasher {
            margin: 0.5,
            offline: SimDuration::from_secs(2),
        },
        "whitewasher",
        "whitewasher",
        true,
    ),
    (
        AdversaryFamily::AdaptiveColluders {
            partner_bias: 0.6,
            cooldown_periods: 6,
        },
        "adaptive-colluders",
        "adaptive-colluder",
        true,
    ),
];

#[test]
fn every_adversary_component_spawns_the_adversary_it_names() {
    // Ten nodes, the last three freeride.
    let config = ScenarioConfig::small_test(10, 1).with_planetlab_freeriders(0.3);
    let coalition = Arc::new(Vec::new());
    for (family, name, adversary, closed_loop) in FAMILIES {
        assert_eq!(family.name(), name);
        assert_eq!(family.closed_loop(), closed_loop, "{name}");
        assert_eq!(family.spawn(&config, 9, &coalition).name(), adversary);
        assert_eq!(family.spawn(&config, 0, &coalition).name(), "honest");
        assert_eq!(family.spawn(&config, 6, &coalition).name(), "honest");
    }
}

#[test]
fn every_adversary_family_is_named_and_validates() {
    // Enough freeriders and streams for every family's cross-field rule.
    let mut config = ScenarioConfig::small_test(10, 1).with_planetlab_freeriders(0.3);
    config.streams.push(config.streams[0]);
    for (family, _, _, _) in FAMILIES {
        assert_eq!(family.validate(&config), Ok(()), "{family:?}");
    }
    assert_eq!(
        FAMILIES.map(|(family, ..)| family.name()),
        [
            "baseline",
            "on-off",
            "blame-spam",
            "selective-freerider",
            "gradient-freerider",
            "whitewasher",
            "adaptive-colluders",
        ]
    );
}

/// Asserts that `config` fails to build with an `InvalidParam` of its
/// adversary family naming `key`.
fn assert_rejected(config: &ScenarioConfig, key: &str) {
    let family = config.adversary.name();
    let err = build_error(config, &format!("{family}: bad `{key}` must not build"));
    assert!(
        matches!(&err, ComponentError::InvalidParam { component, key: k, .. }
            if component == family && k == key),
        "{family}: expected InvalidParam naming `{key}`, got {err:?}"
    );
}

#[test]
fn adversary_cross_field_rules_are_typed_errors_naming_the_key() {
    let two_streams = |config: ScenarioConfig| {
        let chunk = config.streams[0].chunk_size;
        config.with_stream(StreamSpec::new(100_000, chunk))
    };
    let selective = |silent_mask| AdversaryFamily::SelectiveFreerider { silent_mask };

    // A selective freerider needs two streams, and a mask within them.
    let mut config = quick_config(1);
    config.adversary = selective(0b10);
    assert_rejected(&config, "silent_mask");
    let mut config = two_streams(quick_config(1));
    config.adversary = selective(0b100);
    assert_rejected(&config, "silent_mask");
    config.adversary = selective(0b10);
    assert!(build_world(config).is_ok());

    // Adaptive colluders need a coalition of at least two.
    let mut config = quick_config(1);
    config.adversary = FAMILIES[6].0;
    assert!(build_world(config.clone()).is_ok());
    config.freeriders.as_mut().unwrap().count = 1;
    assert_rejected(&config, "freeriders");

    // Every family but the baseline replaces the freeriders' behaviour: it
    // needs freeriders to replace.
    for (family, name, _, _) in FAMILIES {
        let mut config = two_streams(quick_config(1));
        config.adversary = family;
        assert!(build_world(config.clone()).is_ok(), "{name}");
        config.freeriders = None;
        if name == "baseline" {
            assert!(build_world(config).is_ok());
        } else {
            assert_rejected(&config, "freeriders");
        }
    }
}

#[test]
fn a_rejoin_rebuilds_the_stack_with_the_same_adversary_family() {
    let config = ScenarioRegistry::builtin().build("resilience/whitewasher", Scale::Quick, 7);
    let duration = config.duration;
    let mut engine = build_engine(config);
    let names = |world: &lifting_runtime::SystemWorld| -> Vec<&'static str> {
        world.stacks().iter().map(|s| s.adversary.name()).collect()
    };
    let before = names(engine.world());
    let freeriders = engine.world().config().freerider_count();
    assert_eq!(
        before.iter().filter(|n| **n == "whitewasher").count(),
        freeriders
    );
    engine.run_until(SimTime::ZERO + duration);
    assert!(
        engine.world().churn_stats().rejoins > 0,
        "the whitewashers must have departed and rejoined for this test to bite"
    );
    assert_eq!(names(engine.world()), before);
}

// ---------------------------------------------------------------------------
// 3. The workload scenarios drive real membership / subscription dynamics.
// ---------------------------------------------------------------------------

#[test]
fn diurnal_workload_cycles_nodes_offline_and_back() {
    let config = ScenarioRegistry::builtin().build("workload/diurnal", Scale::Quick, 11);
    let outcome = run_scenario_sharded(config, 1);
    assert!(
        outcome.churn.departures > 0,
        "diurnal troughs must take nodes offline (got {} departures)",
        outcome.churn.departures
    );
    assert!(
        outcome.churn.rejoins > 0,
        "diurnal peaks must bring nodes back (got {} rejoins)",
        outcome.churn.rejoins
    );
    assert!(!outcome.emitted_chunks.is_empty());
}

#[test]
fn regional_failure_workload_knocks_regions_offline() {
    let config = ScenarioRegistry::builtin().build("workload/regional-failure", Scale::Quick, 11);
    let outcome = run_scenario_sharded(config, 1);
    assert!(
        outcome.churn.departures > 0,
        "outage waves must take whole regions down"
    );
    assert!(
        outcome.churn.rejoins > 0,
        "regions must come back after the outage"
    );
}

#[test]
fn zap_workload_switches_viewers_between_channels() {
    let config = ScenarioRegistry::builtin().build("workload/zap", Scale::Quick, 11);
    assert_eq!(config.streams.len(), 3, "zap runs three channels");
    let duration = config.duration;
    let mut engine = build_engine(config);
    engine.run_until(SimTime::ZERO + duration);
    assert!(
        engine.world().workload_switches() > 0,
        "zappers must actually change channels"
    );
}

// ---------------------------------------------------------------------------
// 4. Shard invariance, pinned (not sampled) for the new family.
// ---------------------------------------------------------------------------

fn assert_bit_identical(a: &RunOutcome, b: &RunOutcome, scenario: &str, shards: usize) {
    assert_eq!(
        a.finals.outcomes, b.finals.outcomes,
        "{scenario} @ {shards} shards: outcomes"
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
        a.stream_health.fraction_clear, b.stream_health.fraction_clear,
        "{scenario} @ {shards} shards: stream health"
    );
    assert_eq!(
        a.churn, b.churn,
        "{scenario} @ {shards} shards: membership dynamics"
    );
    assert_eq!(
        a.emitted_chunks, b.emitted_chunks,
        "{scenario} @ {shards} shards: chunks"
    );
}

#[test]
fn workload_scenarios_are_shard_invariant() {
    let registry = ScenarioRegistry::builtin();
    for name in [
        "workload/diurnal",
        "workload/regional-failure",
        "workload/zap",
    ] {
        let mut config = registry.build(name, Scale::Quick, 23);
        config.duration = config.duration.min(SimDuration::from_secs(6));
        let sequential = run_scenario_sharded(config.clone(), 1);
        for shards in [2usize, 4, 8] {
            let sharded = run_scenario_sharded(config.clone(), shards);
            assert_bit_identical(&sharded, &sequential, name, shards);
        }
    }
}

//! Integration coverage for the component registry plane — the one path a
//! scenario's capability, workload and adversary axes are configured by.
//!
//! Four concerns live here:
//!
//! 1. **Error paths** — every mis-declared component in a scenario's
//!    `components:` section must come back as a structured
//!    [`ComponentError`] naming the offending key, never a panic. The
//!    registry is the first thing a scenario author touches, so the error
//!    text is part of the interface.
//! 2. **The adversary registry makes the adversaries** — every family spawns
//!    the adversary it names, declares its closed-loop flag, reports its
//!    cross-field rules as typed errors, and is the family a rejoin rebuilds.
//! 3. **Workload scenarios do what their generators promise** — diurnal and
//!    regional-failure plans actually take nodes offline and bring them
//!    back; the zap plan actually resubscribes viewers between channels.
//! 4. **Shard invariance** — the three `workload/*` scenarios are pinned at
//!    1/2/4/8 shards explicitly (the registry-wide proptest samples scenario
//!    indices, so a family this new deserves deterministic coverage too).

use std::sync::Arc;

use lifting_net::capability_components;
use lifting_runtime::{
    adversary_components, build_engine, exporter_components, resolve_components,
    run_scenario_sharded, workload_components, ComponentSpec, RunOutcome, Scale, ScenarioConfig,
    ScenarioRegistry, StreamSpec,
};
use lifting_sim::{
    ComponentError, ComponentRegistry, ParamMap, ParamValue, SeedSplitter, SimDuration, SimTime,
};

// ---------------------------------------------------------------------------
// 1. Error paths: structured Err, never panic, offending key in the message.
// ---------------------------------------------------------------------------

fn quick_config(seed: u64) -> ScenarioConfig {
    ScenarioRegistry::builtin().build("smoke/small", Scale::Quick, seed)
}

/// The typed error `config` fails to resolve with.
fn resolution_error(config: &ScenarioConfig, why: &str) -> ComponentError {
    resolve_components(config)
        .err()
        .unwrap_or_else(|| panic!("{why}"))
}

#[test]
fn every_registered_scenario_resolves_at_both_scales() {
    let registry = ScenarioRegistry::builtin();
    for name in registry.names() {
        for scale in [Scale::Paper, Scale::Quick] {
            let config = registry.build(name, scale, 7);
            if let Err(err) = resolve_components(&config) {
                panic!("{name} at {scale:?} does not resolve: {err}");
            }
        }
    }
}

#[test]
fn unknown_component_name_is_a_structured_error_naming_the_kind() {
    let mut config = quick_config(1);
    config.components.workload = Some(ComponentSpec::new("tidal"));
    let err = resolution_error(&config, "unknown name must not resolve");
    match &err {
        ComponentError::UnknownComponent { kind, name, known } => {
            assert_eq!(kind, "workload");
            assert_eq!(name, "tidal");
            assert!(
                known.iter().any(|n| n == "diurnal"),
                "known list: {known:?}"
            );
        }
        other => panic!("expected UnknownComponent, got {other:?}"),
    }
    let text = err.to_string();
    assert!(
        text.contains("tidal"),
        "error must name the component: {text}"
    );
    assert!(
        text.contains("diurnal"),
        "error must list known names: {text}"
    );
}

#[test]
fn unknown_names_error_on_every_axis() {
    type Setter = fn(&mut ScenarioConfig);
    let axes: [(&str, Setter); 3] = [
        ("capability", |c| {
            c.components.capability = Some(ComponentSpec::new("quantum"))
        }),
        ("workload", |c| {
            c.components.workload = Some(ComponentSpec::new("tidal"))
        }),
        ("adversary", |c| {
            c.components.adversary = Some(ComponentSpec::new("mastermind"))
        }),
    ];
    for (axis, set) in axes {
        let mut config = quick_config(1);
        set(&mut config);
        let err = resolution_error(&config, "unknown name must not resolve");
        assert!(
            matches!(&err, ComponentError::UnknownComponent { kind, .. } if kind == axis),
            "axis {axis}: expected UnknownComponent, got {err:?}"
        );
    }
}

#[test]
fn ill_typed_param_is_rejected_with_the_offending_key() {
    let mut config = quick_config(1);
    config.components.workload =
        Some(ComponentSpec::new("diurnal").with("participation", ParamValue::Bool(true)));
    let err = resolution_error(&config, "a flag for a float must not validate");
    match &err {
        ComponentError::BadParamType {
            component,
            key,
            expected,
            got,
        } => {
            assert_eq!(component, "diurnal");
            assert_eq!(key, "participation");
            assert_eq!(*expected, "float");
            assert_eq!(*got, "bool");
        }
        other => panic!("expected BadParamType, got {other:?}"),
    }
    assert!(err.to_string().contains("participation"));
}

#[test]
fn out_of_range_param_is_rejected_with_the_offending_key() {
    // `(offending key, spec)`: every disturbance that could not run is a
    // typed error naming the generator and the key.
    let f = ParamValue::Float;
    let churn = || ComponentSpec::new("churn");
    let partitions = || ComponentSpec::new("partition-waves");
    let cases = [
        (
            "participation",
            ComponentSpec::new("diurnal").with("participation", f(1.5)),
        ),
        ("fraction", churn().with("fraction", f(1.5))),
        (
            "mean_session_secs",
            churn()
                .with("fraction", f(0.3))
                .with("mean_session_secs", f(0.0)),
        ),
        (
            "flash_crowd_fraction",
            churn().with("flash_crowd_fraction", f(0.95)),
        ),
        ("waves", partitions().with("waves", ParamValue::Int(0))),
        ("waves", partitions().with("waves", ParamValue::Int(256))),
        ("fraction", partitions().with("fraction", f(0.95))),
    ];
    for (key, spec) in cases {
        assert_invalid_workload_param(spec, key);
    }
}

/// `spec` as the workload fails to resolve with an `InvalidParam` naming
/// its generator and `key`.
fn assert_invalid_workload_param(spec: ComponentSpec, key: &str) {
    let generator = spec.name.clone();
    let mut config = quick_config(1);
    config.components.workload = Some(spec);
    let err = resolution_error(
        &config,
        &format!("{generator}: bad `{key}` must not resolve"),
    );
    assert!(
        matches!(&err, ComponentError::InvalidParam { component, key: k, .. }
            if *component == generator && k == key),
        "{generator}: expected InvalidParam naming `{key}`, got {err:?}"
    );
}

#[test]
fn churn_wave_at_instant_zero_is_rejected() {
    // A catastrophe at t = 0 would crash nodes before the stream starts.
    assert_invalid_workload_param(
        ComponentSpec::new("churn")
            .with("catastrophe_fraction", ParamValue::Float(0.1))
            .with("catastrophe_at_secs", ParamValue::Float(0.0)),
        "catastrophe_at_secs",
    );
}

#[test]
fn partition_wave_with_zero_outage_is_rejected() {
    // A zero-length outage would heal in the instant it begins.
    assert_invalid_workload_param(
        ComponentSpec::new("partition-waves").with("outage_secs", ParamValue::Float(0.0)),
        "outage_secs",
    );
}

#[test]
fn undeclared_param_key_is_rejected() {
    let mut config = quick_config(1);
    config.components.workload =
        Some(ComponentSpec::new("zap").with("zapers", ParamValue::Float(0.5)));
    let err = resolution_error(&config, "misspelled key must not validate");
    match &err {
        ComponentError::UnknownParam { component, key, .. } => {
            assert_eq!(component, "zap");
            assert_eq!(key, "zapers");
        }
        other => panic!("expected UnknownParam, got {other:?}"),
    }
}

/// Names within one registry are unique: a lookup by name finds one row.
fn assert_unique_names<P>(registry: &ComponentRegistry<P>) {
    let mut names: Vec<_> = registry.names().collect();
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "{} registry", registry.kind());
}

#[test]
fn component_names_are_unique_within_each_registry() {
    assert_unique_names(capability_components());
    assert_unique_names(workload_components());
    assert_unique_names(adversary_components());
    assert_unique_names(exporter_components());
}

#[test]
fn every_registered_workload_component_builds_with_default_params() {
    let registry = workload_components();
    for name in registry.names() {
        let mut seeds = SeedSplitter::new(7);
        if let Err(e) = registry.build(name, &ParamMap::new(), &mut seeds) {
            panic!("{name} must build with defaults: {e}");
        }
    }
}

// ---------------------------------------------------------------------------
// 2. The adversary registry makes the adversaries.
// ---------------------------------------------------------------------------

/// `(family, name() of the adversary it spawns, closed loop)`.
const FAMILIES: [(&str, &str, bool); 7] = [
    ("baseline", "freerider", false),
    ("on-off", "on-off-freerider", false),
    ("blame-spam", "blame-spammer", false),
    ("selective-freerider", "selective-freerider", false),
    ("gradient-freerider", "gradient-freerider", true),
    ("whitewasher", "whitewasher", true),
    ("adaptive-colluders", "adaptive-colluder", true),
];

#[test]
fn every_adversary_component_spawns_the_adversary_it_names() {
    let registry = adversary_components();
    assert_eq!(
        registry.names().collect::<Vec<_>>(),
        FAMILIES.map(|(family, _, _)| family),
        "a family was registered without being listed here"
    );
    // Ten nodes, the last three freeride.
    let config = ScenarioConfig::small_test(10, 1).with_planetlab_freeriders(0.3);
    let coalition = Arc::new(Vec::new());
    for (family, adversary, closed_loop) in FAMILIES {
        let spawner = registry
            .build(family, &ParamMap::new(), &mut SeedSplitter::new(1))
            .unwrap_or_else(|e| panic!("{family} must build with defaults: {e}"));
        assert_eq!(spawner.closed_loop(), closed_loop, "{family}");
        assert_eq!(spawner.spawn(&config, 9, &coalition).name(), adversary);
        assert_eq!(spawner.spawn(&config, 0, &coalition).name(), "honest");
        assert_eq!(spawner.spawn(&config, 6, &coalition).name(), "honest");
    }
}

/// Asserts that `config` fails to resolve with an `InvalidParam` of the
/// declared adversary family naming `key`.
fn assert_rejected(config: &ScenarioConfig, key: &str) {
    let family = &config.components.adversary.as_ref().unwrap().name;
    let err = resolution_error(config, &format!("{family}: bad `{key}` must not resolve"));
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
    let selective = |mask: i64| {
        Some(ComponentSpec::new("selective-freerider").with("silent_mask", ParamValue::Int(mask)))
    };

    // A selective freerider needs two streams, and a mask within them.
    let mut config = quick_config(1);
    config.components.adversary = selective(0b10);
    assert_rejected(&config, "silent_mask");
    let mut config = two_streams(quick_config(1));
    config.components.adversary = selective(0b100);
    assert_rejected(&config, "silent_mask");
    config.components.adversary = selective(0b10);
    assert!(resolve_components(&config).is_ok());

    // Adaptive colluders need a coalition of at least two.
    let mut config = quick_config(1);
    config.components.adversary = Some(ComponentSpec::new("adaptive-colluders"));
    assert!(resolve_components(&config).is_ok());
    config.freeriders.as_mut().unwrap().count = 1;
    assert_rejected(&config, "freeriders");

    // Every family but the baseline replaces the freeriders' behaviour: it
    // needs freeriders to replace.
    for (family, _, _) in FAMILIES {
        let mut config = two_streams(quick_config(1));
        config.components.adversary = Some(ComponentSpec::new(family));
        assert!(resolve_components(&config).is_ok(), "{family}");
        config.freeriders = None;
        if family == "baseline" {
            assert!(resolve_components(&config).is_ok());
        } else {
            assert_rejected(&config, "freeriders");
        }
    }
}

#[test]
fn collusion_parameters_exist_only_on_the_baseline_adversary() {
    // Another family has no collusion parameters to set: the combination
    // cannot be written.
    let mut config = quick_config(1);
    config.components.adversary =
        Some(ComponentSpec::new("on-off").with("cover_up", ParamValue::Bool(true)));
    let err = resolution_error(&config, "on-off has no `cover_up`");
    assert!(
        matches!(&err, ComponentError::UnknownParam { component, key, .. }
            if component == "on-off" && key == "cover_up"),
        "expected UnknownParam naming `cover_up`, got {err:?}"
    );
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

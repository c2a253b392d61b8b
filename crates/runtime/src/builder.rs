//! Builds a [`SystemWorld`] from a [`ScenarioConfig`]: wires the node
//! stacks, the adversaries, the network, the manager assignment and the
//! audit plane.
//!
//! [`build_world`] resolves the scenario's components once
//! ([`resolve_components`]) and expands the declared disturbance generator
//! once into its [`WorkloadPlan`]; the world keeps the adversary spawner (for
//! stack rebuilds) and the plan, whose edges [`SystemWorld::initial_events`]
//! turns into the run's first events.
//!
//! The construction order (and in particular the order of RNG derivations)
//! is part of the determinism contract: existing scenarios must produce
//! bit-identical [`crate::RunOutcome`]s across refactors.

use std::sync::Arc;

use lifting_analysis::entropy::calibrate_gamma;
use lifting_analysis::ProtocolParams;
use lifting_core::Auditor;
use lifting_gossip::{StreamClock, StreamSource};
use lifting_membership::{Directory, Edge, TimedEdge, WorkloadPlan};
use lifting_net::{Network, NodeCapability};
use lifting_reputation::ManagerAssignment;
use lifting_sim::{derive_rng, ComponentError, NodeId, SimDuration, SimTime};

use crate::components::{resolve_components, ResolvedComponents};
use crate::layers::{AuditCoordinator, NodeStack};
use crate::message::{Event, CHURN_EPOCH_ANY};
use crate::period::PeriodPlane;
use crate::scenario::ScenarioConfig;
use crate::world::SystemWorld;

// Streams 5–7, 9 and 10 belong to the disturbance generators of
// `lifting_membership::workload`.

/// Fresh RNG stream for draws that only exist in multi-channel runs (the
/// audit plane's stream picks). Single-stream scenarios never read it, so
/// they consume exactly the streams they always did — the bit-compat
/// contract of the multistream refactor.
const MULTISTREAM_STREAM: u64 = 8;

/// The multistream draw stream (consumed only when `stream_count > 1`).
pub(crate) fn multistream_rng(seed: u64) -> rand::rngs::SmallRng {
    derive_rng(seed, MULTISTREAM_STREAM)
}

/// Builds the system described by `config`, or reports the component of its
/// `components` section that failed to resolve or the scenario field that is
/// out of range.
pub fn build_world(config: ScenarioConfig) -> Result<SystemWorld, ComponentError> {
    let ResolvedComponents {
        capability,
        workload,
        adversary,
    } = resolve_components(&config)?;
    config.validate()?;
    let n = config.nodes;
    let seed = config.seed;

    // Membership: one directory for every channel. Single-stream scenarios
    // build the exact same subscription-less directory they always did;
    // multi-channel ones add per-stream subscription sets cut to each
    // stream's audience (the source always subscribes everywhere).
    let streams = config.stream_count();
    let mut directory = Directory::with_streams(n, streams);
    if streams > 1 {
        for stream in config.stream_ids() {
            let audience = config.stream_spec(stream).audience;
            for i in 1..n {
                if !audience.includes(i, n) {
                    directory.unsubscribe(NodeId::new(i as u32), stream);
                }
            }
        }
    }
    let mut network = Network::new(n, config.network.clone(), derive_rng(seed, 1));

    // Node capabilities: assigned per node by the scenario's capability-class
    // provider.
    let baseline = match config.default_upload_bps {
        Some(bps) => NodeCapability::broadband(bps),
        None => NodeCapability::unconstrained(),
    };
    let mut cap_rng = derive_rng(seed, 2);
    for i in 0..n {
        let cap = capability.assign(i, config.is_freerider(i), baseline, &mut cap_rng);
        network.set_capability(NodeId::new(i as u32), cap);
    }

    // Coalition: every freerider belongs to it (only colluders read it).
    let coalition: Arc<Vec<NodeId>> = Arc::new(
        (0..n)
            .filter(|i| config.is_freerider(*i))
            .map(|i| NodeId::new(i as u32))
            .collect(),
    );

    // One clock per stream: the one definition of every chunk's emission
    // time and size, shared by the source and every node's playout buffer.
    let clocks: Vec<StreamClock> = config
        .stream_ids()
        .map(|stream| {
            let spec = config.stream_spec(stream);
            StreamClock::new(stream, spec.rate_bps, spec.chunk_size)
                .starting_at(SimTime::ZERO + spec.start_offset)
        })
        .collect();
    let stacks: Vec<NodeStack> = (0..n)
        .map(|i| {
            NodeStack::with_streams(
                NodeId::new(i as u32),
                config.gossip,
                config.lifting,
                config.lifting_enabled,
                adversary.spawn(&config, i, &coalition),
                derive_rng(seed, 1000 + i as u64),
                &clocks,
                0,
            )
        })
        .collect();

    let assignment = ManagerAssignment::new(n, config.lifting.managers, seed);
    let mut stacks = stacks;
    // Register every scored node (the source is never scored or expelled).
    for i in 1..n {
        let id = NodeId::new(i as u32);
        for m in assignment.managers_of(id) {
            stacks[m.index()].reputation.register(id);
        }
    }

    // Per-period compensation of wrongful blames (Equation 5, adapted to
    // each stream's loss rate, fanout, request size and pdcc). One value per
    // stream: a node's credit is the sum over the channels it subscribes to,
    // matching the blame exposure the channels create. Stream 0's value is
    // computed with the exact expression single-stream builds always used.
    let pr = config.network.loss.reception_probability();
    let compensation_per_stream: Vec<f64> = config
        .stream_ids()
        .map(|stream| {
            let spec = config.stream_spec(stream);
            let chunks_per_period = spec.rate_bps as f64 / (spec.chunk_size as f64 * 8.0)
                * config.gossip.gossip_period.as_secs_f64();
            let requested = (chunks_per_period / config.gossip.fanout as f64)
                .ceil()
                .max(1.0) as usize;
            let params = ProtocolParams::new(config.gossip.fanout, requested, pr);
            if config.lifting.compensate_wrongful_blames {
                params.expected_blame_direct_verification()
                    + config.lifting.pdcc * params.expected_blame_cross_checking()
            } else {
                0.0
            }
        })
        .collect();

    // Entropy threshold calibrated for this deployment's history size and
    // population (the paper's 8.95 corresponds to 600 entries / 10,000
    // nodes; smaller systems need a lower threshold).
    // The safety margin is generous (0.6 bits): honest histories in small
    // systems collide a lot, and a wrongful expulsion is far more costly
    // than a missed audit (freeriders are still caught by their much lower
    // entropy and by the score-based detection).
    let entries = config.lifting.history_periods * config.gossip.fanout;
    let gamma = calibrate_gamma(entries, n.max(2), 60, 0.6, seed ^ 0x5eed)
        .min(config.lifting.gamma)
        .max(0.1);
    let audits = AuditCoordinator::new(Auditor::with_threshold(
        config.lifting,
        config.gossip.fanout,
        gamma,
    ));

    // Disturbances: the declared generator's plan, expanded once. Flash-crowd
    // members are held offline from the start (the directory is the single
    // source of truth for activity, and the network drops traffic of cut-off
    // nodes); a zap viewer watches only its home channel. Every membership
    // generator counts each node online at the start as one session; rejoins
    // add to the count as the run progresses.
    let workload = workload.map_or_else(WorkloadPlan::default, |generator| {
        generator.expand(n, streams, config.duration, seed)
    });
    for (i, held) in workload.held_offline.iter().enumerate() {
        if *held {
            let node = NodeId::new(i as u32);
            directory.deactivate(node);
            network.set_cut_off(node, true);
        }
    }
    for (i, home) in workload.initial_stream.iter().enumerate() {
        if let Some(home) = *home {
            for stream in config.stream_ids().filter(|s| *s != home) {
                directory.unsubscribe(NodeId::new(i as u32), stream);
            }
        }
    }
    let disturbs_membership = config.components.workload.is_some() && workload.waves.is_empty();
    let initial_sessions = if disturbs_membership {
        directory.active_count() as u64 - 1
    } else {
        0
    };

    let traced = !workload.waves.is_empty() || adversary.closed_loop();
    Ok(SystemWorld {
        directory,
        network,
        stacks,
        assignment,
        audits,
        sources: clocks.into_iter().map(StreamSource::new).collect(),
        compensation_per_stream,
        blame_counts: vec![0; n * streams],
        blame_values: vec![0.0; n * streams],
        blames_in_flight: Default::default(),
        expelled: vec![false; n],
        epochs: vec![0; n],
        wave_exec: None,
        workload,
        churn_departures: 0,
        churn_rejoins: 0,
        churn_sessions: initial_sessions,
        workload_switches: 0,
        audits_aborted_by_departure: 0,
        coalition,
        adversary,
        rng: derive_rng(seed, 3),
        mstream_rng: multistream_rng(seed),
        scratch_downcalls: Vec::new(),
        scratch_nodes: Vec::new(),
        partition_holds: vec![0; n],
        period: PeriodPlane::new(&config, traced),
        config,
    })
}

/// The initial events of a run of `world`: the first source emission,
/// staggered gossip ticks, staggered audit ticks (when enabled), the first
/// period end and the edges of the disturbance plan the world was built
/// with.
pub(crate) fn initial_events(world: &SystemWorld) -> Vec<(SimTime, Event)> {
    let config = &world.config;
    // Every channel's first emission, at its start offset (the primary's is
    // zero).
    let mut events: Vec<(SimTime, Event)> = config
        .stream_ids()
        .map(|stream| {
            let start = SimTime::ZERO + config.stream_spec(stream).start_offset;
            (start, Event::SourceEmit { stream })
        })
        .collect();
    let period = config.gossip.gossip_period;
    let n = config.nodes;
    for i in 0..n {
        // Stagger gossip phases uniformly over one period, as real
        // deployments do implicitly (nodes start at different times).
        let offset = SimDuration::from_micros(period.as_micros() * i as u64 / n as u64);
        events.push((
            SimTime::ZERO + offset,
            Event::GossipTick {
                node: NodeId::new(i as u32),
                epoch: 0,
            },
        ));
        if config.audits_enabled && i != 0 {
            let audit_offset =
                SimDuration::from_micros(config.audit_interval.as_micros() * i as u64 / n as u64);
            events.push((
                SimTime::ZERO + config.audit_interval + audit_offset,
                Event::AuditTick {
                    auditor: NodeId::new(i as u32),
                    epoch: 0,
                },
            ));
        }
    }
    events.push((SimTime::ZERO + period, Event::PeriodEnd));
    // Disturbance edges, in plan order (events at one instant keep it):
    // departures and rejoins ride the churn path — a steady session end
    // carries the session it ends, waves and pre-drawn rejoins the epoch
    // wildcard — switches and partition transitions their own barrier events.
    for TimedEdge { at, edge } in &world.workload.edges {
        let event = match *edge {
            Edge::Depart { node, session } => Event::Churn {
                node,
                up: false,
                epoch: session.unwrap_or(CHURN_EPOCH_ANY),
            },
            Edge::Rejoin { node } => Event::rejoin(node),
            Edge::Switch { node, from, to } => Event::Resubscribe { node, from, to },
            Edge::Partition { wave, begin } => Event::Fault { wave, begin },
        };
        events.push((SimTime::ZERO + *at, event));
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ComponentSpec, FreeriderScenario};
    use lifting_gossip::FreeriderConfig;
    use lifting_sim::ParamValue;

    /// The name of the adversary node `index` plays under `config`.
    fn played_by(config: &ScenarioConfig, index: usize) -> &'static str {
        let coalition = Arc::new(Vec::new());
        resolve_components(config)
            .unwrap_or_else(|e| panic!("{e}"))
            .adversary
            .spawn(config, index, &coalition)
            .name()
    }

    #[test]
    fn baseline_wiring_matches_the_paper_adversaries() {
        let mut config = ScenarioConfig::small_test(10, 1).with_planetlab_freeriders(0.3);
        assert_eq!(played_by(&config, 0), "honest");
        assert_eq!(played_by(&config, 7), "freerider");
        config.components.adversary = Some(
            ComponentSpec::new("baseline")
                .with("partner_bias", ParamValue::Float(0.3))
                .with("cover_up", ParamValue::Bool(true)),
        );
        assert_eq!(played_by(&config, 7), "colluder");
        assert_eq!(played_by(&config, 1), "honest");
    }

    #[test]
    fn non_baseline_adversaries_replace_the_freerider_population() {
        let mut config = ScenarioConfig::small_test(10, 1);
        config.freeriders = Some(FreeriderScenario {
            count: 2,
            degree: FreeriderConfig::uniform(0.2),
        });
        config.components.adversary = Some(ComponentSpec::new("on-off"));
        assert_eq!(played_by(&config, 9), "on-off-freerider");
        config.components.adversary = Some(ComponentSpec::new("blame-spam"));
        assert_eq!(played_by(&config, 9), "blame-spammer");
        assert_eq!(played_by(&config, 0), "honest");
    }

    #[test]
    fn out_of_range_protocol_parameters_are_typed_errors() {
        type Break = fn(&mut ScenarioConfig);
        let cases: [(&str, &str, Break); 7] = [
            ("gossip", "fanout", |c| c.gossip.fanout = 0),
            ("gossip", "gossip_period", |c| {
                c.gossip.gossip_period = SimDuration::ZERO
            }),
            ("gossip", "clear_stream_threshold", |c| {
                c.gossip.clear_stream_threshold = 1.5
            }),
            ("lifting", "pdcc", |c| c.lifting.pdcc = 1.5),
            ("freerider", "delta1", |c| {
                c.freeriders.as_mut().unwrap().degree.delta1 = 2.0
            }),
            ("freerider", "period_stretch", |c| {
                c.freeriders.as_mut().unwrap().degree.period_stretch = 0
            }),
            ("link_faults", "duplicate_probability", |c| {
                c.network.faults.duplicate_probability = 2.0
            }),
        ];
        for (component, key, break_it) in cases {
            let mut config = ScenarioConfig::small_test(10, 1).with_planetlab_freeriders(0.2);
            break_it(&mut config);
            let built = std::panic::catch_unwind(|| build_world(config).map(drop));
            let err = built.unwrap_or_else(|_| panic!("{component}.{key}: unwound"));
            let expected = |e: &ComponentError| {
                matches!(e, ComponentError::InvalidParam { component: c, key: k, .. }
                    if c == component && k == key)
            };
            assert!(
                err.as_ref().is_err_and(expected),
                "{component}.{key}: {err:?}"
            );
        }
    }

    #[test]
    fn initial_events_stagger_ticks_and_schedule_audits() {
        let mut config = ScenarioConfig::small_test(5, 3);
        config.audits_enabled = true;
        let events = SystemWorld::new(config).initial_events();
        let gossip_ticks = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::GossipTick { .. }))
            .count();
        let audit_ticks = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::AuditTick { .. }))
            .count();
        assert_eq!(gossip_ticks, 5);
        assert_eq!(audit_ticks, 4, "the source never audits");
        assert!(matches!(events[0], (t, Event::SourceEmit { .. }) if t == SimTime::ZERO));
    }
}

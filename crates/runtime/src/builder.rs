//! Builds a [`SystemWorld`] from a [`ScenarioConfig`]: wires the node
//! stacks, the adversaries, the network, the manager assignment and the
//! audit plane.
//!
//! [`build_world`] resolves the scenario's components once
//! ([`resolve_components`]) and expands the churn and workload plans once;
//! the world keeps the adversary spawner (for stack rebuilds) and the two
//! plans, which [`SystemWorld::initial_events`] turns into the run's first
//! events.
//!
//! The construction order (and in particular the order of RNG derivations)
//! is part of the determinism contract: existing scenarios must produce
//! bit-identical [`crate::RunOutcome`]s across refactors.

use std::sync::Arc;

use lifting_analysis::entropy::calibrate_gamma;
use lifting_analysis::ProtocolParams;
use lifting_core::Auditor;
use lifting_gossip::StreamSource;
use lifting_membership::{ChurnPlan, Directory, WorkloadAction};
use lifting_net::{FaultPlan, Network, NodeCapability};
use lifting_reputation::ManagerAssignment;
use lifting_sim::{derive_rng, ComponentError, NodeId, SimDuration, SimTime, StreamId};

use crate::components::{resolve_components, ResolvedComponents};
use crate::layers::{AuditCoordinator, NodeStack};
use crate::message::{Event, CHURN_EPOCH_ANY};
use crate::scenario::ScenarioConfig;
use crate::world::{ChurnRuntime, SystemWorld};

/// Deterministic RNG stream indices of the churn engine: the plan stream
/// expands the schedule into the per-node plan; the schedule stream drives
/// the first-departure draws; the world stream feeds the live
/// session/offline draws as the run progresses.
const CHURN_PLAN_STREAM: u64 = 5;
const CHURN_SCHEDULE_STREAM: u64 = 6;
const CHURN_WORLD_STREAM: u64 = 7;
/// Fresh RNG stream for draws that only exist in multi-channel runs (the
/// audit plane's stream picks). Single-stream scenarios never read it, so
/// they consume exactly the streams they always did — the bit-compat
/// contract of the multistream refactor.
const MULTISTREAM_STREAM: u64 = 8;
/// Fresh RNG stream for the fault plan's membership draws. Consumed only
/// when the scenario schedules fault waves, so fault-free runs keep their
/// exact historical stream consumption.
const FAULT_PLAN_STREAM: u64 = 9;
/// Fresh RNG stream for the workload plan's draws, consumed only when the
/// scenario declares a `workload` component — every other scenario keeps its
/// exact historical stream consumption.
const WORKLOAD_PLAN_STREAM: u64 = 10;

/// Expands the scenario's fault schedule into its pre-drawn per-wave
/// membership (`None` when no faults are configured).
pub(crate) fn fault_plan(config: &ScenarioConfig) -> Option<FaultPlan> {
    config
        .faults
        .as_ref()
        .filter(|schedule| !schedule.waves.is_empty())
        .map(|schedule| {
            FaultPlan::generate(
                schedule,
                config.nodes,
                &mut derive_rng(config.seed, FAULT_PLAN_STREAM),
            )
        })
}

/// The multistream draw stream (consumed only when `stream_count > 1`).
pub(crate) fn multistream_rng(seed: u64) -> rand::rngs::SmallRng {
    derive_rng(seed, MULTISTREAM_STREAM)
}

/// Builds the system described by `config`, or reports the component of its
/// `components` section that failed to resolve.
pub fn build_world(mut config: ScenarioConfig) -> Result<SystemWorld, ComponentError> {
    let ResolvedComponents {
        transport,
        loss,
        capability,
        workload,
        adversary,
    } = resolve_components(&config)?;
    // `transport` and `loss` are named presets for values `NetworkConfig`
    // stores: a declared one replaces the stored value.
    if let Some(transport) = transport {
        config.network.transports = transport;
    }
    if let Some(loss) = loss {
        config.network.loss = loss;
    }
    let config = config;
    config.validate();
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
    let default_capability = match config.default_upload_bps {
        Some(bps) => NodeCapability::broadband(bps),
        None => NodeCapability::unconstrained(),
    };
    let mut cap_rng = derive_rng(seed, 2);
    for i in 0..n {
        let cap = capability.assign(i, config.is_freerider(i), default_capability, &mut cap_rng);
        network.set_capability(NodeId::new(i as u32), cap);
    }

    // Coalition: every freerider belongs to it when collusion is active.
    let coalition: Arc<Vec<NodeId>> = Arc::new(
        (0..n)
            .filter(|i| config.is_freerider(*i))
            .map(|i| NodeId::new(i as u32))
            .collect(),
    );

    let stacks: Vec<NodeStack> = (0..n)
        .map(|i| {
            NodeStack::with_streams(
                NodeId::new(i as u32),
                config.gossip,
                config.lifting,
                config.lifting_enabled,
                adversary.spawn(&config, i, &coalition),
                derive_rng(seed, 1000 + i as u64),
                streams,
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
    ))
    .with_retry(config.audit_retry);

    let sources: Vec<StreamSource> = config
        .stream_ids()
        .map(|stream| {
            let spec = config.stream_spec(stream);
            StreamSource::new(stream, spec.rate_bps, spec.chunk_size)
                .starting_at(SimTime::ZERO + spec.start_offset)
        })
        .collect();

    // Membership dynamics: flash-crowd members are held offline from the
    // start (the directory is the single source of truth for activity, and
    // the network drops traffic of cut-off nodes); the per-node plan and the
    // live RNG stream move into the world, which executes the schedule.
    let mut initial_sessions = 0u64;
    let churn = config.churn.as_ref().map(|schedule| {
        let plan = ChurnPlan::generate(schedule, n, &mut derive_rng(seed, CHURN_PLAN_STREAM));
        for i in 1..n {
            if plan.starts_offline[i] {
                let node = NodeId::new(i as u32);
                directory.deactivate(node);
                network.set_cut_off(node, true);
            }
        }
        // Every non-source node that starts online opens a session; rejoins
        // add to the count as the run progresses.
        initial_sessions = directory.active_count() as u64 - 1;
        ChurnRuntime {
            plan,
            rng: derive_rng(seed, CHURN_WORLD_STREAM),
        }
    });

    // Workload plan: zap-style plans assign each viewer an initial home
    // channel — prune the other subscriptions so the directory starts where
    // the plan says (the events themselves are scheduled by
    // `initial_events` from the plan the world keeps).
    let workload_plan = workload.map(|generator| {
        generator.expand(
            n,
            streams,
            config.duration,
            &mut derive_rng(seed, WORKLOAD_PLAN_STREAM),
        )
    });
    if let Some(plan) = &workload_plan {
        if streams > 1 {
            for i in 1..n {
                if let Some(home) = plan.initial_stream[i] {
                    let node = NodeId::new(i as u32);
                    for stream in config.stream_ids() {
                        if stream != home {
                            directory.unsubscribe(node, stream);
                        }
                    }
                }
            }
        }
        // Workload-driven membership counts sessions like churn does: every
        // node online at the start opens one.
        if config.churn.is_none() {
            initial_sessions = directory.active_count() as u64 - 1;
        }
    }

    let hot = crate::hot::HotNodeState::from_stacks(&stacks);
    // The resilience plane (fault waves, a closed-loop adversary, the online
    // recalibration) is what the per-period recovery traces exist for.
    let resilience_active =
        config.faults.is_some() || config.online_recalibration.is_some() || adversary.closed_loop();
    Ok(SystemWorld {
        directory,
        network,
        stacks,
        assignment,
        audits,
        sources,
        emitted: vec![Vec::new(); streams],
        compensation_per_stream,
        blame_counts: vec![0; n * streams],
        blame_values: vec![0.0; n * streams],
        expulsion_voters: vec![Vec::new(); n],
        expelled: vec![false; n],
        hot,
        wave_exec: None,
        churn,
        workload_plan,
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
        scratch_votes: Vec::new(),
        fault_plan: fault_plan(&config),
        partition_holds: vec![0; n],
        periods_elapsed: 0,
        eta_live: config.lifting.eta,
        eta_smoothed: config.lifting.eta,
        recovery: resilience_active.then(crate::metrics::RecoveryReport::default),
        config,
    })
}

/// The initial events of a run of `world`: the first source emission,
/// staggered gossip ticks, staggered audit ticks (when enabled), the first
/// period end and — when the scenario churns or replays a workload — the
/// membership transitions of the plans the world was built with (first
/// departures, flash-crowd joins, the catastrophe wave, the workload trace).
pub(crate) fn initial_events(world: &SystemWorld) -> Vec<(SimTime, Event)> {
    let config = &world.config;
    // The primary stream's first emission is scheduled exactly where the
    // single-stream runtime always put it; extra channels follow at their
    // start offsets.
    let mut events = vec![(
        SimTime::ZERO,
        Event::SourceEmit {
            stream: StreamId::PRIMARY,
        },
    )];
    for stream in config.stream_ids().skip(1) {
        let spec = config.stream_spec(stream);
        events.push((
            SimTime::ZERO + spec.start_offset,
            Event::SourceEmit { stream },
        ));
    }
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
    if let (Some(schedule), Some(ChurnRuntime { plan, .. })) = (&config.churn, &world.churn) {
        let mut schedule_rng = derive_rng(config.seed, CHURN_SCHEDULE_STREAM);
        for i in 1..n {
            let node = NodeId::new(i as u32);
            if plan.starts_offline[i] {
                // Flash-crowd member: held offline by the builder, joins at
                // the wave instant (its steady churn, if any, starts there).
                let wave = schedule.flash_crowd.expect("plan implies a wave");
                events.push((
                    SimTime::ZERO + wave.at,
                    Event::Churn {
                        node,
                        up: true,
                        epoch: CHURN_EPOCH_ANY,
                    },
                ));
            } else if plan.churners[i] {
                let at = schedule.warmup + schedule.session_length(&mut schedule_rng);
                events.push((
                    SimTime::ZERO + at,
                    Event::Churn {
                        node,
                        up: false,
                        epoch: 0,
                    },
                ));
            }
            if plan.catastrophe_members[i] {
                let wave = schedule.catastrophe.expect("plan implies a wave");
                events.push((
                    SimTime::ZERO + wave.at,
                    Event::Churn {
                        node,
                        up: false,
                        epoch: CHURN_EPOCH_ANY,
                    },
                ));
            }
        }
    }
    // Workload plan: pre-drawn membership and channel-switch transitions.
    // Departures/rejoins ride the churn event path with the epoch wildcard
    // (the plan pre-draws every rejoin, so the world schedules no follow-ups);
    // switches ride their own barrier event.
    if let Some(plan) = &world.workload_plan {
        for event in &plan.events {
            let at = SimTime::ZERO + event.at;
            match event.action {
                WorkloadAction::Depart => events.push((
                    at,
                    Event::Churn {
                        node: event.node,
                        up: false,
                        epoch: CHURN_EPOCH_ANY,
                    },
                )),
                WorkloadAction::Rejoin => events.push((
                    at,
                    Event::Churn {
                        node: event.node,
                        up: true,
                        epoch: CHURN_EPOCH_ANY,
                    },
                )),
                WorkloadAction::Switch { from, to } => events.push((
                    at,
                    Event::Resubscribe {
                        node: event.node,
                        from,
                        to,
                    },
                )),
            }
        }
    }
    // Fault waves: each wave contributes its onset and its heal transition
    // (membership is pre-drawn by the plan, so both runs of a
    // parallel/sequential pair see the identical outage).
    if let Some(schedule) = &config.faults {
        for (i, wave) in schedule.waves.iter().enumerate() {
            events.push((
                SimTime::ZERO + wave.at,
                Event::Fault {
                    wave: i as u32,
                    begin: true,
                },
            ));
            events.push((
                SimTime::ZERO + wave.heals_at(),
                Event::Fault {
                    wave: i as u32,
                    begin: false,
                },
            ));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CollusionScenario, ComponentSpec, FreeriderScenario};
    use lifting_gossip::FreeriderConfig;

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
        config.collusion = CollusionScenario {
            partner_bias: 0.3,
            cover_up: true,
            man_in_the_middle: false,
        };
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

//! System runner: wires the gossip protocol, the LiFTinG verification layer,
//! the reputation managers and the simulated network into runnable scenarios.
//!
//! Each node is a protocol stack ([`layers::NodeStack`]): per stream, the
//! sans-IO gossip and verification state machines wired directly to each
//! other, over one reputation plane, emitting typed downcalls (see [`layers`]
//! and `ARCHITECTURE.md`); its [`layers::Adversary`] value says whether the
//! node is honest or plays the [`AdversaryFamily`] its scenario declares. The
//! [`SystemWorld`] owns the stacks and the event-loop glue the sans-IO
//! protocol crates deliberately avoid: it moves messages through
//! [`lifting_net::Network`], schedules verifier timers, routes blames to
//! reputation managers, applies per-period compensation and expulsion
//! decisions, triggers a-posteriori audits, and collects the metrics every
//! experiment of the paper needs (score distributions, detection /
//! false-positive rates, stream health and traffic overhead).
//!
//! Entry points:
//!
//! * [`ScenarioConfig`] describes an experiment (population, freeriders,
//!   streams, network conditions, LiFTinG parameters, capability classes,
//!   workload, and the adversary family with its collusion — all typed
//!   values); the [`ScenarioRegistry`]
//!   maps experiment names (`"fig01/no-freeriders"`, …) to ready-made
//!   configurations.
//! * [`run_scenario`] runs it to completion and returns a [`RunOutcome`].
//! * [`run_scenario_with_snapshots`] additionally records score snapshots at
//!   chosen instants (Figure 14 reads scores at 25, 30 and 35 seconds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod components;
pub mod inflight;
pub mod layers;
pub mod message;
pub mod metrics;
pub mod observe;
pub(crate) mod period;
pub mod registry;
pub mod runner;
pub mod scenario;
pub(crate) mod wave;
pub mod world;

pub use components::{component_summary, exporter_components, OutcomeExporter};
pub use inflight::{BlamesInFlight, InFlightBlame};
pub use layers::{Adversary, AdversaryFamily, AuditRpcStats, FeedbackAction, NodeStack};
pub use message::{Event, Message};
pub use metrics::{
    ChurnStats, LayerTraffic, NodeOutcome, RecoveryReport, RunOutcome, ScoreSnapshot, StackLayer,
    StreamOutcome, WaveKind, WaveRecovery,
};
pub use registry::{fig14_scenario_name, scenario_family, Scale, ScenarioRegistry, FIG14_PDCCS};
pub use runner::{
    build_engine, run_jobs_parallel, run_scenario, run_scenario_sharded,
    run_scenario_with_snapshots, run_scenarios_parallel,
};
pub use scenario::{FreeriderScenario, ScenarioConfig, StreamAudience, StreamSpec};
pub use world::SystemWorld;

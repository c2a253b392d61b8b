//! # LiFTinG — Lightweight Freerider-Tracking in Gossip (reproduction)
//!
//! This crate is the facade of a full reproduction of *LiFTinG: Lightweight
//! Freerider-Tracking in Gossip* (Guerraoui, Huguenin, Kermarrec, Monod,
//! Prusty — MIDDLEWARE 2010). It re-exports the workspace crates so that a
//! single dependency gives access to the whole system:
//!
//! * [`sim`] — deterministic discrete-event engine,
//! * [`net`] — simulated lossy UDP / reliable TCP transport with latency,
//!   bandwidth and traffic accounting,
//! * [`membership`] — uniform and (colluding-)biased peer sampling,
//! * [`gossip`] — the three-phase propose/request/serve dissemination protocol
//!   and the freerider behaviours of Section 4,
//! * [`reputation`] — the Alliatrust-like manager-based score store,
//! * [`core`] — LiFTinG itself: direct verification, direct cross-checking,
//!   a-posteriori audits, entropy checks, blame schedule,
//! * [`analysis`] — the closed forms of Section 6 and statistics utilities,
//! * [`runtime`] — scenario runner gluing everything together.
//!
//! ## Quickstart
//!
//! ```
//! use lifting::prelude::*;
//!
//! // A small system with 25 % freeriders, observed for a few seconds.
//! let mut config = ScenarioConfig::small_test(40, 1).with_planetlab_freeriders(0.25);
//! config.duration = SimDuration::from_secs(8);
//! let outcome = run_scenario(config);
//! let detection = outcome.detection_rate(PAPER_ETA);
//! let false_positives = outcome.false_positive_rate(PAPER_ETA);
//! assert!(detection >= false_positives);
//! ```
//!
//! The experiment harness that regenerates every table and figure of the paper
//! lives in the `lifting-bench` crate (`run_all_experiments` runs them all);
//! the README's "Paper claims" section holds the measured results, checked
//! against the paper's numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lifting_analysis as analysis;
pub use lifting_core as core;
pub use lifting_gossip as gossip;
pub use lifting_membership as membership;
pub use lifting_net as net;
pub use lifting_reputation as reputation;
pub use lifting_runtime as runtime;
pub use lifting_sim as sim;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use lifting_analysis::{BlameModel, FreeridingDegree, ProtocolParams, Summary};
    pub use lifting_core::{Auditor, Blame, LiftingConfig, Verifier, PAPER_ETA};
    pub use lifting_gossip::{Behavior, FreeriderConfig, GossipConfig, GossipNode, StreamSource};
    pub use lifting_membership::{Directory, PartnerSelector, SelectionPolicy, Workload};
    pub use lifting_net::{Capability, LatencyModel, LossModel, Network, NetworkConfig};
    pub use lifting_reputation::{ManagerAssignment, ManagerState};
    pub use lifting_runtime::{
        run_scenario, run_scenario_with_snapshots, AdversaryFamily, FreeriderScenario, RunOutcome,
        Scale, ScenarioConfig, ScenarioRegistry, StreamAudience, StreamSpec,
    };
    pub use lifting_sim::{NodeId, SimDuration, SimTime, StreamId};
}

//! Peer-sampling services for the LiFTinG reproduction.
//!
//! The paper's system model (Section 2) assumes that "nodes can pick uniformly
//! at random a set of nodes in the system", achieved with full membership or a
//! random peer-sampling protocol. This crate provides:
//!
//! * a [`Directory`] of the nodes currently in the system (supporting joins
//!   and the expulsions decided by the reputation managers),
//! * uniform partner selection over that directory (what honest nodes do),
//! * the **biased** selection policy used by freeriders in Section 4.1(iii):
//!   colluders that favour each other with probability `pm`, and
//! * deterministic **disturbance generators** ([`Workload`]):
//!   steady churn with catastrophe and flash-crowd waves, partition waves,
//!   diurnal audience cycles, correlated regional-failure waves and zap-style
//!   channel switching, each expanded once into a pre-drawn [`WorkloadPlan`]
//!   of typed edges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directory;
pub mod selector;
pub mod workload;

pub use directory::Directory;
pub use selector::{PartnerSelector, SelectionPolicy};
pub use workload::{
    Churn, DiurnalCycle, Edge, PartitionWaves, RegionalFailureWaves, Sessions, TimedEdge, Wave,
    Workload, WorkloadPlan, ZapSwitching,
};

pub use lifting_sim::NodeId;

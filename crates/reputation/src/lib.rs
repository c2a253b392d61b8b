//! Alliatrust-like distributed reputation architecture (Section 5.1).
//!
//! Every node is assigned `M` random *managers* that keep a copy of its
//! reputation. Verification procedures emit blame messages to the target's
//! managers; reading a score queries the managers and votes over the returned
//! values with a **minimum** (resilient to message loss and to colluding
//! managers that inflate scores); the same managers decide expulsion.
//!
//! The crate is transport-agnostic: [`ManagerAssignment`] computes who manages
//! whom, [`ManagerState`] is the per-manager score book (blames, per-period
//! compensation, normalized scores, expulsion votes), and [`voting`] holds the
//! minimum vote. `lifting-runtime` moves the blame messages and
//! expulsion decisions over the simulated network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod store;
pub mod voting;

pub use assignment::ManagerAssignment;
pub use store::{ManagerState, ScoreRecord};
pub use voting::aggregate_min;

pub use lifting_sim::NodeId;

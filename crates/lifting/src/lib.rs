//! LiFTinG: Lightweight Freerider-Tracking in Gossip — the paper's
//! contribution (Section 5).
//!
//! LiFTinG layers distributed verifications on top of the three-phase gossip
//! protocol of `lifting-gossip`:
//!
//! * **Direct verification** — a requester checks that requested chunks are
//!   actually served and blames the proposer `f/|R|` per missing chunk
//!   ([`verifier`]).
//! * **Direct cross-checking** — after serving chunks, a node expects an
//!   acknowledgment naming the `f` partners the receiver forwarded them to,
//!   and (with probability `pdcc`) polls those witnesses with confirm
//!   messages; contradictions, undersized partner lists and missing acks are
//!   blamed according to Table 1 ([`verifier`], [`blame`]).
//! * **A-posteriori auditing** — a suspected node uploads its bounded history;
//!   the auditor cross-checks each logged proposal with the alleged receivers
//!   and runs entropy checks on the fanout and fanin multisets against the
//!   threshold `γ`, expelling nodes whose partner selection is biased — the
//!   defence against colluders covering each other up ([`audit`],
//!   [`history`]).
//! * **Blame schedule and scoring** — blame values are comparable across
//!   procedures and are accumulated by the reputation managers of
//!   `lifting-reputation`; wrongful blames caused by message loss are
//!   compensated using the closed forms of `lifting-analysis`.
//!
//! Collusion behaviours (covering up coalition members during confirmations,
//! and the man-in-the-middle attack of Figure 8b) are modelled in
//! [`collusion`] so the experiments can reproduce the paper's adversary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod blame;
mod checks;
pub mod collusion;
pub mod config;
pub mod history;
pub mod messages;
pub mod verifier;

pub use audit::{AuditOracle, AuditReport, AuditVerdict, Auditor};
pub use blame::{Blame, BlameReason};
pub use collusion::CollusionConfig;
pub use config::{LiftingConfig, ACK_TIMEOUT, CONFIRM_TIMEOUT, EXPULSION_QUORUM, SERVE_TIMEOUT};
pub use history::{NodeHistory, PeriodRecord};
pub use messages::{AckPayload, ConfirmPayload, ConfirmResponsePayload, VerificationMessage};
pub use verifier::{ConfirmRetryStats, Verifier, VerifierAction, VerifierTimer};

pub use lifting_sim::NodeId;

//! The layered node protocol stack.
//!
//! The paper structures each LiFTinG node as distinct planes: gossip
//! dissemination (Section 3), direct verification and a-posteriori audits
//! (Section 5), and score/reputation management (Section 5.4). This module
//! mirrors that structure as composable layers:
//!
//! ```text
//!                ┌─────────────────────────┐
//!                │      ManagerState       │  manager role: blames → scores
//!                ├─────────────────────────┤
//!                │    VerificationLayer    │  direct verification, acks,
//!                │                         │  cross-checking, audit answers
//!                ├─────────────────────────┤
//!                │       GossipLayer       │  propose / request / serve
//!                └───────────┬─────────────┘
//!                            │  Downcall (send / timer / blame / next tick)
//!                      lifting-net
//! ```
//!
//! * Wire traffic enters a layer through its `on_inbound`; the gossip layer's
//!   **upcalls** ([`GossipUpcall`], typed notifications) flow to the
//!   verification layer above it, and **downcalls** ([`Downcall`]) flow out of
//!   the [`NodeStack`] to the runtime, which commits them to the network and
//!   the event scheduler. Layers never touch either directly — that is what
//!   keeps them unit-testable sans-IO and the stack's RNG consumption
//!   deterministic.
//! * The reputation plane is no layer of its own: the stack holds the node's
//!   [`lifting_reputation::ManagerState`] and books delivered blames into it.
//! * Misbehaviour is not wired into the layers: an [`Adversary`]
//!   implementation reshapes each plane (dissemination behaviour, partner
//!   selection, verification collusion) and may inject traffic of its own,
//!   so attacks compose across layers instead of being scattered through the
//!   runtime.
//! * A-posteriori audits need cross-node state (the auditor polls witnesses),
//!   so they are coordinated by [`audit::AuditCoordinator`] over the whole
//!   stack array rather than inside a single node's stack.
//!
//! See `ARCHITECTURE.md` at the repository root for the full diagram and the
//! mapping from each layer to the paper section it implements.

pub mod adversary;
pub mod audit;
pub mod gossip;
pub mod stack;
pub mod verification;

pub use adversary::{
    AdaptiveColluder, Adversary, BlameSpammer, Colluder, FeedbackAction, Freerider,
    GradientFreerider, Honest, OnOffFreerider, SelectiveFreerider, Whitewasher,
};
pub use audit::{AuditCoordinator, AuditOutcome, AuditRpcStats};
pub use gossip::{GossipLayer, GossipUpcall};
pub use stack::{NodeStack, StreamPlane};
pub use verification::VerificationLayer;

use lifting_core::{Blame, VerifierTimer};
use lifting_membership::Directory;
use lifting_sim::{NodeId, SimTime, StreamId};
use rand::rngs::SmallRng;

use crate::message::Message;

/// A request a layer hands down the stack for the runtime to execute.
///
/// Downcalls are collected in order: the order in which a stack emits them is
/// the order in which the runtime puts messages on the wire, which keeps the
/// network's RNG consumption — and therefore whole runs — deterministic.
#[derive(Debug)]
pub enum Downcall {
    /// Put a message on the wire (the transport is resolved from the
    /// network's per-category [`lifting_net::TransportPolicy`]).
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        message: Message,
    },
    /// Arm a verifier timer for this node.
    StartTimer {
        /// The stream plane whose verifier owns the timer (tokens are
        /// plane-local; the runtime echoes the stream back on expiry).
        stream: StreamId,
        /// The timer to arm.
        timer: VerifierTimer,
        /// When it expires.
        deadline: SimTime,
    },
    /// Route a blame to the target's reputation managers.
    Blame(Blame),
    /// Schedule this node's next gossip tick, one gossip period from now.
    /// Pushed by the runtime's node-local handler after a tick's own effects
    /// (never by a layer), and payload-free on purpose: `size_of::<Downcall>()`
    /// enters the memory metric every scenario digest hashes.
    NextGossipTick,
}

impl Downcall {
    /// The node a [`Downcall::Send`] is addressed to; `None` for the effects
    /// that stay with the acting node (timers, blames, the next tick).
    pub fn receiver(&self) -> Option<NodeId> {
        match self {
            Downcall::Send { to, .. } => Some(*to),
            _ => None,
        }
    }
}

/// Everything a layer may consult while handling traffic: the node's
/// identity, the simulated clock, the membership view and the node's private
/// RNG stream.
pub struct LayerEnv<'a> {
    /// The node this stack belongs to.
    pub me: NodeId,
    /// The stream plane currently being driven (partner selection and
    /// subscription checks are per-stream; the primary stream in every
    /// single-channel run).
    pub stream: StreamId,
    /// Current simulated time.
    pub now: SimTime,
    /// Membership view (read-only: layers never mutate the directory).
    pub directory: &'a Directory,
    /// The node's private deterministic RNG stream.
    pub rng: &'a mut SmallRng,
    /// True when the verification plane consumes upcalls in this run. Lower
    /// layers may skip *constructing* data-carrying upcalls when false (pure
    /// allocation avoidance — it must never change RNG draws or wire order).
    pub upcalls_consumed: bool,
}

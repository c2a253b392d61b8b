//! The layered node protocol stack.
//!
//! The paper structures each LiFTinG node as distinct planes: gossip
//! dissemination (Section 3), direct verification and a-posteriori audits
//! (Section 5), and score/reputation management (Section 5.4). This module
//! mirrors that structure, one hop from the sans-IO state machines to the
//! effects the runtime commits:
//!
//! ```text
//!                ┌─────────────────────────┐
//!   NodeStack    │      ManagerState       │  manager role: blames → scores
//!                ├─────────────────────────┤
//!   StreamPlane  │        Verifier         │  direct verification, acks,
//!   (per stream) │                         │  cross-checking, audit answers
//!                ├─────────────────────────┤
//!                │ GossipNode + selector   │  propose / request / serve
//!                └───────────┬─────────────┘
//!                            │  Downcall (send / timer / blame / next tick)
//!                      lifting-net
//! ```
//!
//! * [`NodeStack`] routes a tick, a delivered message or a timer expiry to
//!   the [`StreamPlane`] it belongs to. Each plane handler calls the gossip
//!   state machine, then — when LiFTinG is on — the
//!   [`lifting_core::Verifier`] method that step arms, then pushes the gossip
//!   sends: the verifier writes its effects straight into the
//!   `out: &mut Vec<Downcall>` the runtime commits from (through the one
//!   `From<VerifierAction>` impl below), so "verification effects before the
//!   gossip sends of the same event" is the order the code is written in.
//!   Neither state machine touches the network or the scheduler — that is
//!   what keeps them unit-testable sans-IO and the stack's RNG consumption
//!   deterministic.
//! * The reputation plane is per node, not per stream: the stack holds the
//!   node's [`lifting_reputation::ManagerState`], into which the world lands
//!   the blame copies delivered to it ([`crate::inflight`]).
//! * Misbehaviour is not wired into the planes: an [`Adversary`]
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
pub mod stack;

pub use adversary::{
    AdaptiveColluder, Adversary, BlameSpammer, Colluder, FeedbackAction, Freerider,
    GradientFreerider, Honest, OnOffFreerider, SelectiveFreerider, Whitewasher,
};
pub use audit::{AuditCoordinator, AuditOutcome, AuditRpcStats};
pub use stack::{NodeStack, StreamPlane};

use lifting_core::{Blame, VerifierAction, VerifierTimer};
use lifting_sim::{NodeId, SimTime, StreamId};

use crate::message::Message;

/// An effect a node stack hands the runtime to execute.
///
/// Downcalls are collected in order: the order in which a stack emits them is
/// the order in which the runtime puts messages on the wire, which keeps the
/// network's RNG consumption — and therefore whole runs — deterministic.
#[derive(Debug)]
pub enum Downcall {
    /// Put a message on the wire (the transport is the message category's,
    /// [`lifting_net::TrafficCategory::transport`]).
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
    /// (never by a stack).
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

/// The runtime's only knowledge of the verifier's effect type: the
/// [`lifting_core::Verifier`] handlers are generic over
/// `T: From<VerifierAction>` and write each effect once, as the [`Downcall`]
/// the world commits.
impl From<VerifierAction> for Downcall {
    fn from(action: VerifierAction) -> Self {
        match action {
            VerifierAction::Send { to, message } => Downcall::Send {
                to,
                message: Message::Verification(message),
            },
            VerifierAction::Blame(blame) => Downcall::Blame(blame),
            VerifierAction::StartTimer {
                stream,
                timer,
                deadline,
            } => Downcall::StartTimer {
                stream,
                timer,
                deadline,
            },
        }
    }
}

//! Events circulating in the simulated system.

use lifting_core::{VerificationMessage, VerifierTimer};
use lifting_gossip::GossipMessage;
use lifting_net::TrafficCategory;
use lifting_sim::{NodeId, StreamId};

/// A message travelling between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A three-phase gossip message.
    Gossip(GossipMessage),
    /// A LiFTinG verification message.
    Verification(VerificationMessage),
}

impl Message {
    /// Application-level payload size of the message.
    pub fn wire_size(&self) -> u64 {
        match self {
            Message::Gossip(m) => m.wire_size(),
            Message::Verification(m) => m.wire_size(),
        }
    }

    /// The stream plane this message is addressed to, when any: derived from
    /// the chunk identities the payload carries (see
    /// [`GossipMessage::stream`] and [`VerificationMessage::stream`]), so no
    /// wire bytes are spent on it. `None` for traffic addressed to the
    /// stream-agnostic reputation plane (blames) and for audit transfers.
    pub fn stream(&self) -> Option<StreamId> {
        match self {
            Message::Gossip(m) => m.stream(),
            Message::Verification(m) => m.stream(),
        }
    }

    /// The traffic category this message is accounted under.
    pub fn category(&self) -> TrafficCategory {
        match self {
            Message::Gossip(GossipMessage::Serve(_)) => TrafficCategory::StreamData,
            Message::Gossip(_) => TrafficCategory::GossipControl,
            Message::Verification(VerificationMessage::Blame(_)) => TrafficCategory::Blame,
            Message::Verification(VerificationMessage::HistoryRequest)
            | Message::Verification(VerificationMessage::HistoryResponse(_)) => {
                TrafficCategory::Audit
            }
            Message::Verification(_) => TrafficCategory::Verification,
        }
    }
}

/// A simulation event.
///
/// Per-node recurring events (gossip ticks, audit ticks, verifier timers)
/// carry the node's **session epoch**: churn tears a node's stack down and
/// rebuilds it on rejoin, bumping the epoch, so events scheduled for an
/// earlier session are dropped instead of double-driving the rebuilt stack
/// (or colliding with the fresh verifier's reissued timer tokens). In a
/// static population every epoch is 0 and the field is inert.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The broadcast source emits the next chunk of one stream.
    SourceEmit {
        /// The stream whose emission is due.
        stream: StreamId,
    },
    /// A node runs its propose phase.
    GossipTick {
        /// The node whose gossip period elapsed.
        node: NodeId,
        /// The node's session epoch when the tick was scheduled.
        epoch: u32,
    },
    /// A message reaches its destination.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message.
        message: Message,
    },
    /// A verifier timer expires.
    Timer {
        /// The node owning the timer.
        node: NodeId,
        /// The stream plane whose verifier armed the timer (timer tokens are
        /// plane-local, so the stream must ride along to route the expiry).
        stream: StreamId,
        /// The timer.
        timer: VerifierTimer,
        /// The node's session epoch when the timer was armed.
        epoch: u32,
    },
    /// End of a global gossip period: managers apply compensation and check
    /// expulsion thresholds.
    PeriodEnd,
    /// A node initiates an a-posteriori audit of a random peer.
    AuditTick {
        /// The auditing node.
        auditor: NodeId,
        /// The auditor's session epoch when the tick was scheduled.
        epoch: u32,
    },
    /// A membership transition: the node departs (`up = false`) or
    /// (re)joins (`up = true`). Scheduled from the `Depart` / `Rejoin` edges
    /// of the scenario's workload plan, from steady churn's live
    /// session/offline draws, and by whitewashers.
    Churn {
        /// The node changing membership state.
        node: NodeId,
        /// True for a join/rejoin, false for a departure.
        up: bool,
        /// For a session-end departure: the node's session epoch when the
        /// departure was drawn, so a departure outlived by a wave-induced
        /// depart/rejoin cycle is dropped instead of spawning a second churn
        /// chain. Wave transitions and rejoins use [`CHURN_EPOCH_ANY`]
        /// (joins are idempotent, waves apply to whatever session is live).
        epoch: u32,
    },
    /// A channel switch: the node leaves stream `from` and joins stream `to`
    /// (zap-style channel surfing). Scheduled from a `Switch` edge of the
    /// scenario's workload plan.
    Resubscribe {
        /// The switching viewer.
        node: NodeId,
        /// The channel being left.
        from: StreamId,
        /// The channel being joined.
        to: StreamId,
    },
    /// A partition transition: wave `wave` of the scenario's workload plan
    /// begins (`begin = true`, its members become partitioned) or heals
    /// (`begin = false`). Scheduled from a `Partition` edge. Nodes hit by
    /// several overlapping waves stay partitioned until the last one heals.
    Fault {
        /// Index of the wave in the plan's `waves`.
        wave: u32,
        /// True when the wave begins, false when it heals.
        begin: bool,
    },
}

/// Epoch wildcard for [`Event::Churn`]: the transition applies regardless of
/// the node's current session epoch.
pub const CHURN_EPOCH_ANY: u32 = u32::MAX;

impl Event {
    /// A rejoin of `node`, applying to whatever session is live.
    pub fn rejoin(node: NodeId) -> Self {
        Event::Churn {
            node,
            up: true,
            epoch: CHURN_EPOCH_ANY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_core::Blame;
    use lifting_gossip::{Chunk, ChunkId, ProposePayload, ServePayload};
    use lifting_sim::SimTime;

    #[test]
    fn messages_are_categorized_for_overhead_accounting() {
        let serve = Message::Gossip(GossipMessage::Serve(ServePayload {
            chunk: Chunk::new(ChunkId::primary(1), 1_000, SimTime::ZERO),
        }));
        assert_eq!(serve.category(), TrafficCategory::StreamData);
        let propose = Message::Gossip(GossipMessage::Propose(ProposePayload {
            period: 0,
            chunks: vec![ChunkId::primary(1)].into(),
        }));
        assert_eq!(propose.category(), TrafficCategory::GossipControl);
        let blame = Message::Verification(VerificationMessage::Blame(Blame::new(
            NodeId::new(1),
            1.0,
            lifting_core::BlameReason::PartialServe,
        )));
        assert_eq!(blame.category(), TrafficCategory::Blame);
        assert_eq!(
            Message::Verification(VerificationMessage::HistoryRequest).category(),
            TrafficCategory::Audit
        );
        assert!(serve.wire_size() > propose.wire_size());
    }
}

#[cfg(test)]
mod size_regression {
    /// Every pending event is one entry of the scheduler's timing wheel,
    /// copied into a block on each push and once per level it cascades
    /// through, then sorted and popped from the front — and the wheel's
    /// footprint is its pending entries times their size — so [`Event`] must
    /// stay lean. The payload-heavy verification
    /// variants are boxed in `lifting-core` to keep it that way; this test
    /// pins the budget so a future fat variant is caught immediately.
    #[test]
    fn event_fits_the_heap_entry_budget() {
        assert!(
            std::mem::size_of::<super::Event>() <= 48,
            "Event grew to {} bytes; box the oversized variant",
            std::mem::size_of::<super::Event>()
        );
        assert!(
            std::mem::size_of::<super::Message>() <= 40,
            "Message grew to {} bytes; box the oversized variant",
            std::mem::size_of::<super::Message>()
        );
    }
}

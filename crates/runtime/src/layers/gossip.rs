//! The dissemination plane: three-phase gossip plus partner selection.

use lifting_gossip::{
    Chunk, ChunkId, GossipMessage, GossipNode, ProposePayload, ProposeRound, RequestPayload,
    ServePayload,
};
use lifting_membership::PartnerSelector;
use lifting_sim::{NodeId, SimTime};

use super::{Downcall, LayerEnv};
use crate::message::Message;

/// Typed upcalls the gossip layer emits to the verification layer above it.
///
/// These are exactly the observation points LiFTinG instruments (Section 5):
/// the verification layer records history from them and arms its direct
/// verification / cross-checking timers.
#[derive(Debug)]
pub enum GossipUpcall {
    /// A new gossip period began (the node's period counter after the tick).
    PeriodBegan(u64),
    /// The node ran its propose phase; the round lists partners, chunks and
    /// the chunks' sources (used for acknowledgments).
    RoundStarted(ProposeRound),
    /// A proposal from `from` was received (recorded in the fanin history).
    ProposeReceived {
        /// The proposer.
        from: NodeId,
        /// Proposed chunk ids (shared with the wire payload and, once
        /// recorded, with the verification history — no copy on this path).
        chunks: std::sync::Arc<[ChunkId]>,
    },
    /// A request for `chunks` was sent to `to` (arms the serve check).
    RequestSent {
        /// The proposer the request goes to.
        to: NodeId,
        /// Requested chunk ids (shared with the wire payload).
        chunks: std::sync::Arc<[ChunkId]>,
    },
    /// This node served `chunks` to `to` (arms the ack check).
    ChunksServed {
        /// The requester.
        to: NodeId,
        /// Served chunk ids.
        chunks: Vec<ChunkId>,
    },
    /// A serve of `chunk` from `from` arrived (satisfies pending checks).
    ServeReceived {
        /// The server.
        from: NodeId,
        /// The chunk.
        chunk: ChunkId,
    },
}

/// The dissemination layer of one node: the sans-IO gossip state machine and
/// the partner-selection policy the adversary configured.
#[derive(Debug)]
pub struct GossipLayer {
    /// The three-phase gossip protocol state.
    pub node: GossipNode,
    /// The partner-selection policy (uniform for honest nodes, biased for
    /// colluders).
    pub selector: PartnerSelector,
}

impl GossipLayer {
    /// Creates the layer.
    pub fn new(node: GossipNode, selector: PartnerSelector) -> Self {
        GossipLayer { node, selector }
    }

    /// Runs one propose phase: picks the partners, starts the round, queues
    /// the propose messages, and reports what happened upward.
    ///
    /// Note the emission order: the upcalls describe the round *before* the
    /// propose sends are queued, but the stack appends the resulting
    /// verification downcalls ahead of `sends` — acknowledgments go on the
    /// wire before the proposals, exactly as the monolithic runtime did.
    pub fn on_tick(
        &mut self,
        env: &mut LayerEnv<'_>,
        sends: &mut Vec<Downcall>,
        upcalls: &mut Vec<GossipUpcall>,
    ) {
        let fanout = self.node.desired_fanout(env.rng);
        let partners = self
            .selector
            .select(env.me, fanout, env.directory, env.stream, env.rng);
        let round = self.node.begin_propose_round(env.now, partners, env.rng);
        if env.upcalls_consumed {
            upcalls.push(GossipUpcall::PeriodBegan(self.node.period()));
        }
        if let Some(round) = round {
            let payload = ProposePayload {
                period: round.period,
                chunks: round.chunks.clone(),
            };
            for partner in &round.partners {
                sends.push(Downcall::Send {
                    to: *partner,
                    message: Message::Gossip(GossipMessage::Propose(payload.clone())),
                });
            }
            if env.upcalls_consumed {
                upcalls.push(GossipUpcall::RoundStarted(round));
            }
        }
    }

    /// The chunks this node would serve `from` for `requested` (phase 3),
    /// applying the adversary-configured partial-serve behaviour.
    fn serve(&mut self, env: &mut LayerEnv<'_>, from: NodeId, requested: &[ChunkId]) -> Vec<Chunk> {
        self.node.on_request(from, requested, env.rng)
    }

    /// Stores a chunk the node itself produced (the stream source calls this).
    pub fn inject_source_chunk(&mut self, chunk: Chunk, now: SimTime) {
        self.node.inject_source_chunk(chunk, now);
    }

    /// Handles one gossip message from `from`, pushing the answering sends
    /// into `out` and the observations the verification layer instruments
    /// into `upcalls` (both caller-owned scratch, recycled across events).
    pub fn on_inbound(
        &mut self,
        env: &mut LayerEnv<'_>,
        from: NodeId,
        inbound: GossipMessage,
        out: &mut Vec<Downcall>,
        upcalls: &mut Vec<GossipUpcall>,
    ) {
        // When the verification plane is disabled the upcalls would be
        // discarded unheard; skip the clones they carry (this never changes
        // RNG draws or wire order — only allocations).
        let taps = env.upcalls_consumed;
        match inbound {
            GossipMessage::Propose(p) => {
                let wanted = self.node.on_propose(from, &p.chunks, env.now);
                if taps {
                    // The payload is owned here, so the upcall takes the
                    // chunk list by move — no per-propose clone.
                    upcalls.push(GossipUpcall::ProposeReceived {
                        from,
                        chunks: p.chunks,
                    });
                }
                if !wanted.is_empty() {
                    // One shared list serves the wire payload, the serve
                    // check and the upcall (refcounts, not copies).
                    let wanted: std::sync::Arc<[ChunkId]> = wanted.into();
                    if taps {
                        upcalls.push(GossipUpcall::RequestSent {
                            to: from,
                            chunks: wanted.clone(),
                        });
                    }
                    out.push(Downcall::Send {
                        to: from,
                        message: Message::Gossip(GossipMessage::Request(RequestPayload {
                            chunks: wanted,
                        })),
                    });
                }
            }
            GossipMessage::Request(r) => {
                let served = self.serve(env, from, &r.chunks);
                if served.is_empty() {
                    return;
                }
                if taps {
                    upcalls.push(GossipUpcall::ChunksServed {
                        to: from,
                        chunks: served.iter().map(|c| c.id).collect(),
                    });
                }
                for chunk in served {
                    out.push(Downcall::Send {
                        to: from,
                        message: Message::Gossip(GossipMessage::Serve(ServePayload { chunk })),
                    });
                }
            }
            GossipMessage::Serve(s) => {
                self.node.on_serve(from, s.chunk, env.now);
                if taps {
                    upcalls.push(GossipUpcall::ServeReceived {
                        from,
                        chunk: s.chunk.id,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_gossip::{Behavior, GossipConfig};
    use lifting_membership::Directory;
    use lifting_sim::derive_rng;

    fn env<'a>(
        me: u32,
        directory: &'a Directory,
        rng: &'a mut rand::rngs::SmallRng,
    ) -> LayerEnv<'a> {
        LayerEnv {
            me: NodeId::new(me),
            stream: lifting_sim::StreamId::PRIMARY,
            now: SimTime::ZERO,
            directory,
            rng,
            upcalls_consumed: true,
        }
    }

    #[test]
    fn tick_emits_period_and_round_with_propose_sends() {
        let directory = Directory::new(10);
        let mut rng = derive_rng(1, 0);
        let mut layer = GossipLayer::new(
            GossipNode::new(NodeId::new(0), GossipConfig::planetlab(), Behavior::Honest),
            PartnerSelector::uniform(),
        );
        layer.inject_source_chunk(
            Chunk::new(ChunkId::primary(1), 1_000, SimTime::ZERO),
            SimTime::ZERO,
        );
        let mut sends = Vec::new();
        let mut upcalls = Vec::new();
        layer.on_tick(&mut env(0, &directory, &mut rng), &mut sends, &mut upcalls);
        assert!(matches!(upcalls[0], GossipUpcall::PeriodBegan(1)));
        assert!(matches!(upcalls[1], GossipUpcall::RoundStarted(_)));
        assert_eq!(sends.len(), 7, "one propose per partner at fanout 7");
    }

    #[test]
    fn propose_inbound_produces_request_send_and_upcalls() {
        let directory = Directory::new(10);
        let mut rng = derive_rng(2, 0);
        let mut layer = GossipLayer::new(
            GossipNode::new(NodeId::new(1), GossipConfig::planetlab(), Behavior::Honest),
            PartnerSelector::uniform(),
        );
        let mut out = Vec::new();
        let mut upcalls = Vec::new();
        layer.on_inbound(
            &mut env(1, &directory, &mut rng),
            NodeId::new(0),
            GossipMessage::Propose(ProposePayload {
                period: 0,
                chunks: vec![ChunkId::primary(9)].into(),
            }),
            &mut out,
            &mut upcalls,
        );
        assert_eq!(upcalls.len(), 2, "propose-received then request-sent");
        assert!(matches!(
            &out[..],
            [Downcall::Send {
                message: Message::Gossip(GossipMessage::Request(_)),
                ..
            }]
        ));
    }

    #[test]
    fn disabled_verification_plane_skips_upcall_construction() {
        let directory = Directory::new(10);
        let mut rng = derive_rng(3, 0);
        let mut layer = GossipLayer::new(
            GossipNode::new(NodeId::new(1), GossipConfig::planetlab(), Behavior::Honest),
            PartnerSelector::uniform(),
        );
        let mut out = Vec::new();
        let mut upcalls = Vec::new();
        let mut env = env(1, &directory, &mut rng);
        env.upcalls_consumed = false;
        layer.on_inbound(
            &mut env,
            NodeId::new(0),
            GossipMessage::Propose(ProposePayload {
                period: 0,
                chunks: vec![ChunkId::primary(9)].into(),
            }),
            &mut out,
            &mut upcalls,
        );
        assert!(upcalls.is_empty(), "no verification plane, no upcalls");
        assert_eq!(out.len(), 1, "the request still goes on the wire");
    }
}

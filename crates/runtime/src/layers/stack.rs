//! The per-node protocol stack: routes wire traffic and upcalls between the
//! per-stream gossip/verification planes and the shared reputation plane.
//!
//! A node participates in every stream of the scenario through a dedicated
//! [`StreamPlane`] — its own chunk store, playout buffer, partner selector,
//! verification history and timers — while a **single** [`ManagerState`]
//! books blames from all planes into one score per node. That asymmetry is
//! the point of the design: data planes are per-channel, accountability is
//! per-node, so misbehaving on one channel costs access to all of them.

use lifting_core::{LiftingConfig, VerificationMessage, Verifier, VerifierTimer};
use lifting_gossip::{GossipConfig, GossipNode};
use lifting_membership::Directory;
use lifting_reputation::ManagerState;
use lifting_sim::{NodeId, SimTime, StreamId};
use rand::rngs::SmallRng;

use super::{Adversary, Downcall, GossipLayer, GossipUpcall, LayerEnv, VerificationLayer};
use crate::message::Message;

/// One stream's data plane on one node: dissemination plus verification.
#[derive(Debug)]
pub struct StreamPlane {
    /// The stream this plane carries.
    pub stream: StreamId,
    /// The dissemination plane.
    pub gossip: GossipLayer,
    /// The verification plane (direct verification + cross-checking).
    pub verification: VerificationLayer,
}

/// One node of the simulated system: a protocol plane per stream, the shared
/// reputation plane, the adversary shaping them, and the node's private RNG
/// stream.
#[derive(Debug)]
pub struct NodeStack {
    /// Per-stream planes, indexed by [`StreamId`].
    pub planes: Vec<StreamPlane>,
    /// The reputation plane (this node's manager role, Section 5.4): the
    /// score records of the nodes it manages — one book per node, shared by
    /// every stream: blames aggregate across channels.
    pub reputation: ManagerState,
    /// The node's strategy; configured the planes and keeps reshaping them.
    pub adversary: Box<dyn Adversary>,
    /// The node's private RNG stream (shared by its planes; single-stream
    /// runs therefore consume exactly the draws they always did).
    pub rng: SmallRng,
    /// Ground truth for the metrics (from the adversary, cached).
    pub is_freerider: bool,
    /// Recycled scratch for the gossip layers' sends (allocation-free path).
    scratch_sends: Vec<Downcall>,
    /// Recycled scratch for the gossip layers' upcalls.
    scratch_upcalls: Vec<GossipUpcall>,
}

impl NodeStack {
    /// Builds a single-stream node stack: the adversary configures every
    /// plane. Identical to [`with_streams`](NodeStack::with_streams) with one
    /// stream.
    pub fn new(
        id: NodeId,
        gossip_config: GossipConfig,
        lifting_config: LiftingConfig,
        lifting_enabled: bool,
        adversary: Box<dyn Adversary>,
        rng: SmallRng,
    ) -> Self {
        NodeStack::with_streams(
            id,
            gossip_config,
            lifting_config,
            lifting_enabled,
            adversary,
            rng,
            1,
        )
    }

    /// Builds a node stack carrying `streams` concurrent channels. The
    /// adversary configures each plane (possibly differently per stream —
    /// see [`Adversary::dissemination_plane_for`]); the reputation book is
    /// one and shared.
    #[allow(clippy::too_many_arguments)]
    pub fn with_streams(
        id: NodeId,
        gossip_config: GossipConfig,
        lifting_config: LiftingConfig,
        lifting_enabled: bool,
        adversary: Box<dyn Adversary>,
        rng: SmallRng,
        streams: usize,
    ) -> Self {
        let fanout = gossip_config.fanout;
        let is_freerider = adversary.is_freerider();
        let planes = (0..streams.max(1))
            .map(|s| {
                let stream = StreamId::new(s as u16);
                let gossip = GossipLayer::new(
                    GossipNode::for_stream(
                        id,
                        stream,
                        gossip_config,
                        adversary.dissemination_plane_for(stream),
                    ),
                    adversary.membership_plane_for(stream),
                );
                let verifier =
                    Verifier::new(id, fanout, lifting_config, adversary.verification_plane())
                        .for_stream(stream);
                StreamPlane {
                    stream,
                    gossip,
                    verification: VerificationLayer::new(verifier, lifting_enabled),
                }
            })
            .collect();
        NodeStack {
            planes,
            reputation: ManagerState::new(),
            adversary,
            rng,
            is_freerider,
            scratch_sends: Vec::new(),
            scratch_upcalls: Vec::new(),
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.planes[0].gossip.node.id()
    }

    /// The plane carrying `stream`.
    pub fn plane(&self, stream: StreamId) -> &StreamPlane {
        &self.planes[stream.index()]
    }

    /// Mutable access to the plane carrying `stream`.
    pub fn plane_mut(&mut self, stream: StreamId) -> &mut StreamPlane {
        &mut self.planes[stream.index()]
    }

    /// The primary stream's plane (the only one in single-channel runs).
    pub fn primary(&self) -> &StreamPlane {
        &self.planes[0]
    }

    /// Outstanding verification checks across every plane (tests, leak
    /// detection).
    pub fn pending_checks(&self) -> usize {
        self.planes
            .iter()
            .map(|p| p.verification.verifier.pending_checks())
            .sum()
    }

    /// Blames emitted across every plane.
    pub fn blames_emitted(&self) -> u64 {
        self.planes
            .iter()
            .map(|p| p.verification.verifier.blames_emitted())
            .sum()
    }

    /// Heap bytes held by this node's whole protocol state: every stream
    /// plane's gossip and verification structures plus the shared manager
    /// book. A deterministic capacity walk — identical across worker and
    /// shard counts — feeding the `memory_per_node_bytes` metric.
    pub fn estimated_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let planes: usize = self
            .planes
            .iter()
            .map(|p| {
                p.gossip.node.estimated_heap_bytes()
                    + p.verification.verifier.estimated_heap_bytes()
            })
            .sum();
        planes
            + self.planes.capacity() * size_of::<StreamPlane>()
            + self.reputation.estimated_heap_bytes()
            + self.scratch_sends.capacity() * size_of::<Downcall>()
            + self.scratch_upcalls.capacity() * size_of::<GossipUpcall>()
    }

    /// Hardened-confirm retry counters summed across every plane.
    pub fn confirm_retry_stats(&self) -> lifting_core::ConfirmRetryStats {
        let mut total = lifting_core::ConfirmRetryStats::default();
        for plane in &self.planes {
            let stats = plane.verification.verifier.confirm_retry_stats();
            total.timeouts += stats.timeouts;
            total.resends += stats.resends;
            total.aborts += stats.aborts;
        }
        total
    }

    /// Runs one gossip tick: every subscribed plane runs its propose phase in
    /// stream order — the adversary may reshape each dissemination plane
    /// first, the gossip layer runs the phase, its upcalls drive the plane's
    /// verification layer — and fabricated blames (if the adversary spams the
    /// reputation plane) are appended once, last.
    ///
    /// Downcall order within a plane mirrors the pre-multistream runtime
    /// exactly: verification traffic (acks, timers) first, then the propose
    /// sends, then (after all planes) adversarial extras.
    pub fn on_gossip_tick(
        &mut self,
        me: NodeId,
        now: SimTime,
        directory: &Directory,
        out: &mut Vec<Downcall>,
    ) {
        let mut gossip_sends = std::mem::take(&mut self.scratch_sends);
        let mut upcalls = std::mem::take(&mut self.scratch_upcalls);
        for plane in &mut self.planes {
            if !directory.is_subscribed(me, plane.stream) {
                continue; // not this node's channel
            }
            let mut env = LayerEnv {
                me,
                stream: plane.stream,
                now,
                directory,
                rng: &mut self.rng,
                upcalls_consumed: plane.verification.is_enabled(),
            };
            self.adversary.on_gossip_tick(
                plane.stream,
                plane.gossip.node.period(),
                &mut plane.gossip.node,
            );
            self.adversary.retune_membership(
                plane.stream,
                plane.gossip.node.period(),
                &mut plane.gossip.selector,
            );
            plane
                .gossip
                .on_tick(&mut env, &mut gossip_sends, &mut upcalls);
            for upcall in upcalls.drain(..) {
                plane.verification.on_gossip_upcall(&mut env, upcall, out);
            }
            out.append(&mut gossip_sends);
        }
        let mut env = LayerEnv {
            me,
            stream: StreamId::PRIMARY,
            now,
            directory,
            rng: &mut self.rng,
            upcalls_consumed: true,
        };
        for blame in self.adversary.fabricate_blames(&mut env) {
            out.push(Downcall::Blame(blame));
        }
        self.scratch_sends = gossip_sends;
        self.scratch_upcalls = upcalls;
    }

    /// Routes one delivered message into the stack: gossip and verification
    /// traffic goes to the plane of the stream it belongs to (derived from
    /// the chunk identities it carries), blames to the shared reputation
    /// plane.
    pub fn on_message(
        &mut self,
        me: NodeId,
        from: NodeId,
        message: Message,
        now: SimTime,
        directory: &Directory,
        out: &mut Vec<Downcall>,
    ) {
        let mut gossip_sends = std::mem::take(&mut self.scratch_sends);
        let mut upcalls = std::mem::take(&mut self.scratch_upcalls);
        match message {
            Message::Gossip(gossip_message) => {
                let stream = gossip_message.stream().unwrap_or(StreamId::PRIMARY);
                let plane = &mut self.planes[stream.index()];
                let mut env = LayerEnv {
                    me,
                    stream,
                    now,
                    directory,
                    rng: &mut self.rng,
                    upcalls_consumed: plane.verification.is_enabled(),
                };
                plane.gossip.on_inbound(
                    &mut env,
                    from,
                    gossip_message,
                    &mut gossip_sends,
                    &mut upcalls,
                );
                for upcall in upcalls.drain(..) {
                    plane.verification.on_gossip_upcall(&mut env, upcall, out);
                }
                out.append(&mut gossip_sends);
            }
            Message::Verification(VerificationMessage::Blame(blame)) => {
                self.reputation.apply_blame(blame.target, blame.value);
            }
            Message::Verification(verification_message) => {
                let stream = verification_message.stream().unwrap_or(StreamId::PRIMARY);
                let plane = &mut self.planes[stream.index()];
                let mut env = LayerEnv {
                    me,
                    stream,
                    now,
                    directory,
                    rng: &mut self.rng,
                    upcalls_consumed: plane.verification.is_enabled(),
                };
                plane
                    .verification
                    .on_inbound(&mut env, from, verification_message, out);
            }
        }
        self.scratch_sends = gossip_sends;
        self.scratch_upcalls = upcalls;
    }

    /// A verifier timer owned by one of this node's planes expired.
    pub fn on_timer(
        &mut self,
        me: NodeId,
        stream: StreamId,
        timer: VerifierTimer,
        now: SimTime,
        directory: &Directory,
        out: &mut Vec<Downcall>,
    ) {
        let plane = &mut self.planes[stream.index()];
        let mut env = LayerEnv {
            me,
            stream,
            now,
            directory,
            rng: &mut self.rng,
            upcalls_consumed: plane.verification.is_enabled(),
        };
        plane.verification.on_timer(&mut env, timer, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Freerider, Honest, SelectiveFreerider};
    use lifting_core::CollusionConfig;
    use lifting_gossip::FreeriderConfig;
    use lifting_sim::derive_rng;

    fn stack(id: u32, adversary: Box<dyn Adversary>) -> NodeStack {
        NodeStack::new(
            NodeId::new(id),
            GossipConfig::planetlab(),
            LiftingConfig::planetlab(),
            true,
            adversary,
            derive_rng(1, id as u64),
        )
    }

    #[test]
    fn stack_wires_every_layer_with_the_same_identity() {
        let s = stack(4, Box::new(Honest));
        assert_eq!(s.id(), NodeId::new(4));
        assert_eq!(s.primary().gossip.node.id(), NodeId::new(4));
        assert_eq!(
            s.primary().verification.verifier.id(),
            s.primary().gossip.node.id()
        );
        assert!(!s.is_freerider);
        assert_eq!(s.planes.len(), 1);
    }

    #[test]
    fn multistream_stack_keys_every_plane_by_its_stream() {
        let s = NodeStack::with_streams(
            NodeId::new(2),
            GossipConfig::planetlab(),
            LiftingConfig::planetlab(),
            true,
            Box::new(Honest),
            derive_rng(1, 2),
            3,
        );
        assert_eq!(s.planes.len(), 3);
        for (i, plane) in s.planes.iter().enumerate() {
            let stream = StreamId::new(i as u16);
            assert_eq!(plane.stream, stream);
            assert_eq!(plane.gossip.node.stream(), stream);
            assert_eq!(plane.verification.verifier.stream(), stream);
        }
        assert_eq!(s.plane(StreamId::new(2)).stream, StreamId::new(2));
    }

    #[test]
    fn selective_freerider_configures_planes_differently() {
        let s = NodeStack::with_streams(
            NodeId::new(3),
            GossipConfig::planetlab(),
            LiftingConfig::planetlab(),
            true,
            Box::new(SelectiveFreerider { silent_mask: 0b10 }),
            derive_rng(1, 3),
            2,
        );
        assert!(s.is_freerider);
        assert!(!s
            .plane(StreamId::new(0))
            .gossip
            .node
            .behavior()
            .is_freerider());
        assert!(s
            .plane(StreamId::new(1))
            .gossip
            .node
            .behavior()
            .is_freerider());
    }

    #[test]
    fn freerider_adversary_shapes_the_dissemination_plane() {
        let s = stack(
            2,
            Box::new(Freerider {
                degree: FreeriderConfig::planetlab(),
            }),
        );
        assert!(s.is_freerider);
        assert!(s.primary().gossip.node.behavior().is_freerider());
        // Verification plane stays honest for an independent freerider.
        let collusion: &CollusionConfig = &CollusionConfig::none();
        assert_eq!(
            s.primary().verification.verifier.config().managers,
            LiftingConfig::planetlab().managers
        );
        assert!(!collusion.covers_up());
    }

    #[test]
    fn blames_lower_the_managed_score_and_trigger_votes() {
        use lifting_core::{Blame, BlameReason};
        let mut s = stack(1, Box::new(Honest));
        let target = NodeId::new(3);
        s.reputation.register(target);
        let mut out = Vec::new();
        s.on_message(
            NodeId::new(1),
            NodeId::new(2),
            Message::Verification(VerificationMessage::Blame(Blame::new(
                target,
                30.0,
                BlameReason::MissingAck,
            ))),
            SimTime::ZERO,
            &Directory::new(4),
            &mut out,
        );
        assert!(out.is_empty(), "booking a blame puts nothing on the wire");
        s.reputation.end_period(0.0);
        assert!(s.reputation.normalized_score(target).unwrap() < -9.75);
        assert_eq!(s.reputation.expulsion_votes(-9.75, 1), vec![target]);
        // A second sweep does not re-vote.
        assert!(s.reputation.expulsion_votes(-9.75, 1).is_empty());
    }

    #[test]
    fn gossip_tick_on_empty_node_still_begins_a_period() {
        let mut s = stack(1, Box::new(Honest));
        let directory = Directory::new(8);
        let mut out = Vec::new();
        s.on_gossip_tick(NodeId::new(1), SimTime::ZERO, &directory, &mut out);
        assert!(out.is_empty(), "nothing to propose, nothing on the wire");
    }
}

//! The per-node protocol stack: routes ticks, wire traffic and timer expiries
//! to the per-stream gossip/verification planes and the shared reputation
//! plane.
//!
//! A node participates in every stream of the scenario through a dedicated
//! [`StreamPlane`] — its own chunk store, playout buffer, partner selector,
//! verification history and timers — while a **single** [`ManagerState`]
//! books blames from all planes into one score per node. That asymmetry is
//! the point of the design: data planes are per-channel, accountability is
//! per-node, so misbehaving on one channel costs access to all of them.

use std::sync::Arc;

use lifting_core::{
    ConfirmResponsePayload, LiftingConfig, VerificationMessage, Verifier, VerifierTimer,
};
use lifting_gossip::{
    ChunkId, GossipConfig, GossipMessage, GossipNode, ProposePayload, RequestPayload, ServePayload,
    StreamClock,
};
use lifting_membership::{Directory, PartnerSelector};
use lifting_reputation::ManagerState;
use lifting_sim::{NodeId, SimTime, StreamId};
use rand::rngs::SmallRng;

use super::{Adversary, Downcall};
use crate::message::Message;

/// One stream's data plane on one node: the sans-IO dissemination and
/// verification state machines and the one place that wires them.
///
/// Every handler calls the gossip step, then — when LiFTinG is on — the
/// verifier method that step arms (Section 5: request sent ⇒ expect the
/// serve, chunks served ⇒ expect the ack, ack received ⇒ poll the witnesses),
/// then pushes the gossip sends, so verification effects precede the gossip
/// sends of the same event on the wire. With LiFTinG off nothing is built for
/// the verifier, reproducing the paper's "gossip without LiFTinG" baseline of
/// Figure 1.
#[derive(Debug)]
pub struct StreamPlane {
    /// The stream this plane carries.
    pub stream: StreamId,
    /// The three-phase gossip protocol state.
    pub gossip: GossipNode,
    /// The partner-selection policy (uniform for honest nodes, biased for
    /// colluders).
    pub selector: PartnerSelector,
    /// The LiFTinG verification engine (direct verification +
    /// cross-checking).
    pub verifier: Verifier,
    /// The scenario's `lifting_enabled`.
    lifting_on: bool,
}

fn send_gossip(to: NodeId, message: GossipMessage) -> Downcall {
    Downcall::Send {
        to,
        message: Message::Gossip(message),
    }
}

impl StreamPlane {
    /// Runs one propose phase: picks the partners, starts the round, owes the
    /// acknowledgments for the forwarded chunks and proposes to each partner.
    fn on_tick(
        &mut self,
        me: NodeId,
        now: SimTime,
        directory: &Directory,
        rng: &mut SmallRng,
        out: &mut Vec<Downcall>,
    ) {
        let fanout = self.gossip.desired_fanout(rng);
        let partners = self
            .selector
            .select(me, fanout, directory, self.stream, rng);
        let round = self.gossip.begin_propose_round(now, partners, rng);
        if self.lifting_on {
            self.verifier.begin_period(self.gossip.period());
        }
        let Some(round) = round else { return };
        if self.lifting_on {
            self.verifier.on_propose_round_into(&round, now, out);
        }
        let payload = ProposePayload {
            period: round.period,
            chunks: round.chunks,
        };
        let propose = |to: &NodeId| send_gossip(*to, GossipMessage::Propose(payload.clone()));
        out.extend(round.partners.iter().map(propose));
    }

    /// Handles one gossip message from `from`.
    fn on_gossip(
        &mut self,
        from: NodeId,
        inbound: GossipMessage,
        now: SimTime,
        rng: &mut SmallRng,
        out: &mut Vec<Downcall>,
    ) {
        let lifting_on = self.lifting_on;
        match inbound {
            GossipMessage::Propose(p) => {
                let wanted = self.gossip.on_propose(from, &p.chunks, now);
                if lifting_on {
                    // The payload is owned here: the history takes the chunk
                    // list by move, no per-propose clone.
                    self.verifier.on_propose_received(from, p.chunks, now);
                }
                if wanted.is_empty() {
                    return;
                }
                // One shared list serves the wire payload and the serve check
                // (refcounts, not copies).
                let chunks: Arc<[ChunkId]> = wanted.into();
                if lifting_on {
                    self.verifier
                        .on_request_sent_into(from, chunks.clone(), now, out);
                }
                let request = GossipMessage::Request(RequestPayload { chunks });
                out.push(send_gossip(from, request));
            }
            GossipMessage::Request(r) => {
                // Phase 3, with the adversary-configured partial serve.
                let served = self.gossip.on_request(from, &r.chunks, rng);
                if served.is_empty() {
                    return;
                }
                if lifting_on {
                    let ids = served.iter().map(|c| c.id).collect();
                    self.verifier.on_chunks_served_into(from, ids, now, out);
                }
                let serve = |chunk| send_gossip(from, GossipMessage::Serve(ServePayload { chunk }));
                out.extend(served.into_iter().map(serve));
            }
            GossipMessage::Serve(s) => {
                self.gossip.on_serve(from, s.chunk, now);
                if lifting_on {
                    self.verifier.on_serve_received(from, s.chunk.id, now);
                }
            }
        }
    }

    /// Handles one verification message from `from`. The blames this emits
    /// are routed by the runtime, because the target's managers live on
    /// *other* nodes.
    fn on_verification(
        &mut self,
        from: NodeId,
        inbound: VerificationMessage,
        now: SimTime,
        rng: &mut SmallRng,
        out: &mut Vec<Downcall>,
    ) {
        match inbound {
            VerificationMessage::Ack(ack) => {
                self.verifier.on_ack_into(from, *ack, now, rng, out);
            }
            VerificationMessage::Confirm(confirm) => {
                self.verifier.on_confirm_into(from, &confirm, now, out);
            }
            VerificationMessage::ConfirmResponse(_)
            | VerificationMessage::Blame(_)
            | VerificationMessage::HistoryRequest
            | VerificationMessage::HistoryResponse(_) => {
                // Never delivered as events: the world lands confirm
                // responses in their check when the witness sends them
                // ([`NodeStack::land_confirm_response`]) and blames in the
                // managers' books from its in-flight buffer; audits run
                // synchronously in the audit coordinator. These messages
                // only size and categorise traffic.
            }
        }
    }
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
}

impl NodeStack {
    /// Builds a node stack carrying one concurrent channel per clock (clock
    /// `s` defines stream `s`), for the node's session `session` (0 at
    /// start, one more at every rejoin: a rebuilt stack's verifiers issue
    /// tokens no earlier session used). The adversary configures each plane
    /// (possibly differently per stream — see
    /// [`Adversary::dissemination_plane`]); the reputation book is one
    /// and shared.
    #[allow(clippy::too_many_arguments)]
    pub fn with_streams(
        id: NodeId,
        gossip_config: GossipConfig,
        lifting_config: LiftingConfig,
        lifting_enabled: bool,
        adversary: Box<dyn Adversary>,
        rng: SmallRng,
        clocks: &[StreamClock],
        session: u32,
    ) -> Self {
        let fanout = gossip_config.fanout;
        let planes = clocks
            .iter()
            .enumerate()
            .map(|(s, clock)| {
                let stream = clock.stream;
                debug_assert_eq!(stream.index(), s, "planes are indexed by stream");
                let behavior = adversary.dissemination_plane(stream);
                let collusion = adversary.verification_plane();
                StreamPlane {
                    stream,
                    gossip: GossipNode::for_stream(id, *clock, gossip_config, behavior),
                    selector: adversary.membership_plane(stream),
                    verifier: Verifier::new(id, fanout, lifting_config, collusion)
                        .for_stream(stream)
                        .in_session(session),
                    lifting_on: lifting_enabled,
                }
            })
            .collect();
        NodeStack {
            planes,
            reputation: ManagerState::new(),
            adversary,
            rng,
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.planes[0].gossip.id()
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
            .map(|p| p.verifier.pending_checks())
            .sum()
    }

    /// Blames emitted across every plane.
    pub fn blames_emitted(&self) -> u64 {
        self.planes
            .iter()
            .map(|p| p.verifier.blames_emitted())
            .sum()
    }

    /// Hardened-confirm retry counters summed across every plane.
    pub fn confirm_retry_stats(&self) -> lifting_core::ConfirmRetryStats {
        self.planes
            .iter()
            .map(|p| p.verifier.confirm_retry_stats())
            .sum()
    }

    /// Runs one gossip tick: every subscribed plane runs its propose phase in
    /// stream order — the adversary may reshape the plane first — and
    /// fabricated blames (if the adversary spams the reputation plane) are
    /// appended once, last.
    pub fn on_gossip_tick(
        &mut self,
        me: NodeId,
        now: SimTime,
        directory: &Directory,
        out: &mut Vec<Downcall>,
    ) {
        for plane in &mut self.planes {
            if !directory.is_subscribed(me, plane.stream) {
                continue; // not this node's channel
            }
            let period = plane.gossip.period();
            self.adversary
                .on_gossip_tick(plane.stream, period, &mut plane.gossip);
            self.adversary
                .retune_membership(plane.stream, period, &mut plane.selector);
            plane.on_tick(me, now, directory, &mut self.rng, out);
        }
        let fabricated = self
            .adversary
            .fabricate_blames(me, directory, &mut self.rng);
        out.extend(fabricated.into_iter().map(Downcall::Blame));
    }

    /// Routes one delivered message into the stack: gossip and verification
    /// traffic goes to the plane of the stream it belongs to (derived from
    /// the chunk identities it carries). Blames never arrive here: the world
    /// lands them in the reputation book from its in-flight buffer.
    pub fn on_message(
        &mut self,
        from: NodeId,
        message: Message,
        now: SimTime,
        out: &mut Vec<Downcall>,
    ) {
        match message {
            Message::Gossip(inbound) => {
                let stream = inbound.stream().unwrap_or(StreamId::PRIMARY);
                self.planes[stream.index()].on_gossip(from, inbound, now, &mut self.rng, out);
            }
            Message::Verification(inbound) => {
                let stream = inbound.stream().unwrap_or(StreamId::PRIMARY);
                self.planes[stream.index()].on_verification(from, inbound, now, &mut self.rng, out);
            }
        }
    }

    /// Lands a witness's answer, arriving at `arrival` (its `(time, stamp)`
    /// key), in the confirm check of the plane it addresses.
    pub fn land_confirm_response(
        &mut self,
        from: NodeId,
        response: &ConfirmResponsePayload,
        arrival: (SimTime, u64),
    ) {
        let plane = &mut self.planes[response.stream.index()];
        plane
            .verifier
            .land_confirm_response(from, response, arrival);
    }

    /// A verifier timer owned by one of this node's planes expired, as the
    /// engine event `(now, seq)`.
    pub fn on_timer(
        &mut self,
        stream: StreamId,
        timer: VerifierTimer,
        now: SimTime,
        seq: u64,
        out: &mut Vec<Downcall>,
    ) {
        let plane = &mut self.planes[stream.index()];
        plane.verifier.on_timer_into(timer, now, seq, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Freerider, Honest, SelectiveFreerider};
    use lifting_core::CollusionConfig;
    use lifting_gossip::FreeriderConfig;
    use lifting_sim::derive_rng;

    /// One paper-rate clock per stream.
    fn clocks(streams: u16) -> Vec<StreamClock> {
        let paper = StreamClock::paper();
        (0..streams)
            .map(|s| StreamClock {
                stream: StreamId::new(s),
                ..paper
            })
            .collect()
    }

    fn stack(id: u32, adversary: Box<dyn Adversary>) -> NodeStack {
        stack_with_lifting(id, adversary, true)
    }

    fn stack_with_lifting(id: u32, adversary: Box<dyn Adversary>, lifting: bool) -> NodeStack {
        NodeStack::with_streams(
            NodeId::new(id),
            GossipConfig::planetlab(),
            LiftingConfig::planetlab(),
            lifting,
            adversary,
            derive_rng(1, id as u64),
            &[StreamClock::paper()],
            0,
        )
    }

    /// Delivers a proposal of chunk 9 from node 0 to node 1's stack.
    fn deliver_propose(s: &mut NodeStack) -> Vec<Downcall> {
        let propose = GossipMessage::Propose(ProposePayload {
            period: 0,
            chunks: vec![ChunkId::primary(9)].into(),
        });
        let mut out = Vec::new();
        s.on_message(
            NodeId::new(0),
            Message::Gossip(propose),
            SimTime::ZERO,
            &mut out,
        );
        out
    }

    fn is_request(effect: &Downcall) -> bool {
        let request = |m: &Message| matches!(m, Message::Gossip(GossipMessage::Request(_)));
        matches!(effect, Downcall::Send { message, .. } if request(message))
    }

    #[test]
    fn tick_begins_the_period_records_the_round_and_sends_proposes() {
        let directory = Directory::new(10);
        let mut s = stack(0, Box::new(Honest));
        let chunk = s.primary().gossip.playout().clock().chunk(1);
        s.planes[0].gossip.inject_source_chunk(chunk, SimTime::ZERO);
        let mut out = Vec::new();
        s.on_gossip_tick(NodeId::new(0), SimTime::ZERO, &directory, &mut out);
        assert_eq!(s.primary().gossip.period(), 1);
        // The node's own chunk owes no ack: the effects are the proposals.
        assert_eq!(out.len(), 7, "one propose per partner at fanout 7");
        let proposes = |m: &Message| matches!(m, Message::Gossip(GossipMessage::Propose(_)));
        assert!(out
            .iter()
            .all(|d| matches!(d, Downcall::Send { message, .. } if proposes(message))));
        // The verifier recorded the round in the accountability history.
        assert_eq!(s.primary().verifier.history().fanout_multiset().len(), 7);
    }

    #[test]
    fn propose_inbound_is_recorded_and_answered_with_a_request() {
        let mut s = stack(1, Box::new(Honest));
        let out = deliver_propose(&mut s);
        assert_eq!(out.len(), 2, "serve-check timer, then the request");
        assert!(is_request(&out[1]));
        assert_eq!(out[1].receiver(), Some(NodeId::new(0)));
        // The proposal went into the fanin history (it answers audit polls).
        assert!(s
            .primary()
            .verifier
            .answer_audit_poll(NodeId::new(0), &[ChunkId::primary(9)]));
    }

    #[test]
    fn lifting_off_plane_builds_nothing_for_the_verifier() {
        let mut s = stack_with_lifting(1, Box::new(Honest), false);
        let out = deliver_propose(&mut s);
        assert_eq!(out.len(), 1, "the request still goes on the wire");
        assert!(is_request(&out[0]));
        assert!(
            !s.primary()
                .verifier
                .answer_audit_poll(NodeId::new(0), &[ChunkId::primary(9)]),
            "no verification plane, no history"
        );
    }

    #[test]
    fn lifting_off_plane_arms_no_checks() {
        // The serving side: a tick proposes the node's chunk, a partner
        // requests it, and only the serve goes out — no ack check is armed.
        let directory = Directory::new(10);
        let mut s = stack_with_lifting(0, Box::new(Honest), false);
        let chunk = s.primary().gossip.playout().clock().chunk(1);
        s.planes[0].gossip.inject_source_chunk(chunk, SimTime::ZERO);
        let mut out = Vec::new();
        s.on_gossip_tick(NodeId::new(0), SimTime::ZERO, &directory, &mut out);
        let partner = out[0].receiver().expect("a propose send");
        out.clear();
        let request = GossipMessage::Request(RequestPayload {
            chunks: vec![ChunkId::primary(1)].into(),
        });
        s.on_message(partner, Message::Gossip(request), SimTime::ZERO, &mut out);
        let serves = |m: &Message| matches!(m, Message::Gossip(GossipMessage::Serve(_)));
        assert!(
            matches!(&out[..], [Downcall::Send { message, .. }] if serves(message)),
            "disabled plane must not arm checks: {out:?}"
        );
        assert_eq!(s.pending_checks(), 0);
    }

    #[test]
    fn request_sent_arms_a_serve_check_timer() {
        let mut s = stack(1, Box::new(Honest));
        let out = deliver_propose(&mut s);
        assert!(matches!(
            out[0],
            Downcall::StartTimer {
                stream: StreamId::PRIMARY,
                timer: VerifierTimer::ServeCheck { .. },
                ..
            }
        ));
        assert_eq!(s.pending_checks(), 1);
    }

    #[test]
    fn stack_wires_every_layer_with_the_same_identity() {
        let s = stack(4, Box::new(Honest));
        assert_eq!(s.id(), NodeId::new(4));
        assert_eq!(s.primary().gossip.id(), NodeId::new(4));
        assert_eq!(s.primary().verifier.id(), s.primary().gossip.id());
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
            &clocks(3),
            0,
        );
        assert_eq!(s.planes.len(), 3);
        for (i, plane) in s.planes.iter().enumerate() {
            let stream = StreamId::new(i as u16);
            assert_eq!(plane.stream, stream);
            assert_eq!(plane.gossip.stream(), stream);
            assert_eq!(plane.verifier.stream(), stream);
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
            &clocks(2),
            0,
        );
        assert!(!s.plane(StreamId::new(0)).gossip.behavior().is_freerider());
        assert!(s.plane(StreamId::new(1)).gossip.behavior().is_freerider());
    }

    #[test]
    fn freerider_adversary_shapes_the_dissemination_plane() {
        let s = stack(
            2,
            Box::new(Freerider {
                degree: FreeriderConfig::planetlab(),
            }),
        );
        assert!(s.primary().gossip.behavior().is_freerider());
        // Verification plane stays honest for an independent freerider.
        let collusion: &CollusionConfig = &CollusionConfig::none();
        assert_eq!(
            s.primary().verifier.config().managers,
            LiftingConfig::planetlab().managers
        );
        assert!(!collusion.covers_up());
    }

    #[test]
    fn blames_lower_the_managed_score_and_trigger_votes() {
        use crate::inflight::{land, InFlightBlame};
        let mut s = stack(1, Box::new(Honest));
        let target = NodeId::new(3);
        s.reputation.register(target);
        let copy = InFlightBlame {
            arrival: SimTime::ZERO,
            stamp: 0,
            manager: s.id(),
            subject: target,
            value: 30.0,
        };
        land(&Directory::new(8), &mut s.reputation, &copy);
        s.reputation.end_period(0.0);
        assert!(s.reputation.normalized_score(target).unwrap() < -9.75);
        let mut votes = Vec::new();
        s.reputation.expulsion_votes_into(-9.75, 1, &mut votes);
        assert_eq!(votes, vec![target]);
        // A second sweep does not re-vote.
        votes.clear();
        s.reputation.expulsion_votes_into(-9.75, 1, &mut votes);
        assert!(votes.is_empty());
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

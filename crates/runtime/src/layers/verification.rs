//! The verification plane: LiFTinG direct verification and cross-checking.

use lifting_core::{VerificationMessage, Verifier, VerifierAction, VerifierTimer};
use lifting_sim::NodeId;

use super::{Downcall, GossipUpcall, LayerEnv};
use crate::message::Message;

/// The verification layer of one node: wraps the sans-IO [`Verifier`] state
/// machine, consumes the gossip layer's upcalls to build the node's history
/// and arm checks, and turns verifier actions into [`Downcall`]s.
///
/// When the layer is disabled (`lifting_enabled = false` in the scenario) it
/// swallows gossip upcalls without recording anything, reproducing the
/// paper's "gossip without LiFTinG" baseline of Figure 1.
#[derive(Debug)]
pub struct VerificationLayer {
    /// The LiFTinG verification engine.
    pub verifier: Verifier,
    enabled: bool,
    /// Recycled staging buffer for verifier actions: handlers append into it
    /// (via the `*_into` variants) instead of allocating a `Vec` per handled
    /// message, keeping the verification hot path allocation-free.
    scratch_actions: Vec<VerifierAction>,
}

impl VerificationLayer {
    /// Creates the layer; `enabled` mirrors the scenario's `lifting_enabled`.
    pub fn new(verifier: Verifier, enabled: bool) -> Self {
        VerificationLayer {
            verifier,
            enabled,
            scratch_actions: Vec::new(),
        }
    }

    /// True if the verification plane is active in this run.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The stream plane this layer verifies.
    pub fn stream(&self) -> lifting_sim::StreamId {
        self.verifier.stream()
    }

    /// Converts verifier actions into downcalls, preserving their order.
    /// Timers are tagged with this plane's stream so the runtime can route
    /// the expiry back into the right verifier (tokens are plane-local).
    fn push_actions(
        &self,
        actions: impl IntoIterator<Item = VerifierAction>,
        out: &mut Vec<Downcall>,
    ) {
        let stream = self.verifier.stream();
        for action in actions {
            out.push(match action {
                VerifierAction::SendAck { to, ack } => Downcall::Send {
                    to,
                    message: Message::Verification(VerificationMessage::Ack(Box::new(ack))),
                },
                VerifierAction::SendConfirm { to, confirm } => Downcall::Send {
                    to,
                    message: Message::Verification(VerificationMessage::Confirm(confirm)),
                },
                VerifierAction::SendConfirmResponse { to, response } => Downcall::Send {
                    to,
                    message: Message::Verification(VerificationMessage::ConfirmResponse(response)),
                },
                VerifierAction::Blame(blame) => Downcall::Blame(blame),
                VerifierAction::StartTimer { timer, deadline } => Downcall::StartTimer {
                    stream,
                    timer,
                    deadline,
                },
            });
        }
    }

    /// Consumes one gossip upcall: records history and arms direct
    /// verification / cross-checking checks (Section 5).
    pub fn on_gossip_upcall(
        &mut self,
        env: &mut LayerEnv<'_>,
        upcall: GossipUpcall,
        out: &mut Vec<Downcall>,
    ) {
        if !self.enabled {
            return;
        }
        let mut actions = std::mem::take(&mut self.scratch_actions);
        debug_assert!(actions.is_empty());
        match upcall {
            GossipUpcall::PeriodBegan(period) => self.verifier.begin_period(period),
            GossipUpcall::RoundStarted(round) => {
                self.verifier
                    .on_propose_round_into(&round, env.now, &mut actions);
            }
            GossipUpcall::ProposeReceived { from, chunks } => {
                self.verifier.on_propose_received(from, chunks, env.now);
            }
            GossipUpcall::RequestSent { to, chunks } => {
                self.verifier
                    .on_request_sent_into(to, chunks, env.now, &mut actions);
            }
            GossipUpcall::ChunksServed { to, chunks } => {
                self.verifier
                    .on_chunks_served_into(to, chunks, env.now, &mut actions);
            }
            GossipUpcall::ServeReceived { from, chunk } => {
                self.verifier.on_serve_received(from, chunk, env.now);
            }
        }
        self.push_actions(actions.drain(..), out);
        self.scratch_actions = actions;
    }

    /// A verifier timer expired.
    pub fn on_timer(
        &mut self,
        env: &mut LayerEnv<'_>,
        timer: VerifierTimer,
        out: &mut Vec<Downcall>,
    ) {
        let mut actions = std::mem::take(&mut self.scratch_actions);
        self.verifier.on_timer_into(timer, env.now, &mut actions);
        self.push_actions(actions.drain(..), out);
        self.scratch_actions = actions;
    }

    /// Handles one verification message from `from`. There is no in-stack
    /// upcall: the blames this emits are routed by the runtime, because the
    /// target's managers live on *other* nodes.
    pub fn on_inbound(
        &mut self,
        env: &mut LayerEnv<'_>,
        from: NodeId,
        inbound: VerificationMessage,
        out: &mut Vec<Downcall>,
    ) {
        match inbound {
            VerificationMessage::Ack(ack) => {
                let mut actions = std::mem::take(&mut self.scratch_actions);
                self.verifier
                    .on_ack_into(from, *ack, env.now, env.rng, &mut actions);
                self.push_actions(actions.drain(..), out);
                self.scratch_actions = actions;
            }
            VerificationMessage::Confirm(confirm) => {
                let mut actions = std::mem::take(&mut self.scratch_actions);
                self.verifier
                    .on_confirm_into(from, &confirm, env.now, &mut actions);
                self.push_actions(actions.drain(..), out);
                self.scratch_actions = actions;
            }
            VerificationMessage::ConfirmResponse(response) => {
                self.verifier.on_confirm_response(from, response);
            }
            VerificationMessage::Blame(_) => {
                unreachable!("blames are booked by the stack's manager state")
            }
            VerificationMessage::HistoryRequest | VerificationMessage::HistoryResponse(_) => {
                // Audits are executed synchronously by the audit coordinator;
                // these messages only exist for traffic accounting.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_core::{CollusionConfig, LiftingConfig};
    use lifting_membership::Directory;
    use lifting_sim::{derive_rng, SimTime};

    #[test]
    fn disabled_layer_ignores_gossip_upcalls() {
        let verifier = Verifier::new(
            NodeId::new(1),
            7,
            LiftingConfig::planetlab(),
            CollusionConfig::none(),
        );
        let mut layer = VerificationLayer::new(verifier, false);
        let directory = Directory::new(4);
        let mut rng = derive_rng(1, 1);
        let mut env = LayerEnv {
            me: NodeId::new(1),
            stream: lifting_sim::StreamId::PRIMARY,
            now: SimTime::ZERO,
            directory: &directory,
            rng: &mut rng,
            upcalls_consumed: true,
        };
        let mut out = Vec::new();
        layer.on_gossip_upcall(
            &mut env,
            GossipUpcall::RequestSent {
                to: NodeId::new(2),
                chunks: vec![lifting_gossip::ChunkId::primary(1)].into(),
            },
            &mut out,
        );
        assert!(out.is_empty(), "disabled layer must not arm checks");
        assert_eq!(layer.verifier.pending_checks(), 0);
    }

    #[test]
    fn request_sent_arms_a_serve_check_timer() {
        let verifier = Verifier::new(
            NodeId::new(1),
            7,
            LiftingConfig::planetlab(),
            CollusionConfig::none(),
        );
        let mut layer = VerificationLayer::new(verifier, true);
        let directory = Directory::new(4);
        let mut rng = derive_rng(1, 2);
        let mut env = LayerEnv {
            me: NodeId::new(1),
            stream: lifting_sim::StreamId::PRIMARY,
            now: SimTime::ZERO,
            directory: &directory,
            rng: &mut rng,
            upcalls_consumed: true,
        };
        let mut out = Vec::new();
        layer.on_gossip_upcall(
            &mut env,
            GossipUpcall::RequestSent {
                to: NodeId::new(2),
                chunks: vec![lifting_gossip::ChunkId::primary(1)].into(),
            },
            &mut out,
        );
        assert!(matches!(&out[..], [Downcall::StartTimer { .. }]));
        assert_eq!(layer.verifier.pending_checks(), 1);
    }
}

//! Direct verification and direct cross-checking (Section 5.2).
//!
//! [`Verifier`] is the per-node verification engine. Like the gossip node it
//! is written sans-IO: every handler appends [`VerifierAction`]s (messages to
//! send, blames to emit, timers to start) to a caller-owned buffer of whatever
//! effect type the runtime commits from (`T: From<VerifierAction>`), so an
//! effect is written once. A node plays three roles at once:
//!
//! * **requester** — after requesting chunks it checks that they are served
//!   (direct verification, blame `f·(|R|-|S|)/|R|`);
//! * **server / verifier** — after serving chunks it expects an
//!   acknowledgment naming the receiver's `f` partners and, with probability
//!   `pdcc`, polls those witnesses with confirm requests (direct
//!   cross-checking, Figure 7);
//! * **witness** — it answers confirm requests about other nodes from its own
//!   record of received proposals.
//!
//! Colluders deviate exactly as Section 5.2 describes: they vouch for
//! coalition members when acting as witnesses or verifiers, and the
//! man-in-the-middle variant names accomplices instead of its real partners
//! in its acknowledgments (Figure 8b).

use std::sync::Arc;

use lifting_gossip::{ChunkId, ProposeRound};
use lifting_sim::{NodeId, SimTime, StreamId};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::blame::{schedule, Blame, BlameReason};
use crate::checks::{AckCheck, CheckRing, ConfirmCheck, ConfirmChecks, ServeCheck};
use crate::collusion::CollusionConfig;
use crate::config::{LiftingConfig, ACK_TIMEOUT, CONFIRM_TIMEOUT, SERVE_TIMEOUT};
use crate::history::NodeHistory;
use crate::messages::{AckPayload, ConfirmPayload, ConfirmResponsePayload, VerificationMessage};

/// A timer the runtime must schedule on behalf of the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifierTimer {
    /// Direct verification: check that the requested chunks were served.
    ServeCheck {
        /// Token identifying the pending request.
        token: u64,
    },
    /// Cross-checking: check that the receiver acknowledged the serve.
    AckCheck {
        /// Token identifying the pending acknowledgment.
        token: u64,
    },
    /// Cross-checking: check that the witnesses confirmed the forwarding.
    ConfirmCheck {
        /// Token identifying the pending confirmation round.
        token: u64,
    },
}

/// An action the runtime must carry out for the verifier.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifierAction {
    /// Send an ack, a confirm request or a confirm response (all UDP).
    Send {
        /// Destination.
        to: NodeId,
        /// The message.
        message: VerificationMessage,
    },
    /// Emit a blame against a node (to be routed to its managers).
    Blame(Blame),
    /// Start a timer expiring at `deadline`.
    StartTimer {
        /// The stream plane of the verifier that owns the timer (tokens are
        /// plane-local; the runtime echoes the stream back on expiry).
        stream: StreamId,
        /// The timer to schedule.
        timer: VerifierTimer,
        /// When it fires.
        deadline: SimTime,
    },
}

/// Counters of the hardened confirm path (`LiftingConfig::confirm_retries`).
/// All zero when the hardening is off — the paper's single-shot behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfirmRetryStats {
    /// Confirm timers that expired with at least one still-silent witness.
    pub timeouts: u64,
    /// Confirm requests re-sent to silent witnesses.
    pub resends: u64,
    /// Checks abandoned without blame after the retries exhausted (the
    /// silent witnesses stayed silent — indistinguishable from loss or
    /// partition, so no contradiction is inferred).
    pub aborts: u64,
}

impl std::iter::Sum for ConfirmRetryStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |total, s| ConfirmRetryStats {
            timeouts: total.timeouts + s.timeouts,
            resends: total.resends + s.resends,
            aborts: total.aborts + s.aborts,
        })
    }
}

/// The per-node LiFTinG verification engine.
#[derive(Debug)]
pub struct Verifier {
    id: NodeId,
    /// The stream this verification plane covers: its history, checks and
    /// timers are all plane-local, and every blame it emits is tagged with
    /// this stream (cross-stream provenance for the shared reputation plane).
    stream: StreamId,
    config: LiftingConfig,
    fanout: usize,
    collusion: CollusionConfig,
    history: NodeHistory,
    current_period: u64,
    // One token-indexed ring per check kind (see `crate::checks`).
    serves: CheckRing<ServeCheck>,
    acks: CheckRing<AckCheck>,
    confirms: ConfirmChecks,
    blames_emitted: u64,
    retry_stats: ConfirmRetryStats,
}

impl Verifier {
    /// Creates a verifier for node `id` with protocol fanout `fanout`.
    pub fn new(
        id: NodeId,
        fanout: usize,
        config: LiftingConfig,
        collusion: CollusionConfig,
    ) -> Self {
        config.validate().expect("invalid LiFTinG configuration");
        let history = NodeHistory::new(id, config.history_periods);
        Verifier {
            id,
            stream: StreamId::PRIMARY,
            config,
            fanout,
            collusion,
            history,
            current_period: 0,
            serves: CheckRing::starting_at(0),
            acks: CheckRing::starting_at(0),
            confirms: ConfirmChecks::starting_at(0),
            blames_emitted: 0,
            retry_stats: ConfirmRetryStats::default(),
        }
    }

    /// Rekeys the verifier to one plane of a multi-channel stack (builder
    /// style, applied right after [`new`](Verifier::new)).
    pub fn for_stream(mut self, stream: StreamId) -> Self {
        self.stream = stream;
        self
    }

    /// Issues this verifier's check tokens from session `session`'s range
    /// (builder style, applied right after [`new`](Verifier::new)): the
    /// session sits above bit 40 (a session issues fewer than 2⁴⁰ tokens of
    /// each kind), so a stack rebuilt after a rejoin never reissues a token
    /// its earlier sessions used, and a late reply addressed to an earlier
    /// session matches no live check. Session 0 issues tokens from zero.
    pub fn in_session(mut self, session: u32) -> Self {
        let first = u64::from(session) << 40;
        self.serves = CheckRing::starting_at(first);
        self.acks = CheckRing::starting_at(first);
        self.confirms = ConfirmChecks::starting_at(first);
        self
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The stream this verification plane covers.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The node's accountability history.
    pub fn history(&self) -> &NodeHistory {
        &self.history
    }

    /// The verification configuration.
    pub fn config(&self) -> &LiftingConfig {
        &self.config
    }

    /// Number of blames this verifier has emitted so far.
    pub fn blames_emitted(&self) -> u64 {
        self.blames_emitted
    }

    /// Counters of the hardened confirm path (all zero when
    /// `confirm_retries` is 0).
    pub fn confirm_retry_stats(&self) -> ConfirmRetryStats {
        self.retry_stats
    }

    /// Answers an a-posteriori audit poll: did this node receive a proposal
    /// from `subject` containing `chunks`? Colluders vouch for coalition
    /// members here too.
    pub fn answer_audit_poll(&self, subject: NodeId, chunks: &[ChunkId]) -> bool {
        if self.collusion.covers_up() && self.collusion.is_colluder(subject) {
            return true;
        }
        self.history.received_proposal_with(subject, chunks)
    }

    /// Reports the verifiers that asked this node to confirm proposals of
    /// `subject` (used by auditors to build the fanin multiset `F'h`).
    pub fn confirm_askers_about(&self, subject: NodeId) -> Vec<NodeId> {
        self.history.confirm_askers_about(subject)
    }

    /// Number of outstanding verification checks (pending serves, acks and
    /// confirmations) — useful for tests and leak detection.
    pub fn pending_checks(&self) -> usize {
        self.serves.len() + self.acks.len() + self.confirms.ring.len()
    }

    /// Heap bytes held by the serve, ack and confirm checks, in that order
    /// (capacity walk, deterministic; a shared `Arc` list is split over its
    /// holders, see [`shared_list_heap_bytes`]).
    ///
    /// [`shared_list_heap_bytes`]: lifting_gossip::chunk::shared_list_heap_bytes
    pub fn check_heap_bytes(&self) -> [usize; 3] {
        [
            self.serves.heap_bytes(ServeCheck::heap_bytes),
            self.acks.heap_bytes(AckCheck::heap_bytes),
            self.confirms.heap_bytes(),
        ]
    }

    /// Heap bytes held by the verification plane: the bounded history plus
    /// the pending checks ([`check_heap_bytes`](Self::check_heap_bytes)).
    pub fn estimated_heap_bytes(&self) -> usize {
        self.check_heap_bytes().iter().sum::<usize>() + self.history.estimated_heap_bytes()
    }

    fn blame<T: From<VerifierAction>>(
        &mut self,
        target: NodeId,
        value: f64,
        reason: BlameReason,
        out: &mut Vec<T>,
    ) {
        // A colluding verifier never blames a coalition member.
        if value <= 0.0 || (self.collusion.covers_up() && self.collusion.is_colluder(target)) {
            return;
        }
        self.blames_emitted += 1;
        let blame = Blame::on_stream(self.stream, target, value, reason);
        out.push(VerifierAction::Blame(blame).into());
    }

    fn start_timer<T: From<VerifierAction>>(
        &self,
        timer: VerifierTimer,
        deadline: SimTime,
        out: &mut Vec<T>,
    ) {
        let stream = self.stream;
        let action = VerifierAction::StartTimer {
            stream,
            timer,
            deadline,
        };
        out.push(action.into());
    }

    /// Polls each of `witnesses` with the round's one shared confirm payload.
    fn send_confirms<T: From<VerifierAction>>(
        witnesses: impl IntoIterator<Item = NodeId>,
        confirm: &Arc<ConfirmPayload>,
        out: &mut Vec<T>,
    ) {
        for to in witnesses {
            let message = VerificationMessage::Confirm(confirm.clone());
            out.push(VerifierAction::Send { to, message }.into());
        }
    }

    /// Advances the verifier's notion of the current gossip period (used to
    /// index history records for events received between propose phases).
    pub fn begin_period(&mut self, period: u64) {
        self.current_period = period;
    }

    // ------------------------------------------------------------------
    // Requester role: direct verification.
    // ------------------------------------------------------------------

    /// Called after sending a request for `requested` chunks to `proposer`.
    /// Registers the pending check (taking ownership of the chunk list — no
    /// copy) and appends the timer to schedule to `out`.
    pub fn on_request_sent_into<T: From<VerifierAction>>(
        &mut self,
        proposer: NodeId,
        requested: Arc<[ChunkId]>,
        now: SimTime,
        out: &mut Vec<T>,
    ) {
        if requested.is_empty() {
            return;
        }
        let token = self.serves.push(ServeCheck::new(proposer, requested));
        let deadline = now + SERVE_TIMEOUT;
        self.start_timer(VerifierTimer::ServeCheck { token }, deadline, out);
    }

    /// Called when a serve of `chunk` from `from` is received. Counts the
    /// reception in the history and satisfies pending checks.
    pub fn on_serve_received(&mut self, from: NodeId, chunk: ChunkId, _now: SimTime) {
        self.history.record_serve_received(self.current_period);
        for (_, check) in self.serves.iter_mut() {
            if check.proposer == from {
                check.record(chunk);
            }
        }
    }

    /// Called when a proposal from `from` is received (needed to answer
    /// confirm requests and audit polls truthfully). The shared chunk list
    /// goes straight into the history — no copy.
    pub fn on_propose_received(&mut self, from: NodeId, chunks: Arc<[ChunkId]>, _now: SimTime) {
        self.history
            .record_proposal_received(self.current_period, from, chunks);
    }

    // ------------------------------------------------------------------
    // Receiver role: acknowledgments after forwarding.
    // ------------------------------------------------------------------

    /// Called right after this node's propose phase. Records the proposal in
    /// the history and appends the acknowledgments owed to the nodes that
    /// served the forwarded chunks (cross-checking, Figure 7).
    pub fn on_propose_round_into<T: From<VerifierAction>>(
        &mut self,
        round: &ProposeRound,
        _now: SimTime,
        out: &mut Vec<T>,
    ) {
        self.current_period = round.period;
        self.history.record_proposal_sent_shared(
            round.period,
            &round.partners,
            Arc::clone(&round.chunks),
        );
        // The honest partner list is identical in every ack of this round;
        // share one allocation across them (built lazily: rounds that owe no
        // ack allocate nothing).
        let mut real_partners: Option<Arc<[NodeId]>> = None;
        for (source, chunks) in &round.by_source {
            if *source == self.id {
                continue; // chunks we produced ourselves need no acknowledgment
            }
            // Man-in-the-middle attack (Figure 8b): name accomplices instead
            // of the real partners so the server's confirm requests go to
            // colluders who will vouch for us.
            let partners: Arc<[NodeId]> =
                if self.collusion.man_in_the_middle() && !self.collusion.is_colluder(*source) {
                    let mut accomplices = self.collusion.accomplices(self.id);
                    accomplices.truncate(self.fanout.max(round.partners.len()));
                    if accomplices.is_empty() {
                        round.partners.as_slice().into()
                    } else {
                        accomplices.into()
                    }
                } else {
                    real_partners
                        .get_or_insert_with(|| round.partners.as_slice().into())
                        .clone()
                };
            let ack = AckPayload {
                chunks: Arc::from(chunks.as_slice()),
                partners,
                period: round.period,
            };
            let (to, message) = (*source, VerificationMessage::Ack(Box::new(ack)));
            out.push(VerifierAction::Send { to, message }.into());
        }
    }

    // ------------------------------------------------------------------
    // Server / verifier role: cross-checking.
    // ------------------------------------------------------------------

    /// Called after serving `chunks` to `to`. Registers the expectation of an
    /// acknowledgment (taking ownership of the chunk list — no copy) and
    /// appends the timer to schedule.
    pub fn on_chunks_served_into<T: From<VerifierAction>>(
        &mut self,
        to: NodeId,
        chunks: Vec<ChunkId>,
        now: SimTime,
        out: &mut Vec<T>,
    ) {
        if chunks.is_empty() {
            return;
        }
        let token = self.acks.push(AckCheck {
            receiver: to,
            chunks: chunks.into_boxed_slice(),
        });
        let deadline = now + ACK_TIMEOUT;
        self.start_timer(VerifierTimer::AckCheck { token }, deadline, out);
    }

    /// Called when an acknowledgment arrives from `from`. Clears the matching
    /// pending expectation, checks the acknowledged fanout, and (with
    /// probability `pdcc`) launches confirm requests towards the witnesses.
    pub fn on_ack_into<R: Rng + ?Sized, T: From<VerifierAction>>(
        &mut self,
        from: NodeId,
        ack: AckPayload,
        now: SimTime,
        rng: &mut R,
        out: &mut Vec<T>,
    ) {
        // Clear every pending expectation this acknowledgment satisfies.
        self.acks.remove_where(|p| {
            p.receiver == from && p.chunks.iter().all(|c| ack.chunks.contains(c))
        });

        // A colluding verifier does not check coalition members.
        if self.collusion.covers_up() && self.collusion.is_colluder(from) {
            return;
        }

        // Quantitative correctness: the receiver must have forwarded to f nodes.
        let decrease = schedule::fanout_decrease(self.fanout, ack.partners.len());
        self.blame(from, decrease, BlameReason::FanoutDecrease, out);

        // Causality: cross-check with the witnesses, with probability pdcc.
        if !ack.partners.is_empty() && rng.gen_bool(self.config.pdcc) {
            let deadline = now + CONFIRM_TIMEOUT;
            let check = ConfirmCheck::new(from, ack.partners.clone(), ack.chunks.clone(), deadline);
            let token = self.confirms.ring.push(check);
            let confirm = Arc::new(ConfirmPayload {
                subject: from,
                chunks: ack.chunks.clone(),
                token,
            });
            Self::send_confirms(ack.partners.iter().copied(), &confirm, out);
            self.start_timer(VerifierTimer::ConfirmCheck { token }, deadline, out);
        }
    }

    /// Lands a witness's answer in its confirm check. `arrival` is the
    /// answer's key: the instant it reaches this node and the engine seq its
    /// delivery event would have taken. It counts at the first expiry of the
    /// check whose `(time, seq)` it sorts before, and at none if the check
    /// has settled by then. A denial is recorded apart from silence: the
    /// hardened path blames denials and retries silence, the paper's
    /// single-shot path treats both the same.
    pub fn land_confirm_response(
        &mut self,
        from: NodeId,
        response: &ConfirmResponsePayload,
        arrival: (SimTime, u64),
    ) {
        self.confirms
            .land(from, response.token, response.confirmed, arrival);
    }

    // ------------------------------------------------------------------
    // Witness role.
    // ------------------------------------------------------------------

    /// Called when a confirm request arrives from a verifier. Answers from the
    /// node's own record of received proposals; colluders vouch for coalition
    /// members unconditionally.
    pub fn on_confirm(
        &mut self,
        from: NodeId,
        confirm: &ConfirmPayload,
        now: SimTime,
    ) -> Vec<VerifierAction> {
        let mut actions = Vec::new();
        self.on_confirm_into(from, confirm, now, &mut actions);
        actions
    }

    /// Allocation-free variant of [`on_confirm`](Self::on_confirm).
    pub fn on_confirm_into<T: From<VerifierAction>>(
        &mut self,
        from: NodeId,
        confirm: &ConfirmPayload,
        _now: SimTime,
        out: &mut Vec<T>,
    ) {
        self.history
            .record_confirm_received(self.current_period, from, confirm.subject);
        let truthful = self
            .history
            .received_proposal_with(confirm.subject, &confirm.chunks);
        let confirmed = if self.collusion.covers_up() && self.collusion.is_colluder(confirm.subject)
        {
            true
        } else {
            truthful
        };
        let message = VerificationMessage::ConfirmResponse(ConfirmResponsePayload {
            subject: confirm.subject,
            stream: self.stream,
            token: confirm.token,
            confirmed,
        });
        out.push(VerifierAction::Send { to: from, message }.into());
    }

    // ------------------------------------------------------------------
    // Timers.
    // ------------------------------------------------------------------

    /// Handles a timer that expired at `now` as the engine event of seq
    /// `seq`, appending any blame (or, on the hardened confirm path, any
    /// retry) it produces. The seq orders the expiry against answers landed
    /// at the same instant.
    pub fn on_timer_into<T: From<VerifierAction>>(
        &mut self,
        timer: VerifierTimer,
        now: SimTime,
        seq: u64,
        out: &mut Vec<T>,
    ) {
        match timer {
            VerifierTimer::ServeCheck { token } => {
                if let Some(check) = self.serves.remove(token) {
                    let value = schedule::partial_serve(
                        self.fanout,
                        check.requested.len(),
                        check.received.count(),
                    );
                    self.blame(check.proposer, value, BlameReason::PartialServe, out);
                }
            }
            VerifierTimer::AckCheck { token } => {
                if let Some(check) = self.acks.remove(token) {
                    let value = schedule::missing_ack(self.fanout);
                    self.blame(check.receiver, value, BlameReason::MissingAck, out);
                }
            }
            VerifierTimer::ConfirmCheck { token } => {
                let Some(check) = self.confirms.expire(token, (now, seq)) else {
                    return;
                };
                if self.config.confirm_retries == 0 {
                    // The paper's single-shot path: every witness still
                    // unconfirmed at the first expiry — silent or denying —
                    // counts as a contradiction.
                    let (subject, contradictions) = (check.subject, check.unconfirmed());
                    self.confirms.remove(token);
                    let value = schedule::contradicted_proposal(contradictions);
                    self.blame(subject, value, BlameReason::ContradictedProposal, out);
                } else {
                    self.on_confirm_check_hardened(token, now, out);
                }
            }
        }
    }

    /// The hardened confirm-check expiry (`confirm_retries > 0`), with the
    /// check's answers landed: silent witnesses are re-asked up to the retry
    /// budget with a deterministic linear backoff; when it exhausts, only
    /// *explicit denials* convert into a contradicted-proposal blame —
    /// witnesses that stayed silent through every attempt are
    /// indistinguishable from loss or partition, so their check is aborted
    /// without blame (counted in [`ConfirmRetryStats`]). A lost
    /// `ConfirmResponse` therefore times out and retries instead of wrongly
    /// blaming the subject.
    fn on_confirm_check_hardened<T: From<VerifierAction>>(
        &mut self,
        token: u64,
        now: SimTime,
        out: &mut Vec<T>,
    ) {
        let retries = self.config.confirm_retries;
        let check = self.confirms.ring.get_mut(token).expect("expired above");
        let silent = check.silent().count();
        if silent > 0 && check.attempt < retries {
            // Retry: re-send the identical confirm to the still-silent
            // witnesses and re-arm the timer with a linear backoff
            // (attempt i waits CONFIRM_TIMEOUT · (i + 1)).
            check.attempt += 1;
            check.deadline = now + CONFIRM_TIMEOUT.saturating_mul(u64::from(check.attempt) + 1);
            let deadline = check.deadline;
            let confirm = Arc::new(ConfirmPayload {
                subject: check.subject,
                chunks: check.chunks.clone(),
                token,
            });
            self.retry_stats.timeouts += 1;
            self.retry_stats.resends += silent as u64;
            Self::send_confirms(check.silent(), &confirm, out);
            self.start_timer(VerifierTimer::ConfirmCheck { token }, deadline, out);
            return;
        }
        let check = self.confirms.remove(token).expect("expired above");
        if silent > 0 {
            // Retries exhausted with witnesses still silent: graceful
            // degradation — no contradiction is inferred from silence.
            self.retry_stats.timeouts += 1;
            self.retry_stats.aborts += 1;
        }
        let value = schedule::contradicted_proposal(check.denials());
        self.blame(check.subject, value, BlameReason::ContradictedProposal, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::{derive_rng, SimDuration};
    use std::sync::Arc;

    fn ids(xs: &[u64]) -> Vec<ChunkId> {
        xs.iter().map(|x| ChunkId::primary(*x)).collect()
    }

    fn verifier(id: u32) -> Verifier {
        Verifier::new(
            NodeId::new(id),
            7,
            LiftingConfig::planetlab(),
            CollusionConfig::none(),
        )
    }

    /// The effects one `*_into` call appends, as a fresh list.
    fn collect(call: impl FnOnce(&mut Vec<VerifierAction>)) -> Vec<VerifierAction> {
        let mut out = Vec::new();
        call(&mut out);
        out
    }

    fn is_confirm(action: &VerifierAction) -> bool {
        let confirm = |m: &VerificationMessage| matches!(m, VerificationMessage::Confirm(_));
        matches!(action, VerifierAction::Send { message, .. } if confirm(message))
    }

    fn blames(actions: &[VerifierAction]) -> Vec<Blame> {
        actions
            .iter()
            .filter_map(|a| match a {
                VerifierAction::Blame(b) => Some(*b),
                _ => None,
            })
            .collect()
    }

    /// Lands `from`'s answer to the confirm check `token`, arriving at
    /// `arrival` (stamped 0: it precedes any timer at that instant).
    fn answer(v: &mut Verifier, from: NodeId, token: u64, confirmed: bool, arrival: SimTime) {
        let response = ConfirmResponsePayload {
            subject: NodeId::new(5),
            stream: StreamId::PRIMARY,
            token,
            confirmed,
        };
        v.land_confirm_response(from, &response, (arrival, 0));
    }

    fn timers(actions: &[VerifierAction]) -> Vec<VerifierTimer> {
        actions
            .iter()
            .filter_map(|a| match a {
                VerifierAction::StartTimer { timer, .. } => Some(*timer),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn direct_verification_blames_partial_serves() {
        let mut v = verifier(1);
        let proposer = NodeId::new(2);
        let actions = collect(|out| {
            v.on_request_sent_into(proposer, ids(&[1, 2, 3, 4]).into(), SimTime::ZERO, out)
        });
        let timer = timers(&actions)[0];
        // Only two of the four requested chunks arrive.
        v.on_serve_received(proposer, ChunkId::primary(1), SimTime::from_millis(100));
        v.on_serve_received(proposer, ChunkId::primary(3), SimTime::from_millis(120));
        let out = collect(|out| v.on_timer_into(timer, SimTime::from_millis(500), 0, out));
        let bs = blames(&out);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].target, proposer);
        assert!((bs[0].value - 7.0 * 2.0 / 4.0).abs() < 1e-12);
        assert_eq!(bs[0].reason, BlameReason::PartialServe);
        assert_eq!(v.pending_checks(), 0);
    }

    #[test]
    fn secondary_stream_verifier_tags_its_blames() {
        let mut v = verifier(1).for_stream(StreamId::new(2));
        assert_eq!(v.stream(), StreamId::new(2));
        let proposer = NodeId::new(2);
        let requested: Vec<ChunkId> = (0..3).map(|i| ChunkId::new(StreamId::new(2), i)).collect();
        let actions =
            collect(|out| v.on_request_sent_into(proposer, requested.into(), SimTime::ZERO, out));
        let out =
            collect(|out| v.on_timer_into(timers(&actions)[0], SimTime::from_millis(500), 0, out));
        let bs = blames(&out);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].stream, StreamId::new(2), "blame carries its channel");
        // The default verifier blames on the primary stream.
        assert_eq!(
            Blame::new(proposer, 1.0, BlameReason::MissingAck).stream,
            StreamId::PRIMARY
        );
    }

    #[test]
    fn full_serves_produce_no_blame() {
        let mut v = verifier(1);
        let proposer = NodeId::new(2);
        let actions = collect(|out| {
            v.on_request_sent_into(proposer, ids(&[1, 2]).into(), SimTime::ZERO, out)
        });
        v.on_serve_received(proposer, ChunkId::primary(1), SimTime::from_millis(10));
        v.on_serve_received(proposer, ChunkId::primary(2), SimTime::from_millis(20));
        let out =
            collect(|out| v.on_timer_into(timers(&actions)[0], SimTime::from_millis(500), 0, out));
        assert!(blames(&out).is_empty());
        assert_eq!(v.blames_emitted(), 0);
    }

    #[test]
    fn missing_ack_is_blamed_by_f() {
        let mut v = verifier(1);
        let receiver = NodeId::new(5);
        let actions =
            collect(|out| v.on_chunks_served_into(receiver, ids(&[1, 2]), SimTime::ZERO, out));
        let out =
            collect(|out| v.on_timer_into(timers(&actions)[0], SimTime::from_secs(2), 0, out));
        let bs = blames(&out);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].value, 7.0);
        assert_eq!(bs[0].reason, BlameReason::MissingAck);
    }

    #[test]
    fn ack_clears_the_pending_expectation_and_triggers_confirms() {
        let mut rng = derive_rng(1, 0);
        let mut v = verifier(1);
        let receiver = NodeId::new(5);
        let served = ids(&[1, 2]);
        let actions =
            collect(|out| v.on_chunks_served_into(receiver, served.clone(), SimTime::ZERO, out));
        let ack_timer = timers(&actions)[0];
        let witnesses: Vec<NodeId> = (10..17).map(NodeId::new).collect();
        let ack = AckPayload {
            chunks: served.clone().into(),
            partners: witnesses.clone().into(),
            period: 1,
        };
        let out =
            collect(|out| v.on_ack_into(receiver, ack, SimTime::from_millis(900), &mut rng, out));
        // pdcc = 1: confirms to all 7 witnesses plus a confirm timer, no blame.
        let confirms: Vec<&VerifierAction> = out.iter().filter(|a| is_confirm(a)).collect();
        assert_eq!(confirms.len(), 7);
        assert!(blames(&out).is_empty());
        // The ack timer no longer produces a blame.
        assert!(blames(&collect(|out| v.on_timer_into(
            ack_timer,
            SimTime::from_secs(2),
            0,
            out
        )))
        .is_empty());
    }

    #[test]
    fn one_ack_settles_every_check_it_covers() {
        let mut rng = derive_rng(4, 0);
        let mut v = verifier(1);
        let receiver = NodeId::new(5);
        let ack_timers: Vec<VerifierTimer> = [ids(&[1, 2]), ids(&[3]), ids(&[4, 5])]
            .into_iter()
            .map(|chunks| {
                let actions =
                    collect(|out| v.on_chunks_served_into(receiver, chunks, SimTime::ZERO, out));
                timers(&actions)[0]
            })
            .collect();
        assert_eq!(v.pending_checks(), 3);
        // The ack covers the first two chunk lists, not the third.
        let ack = AckPayload {
            chunks: ids(&[1, 2, 3]).into(),
            partners: (10..17).map(NodeId::new).collect::<Vec<_>>().into(),
            period: 1,
        };
        let out =
            collect(|out| v.on_ack_into(receiver, ack, SimTime::from_millis(900), &mut rng, out));
        assert!(blames(&out).is_empty());
        let expire = |v: &mut Verifier, timer| {
            blames(&collect(|out| {
                v.on_timer_into(timer, SimTime::from_secs(2), 0, out)
            }))
        };
        assert!(expire(&mut v, ack_timers[0]).is_empty());
        assert!(expire(&mut v, ack_timers[1]).is_empty());
        let bs = expire(&mut v, ack_timers[2]);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].target, receiver);
        assert_eq!(bs[0].value, schedule::missing_ack(7));
        assert_eq!(bs[0].reason, BlameReason::MissingAck);
    }

    #[test]
    fn undersized_ack_is_blamed_for_fanout_decrease() {
        let mut rng = derive_rng(2, 0);
        let mut v = verifier(1);
        let receiver = NodeId::new(5);
        collect(|out| v.on_chunks_served_into(receiver, ids(&[1]), SimTime::ZERO, out));
        let ack = AckPayload {
            chunks: ids(&[1]).into(),
            partners: (10..16).map(NodeId::new).collect::<Vec<_>>().into(), // only 6 of 7
            period: 1,
        };
        let out =
            collect(|out| v.on_ack_into(receiver, ack, SimTime::from_millis(900), &mut rng, out));
        let bs = blames(&out);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].value, 1.0);
        assert_eq!(bs[0].reason, BlameReason::FanoutDecrease);
    }

    #[test]
    fn unconfirmed_witnesses_are_blamed_one_each() {
        let mut rng = derive_rng(3, 0);
        let mut v = verifier(1);
        let receiver = NodeId::new(5);
        collect(|out| v.on_chunks_served_into(receiver, ids(&[1]), SimTime::ZERO, out));
        let witnesses: Vec<NodeId> = (10..17).map(NodeId::new).collect();
        let out = collect(|out| {
            v.on_ack_into(
                receiver,
                AckPayload {
                    chunks: ids(&[1]).into(),
                    partners: witnesses.clone().into(),
                    period: 1,
                },
                SimTime::from_millis(900),
                &mut rng,
                out,
            )
        });
        let confirm_timer = *timers(&out)
            .iter()
            .find(|t| matches!(t, VerifierTimer::ConfirmCheck { .. }))
            .unwrap();
        let token = match confirm_timer {
            VerifierTimer::ConfirmCheck { token } => token,
            _ => unreachable!(),
        };
        // Four witnesses confirm, three stay silent / contradict.
        for w in &witnesses[..4] {
            answer(&mut v, *w, token, true, SimTime::from_millis(950));
        }
        let out = collect(|out| v.on_timer_into(confirm_timer, SimTime::from_secs(2), 0, out));
        let bs = blames(&out);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].value, 3.0);
        assert_eq!(bs[0].reason, BlameReason::ContradictedProposal);
    }

    /// Launches a confirm round against 7 witnesses and returns the token.
    fn launch_confirm_round(v: &mut Verifier, receiver: NodeId, rng: &mut impl Rng) -> u64 {
        collect(|out| v.on_chunks_served_into(receiver, ids(&[1]), SimTime::ZERO, out));
        let out = collect(|out| {
            v.on_ack_into(
                receiver,
                AckPayload {
                    chunks: ids(&[1]).into(),
                    partners: (10..17).map(NodeId::new).collect::<Vec<_>>().into(),
                    period: 1,
                },
                SimTime::from_millis(900),
                rng,
                out,
            )
        });
        match *timers(&out)
            .iter()
            .find(|t| matches!(t, VerifierTimer::ConfirmCheck { .. }))
            .unwrap()
        {
            VerifierTimer::ConfirmCheck { token } => token,
            _ => unreachable!(),
        }
    }

    fn confirm_resends(actions: &[VerifierAction]) -> usize {
        actions.iter().filter(|a| is_confirm(a)).count()
    }

    #[test]
    fn hardened_confirm_retries_silence_then_aborts_without_blame() {
        let mut rng = derive_rng(4, 0);
        let mut v = Verifier::new(
            NodeId::new(1),
            7,
            LiftingConfig::planetlab().with_confirm_retries(2),
            CollusionConfig::none(),
        );
        let receiver = NodeId::new(5);
        let token = launch_confirm_round(&mut v, receiver, &mut rng);
        let timer = VerifierTimer::ConfirmCheck { token };
        // Five witnesses confirm; two stay silent for the whole round.
        for w in (10..15).map(NodeId::new) {
            answer(&mut v, w, token, true, SimTime::from_millis(950));
        }
        // First expiry: re-send to the two silent witnesses, re-arm with a
        // longer (linear backoff) deadline.
        let out = collect(|out| v.on_timer_into(timer, SimTime::from_secs(2), 0, out));
        assert_eq!(confirm_resends(&out), 2);
        assert!(blames(&out).is_empty());
        let deadline = out
            .iter()
            .find_map(|a| match a {
                VerifierAction::StartTimer { deadline, .. } => Some(*deadline),
                _ => None,
            })
            .unwrap();
        let backoff = CONFIRM_TIMEOUT.saturating_mul(2);
        assert_eq!(deadline, SimTime::from_secs(2) + backoff);
        // Second expiry: one retry left.
        let out = collect(|out| v.on_timer_into(timer, deadline, 0, out));
        assert_eq!(confirm_resends(&out), 2);
        assert!(blames(&out).is_empty());
        // Third expiry: retries exhausted — abort, no wrongful blame.
        let out = collect(|out| v.on_timer_into(timer, SimTime::from_secs(10), 0, out));
        assert!(
            blames(&out).is_empty(),
            "silence must never convert to blame"
        );
        assert_eq!(v.pending_checks(), 0);
        let stats = v.confirm_retry_stats();
        assert_eq!(stats.timeouts, 3);
        assert_eq!(stats.resends, 4);
        assert_eq!(stats.aborts, 1);
    }

    #[test]
    fn hardened_confirm_blames_only_explicit_denials() {
        let mut rng = derive_rng(5, 0);
        let mut v = Verifier::new(
            NodeId::new(1),
            7,
            LiftingConfig::planetlab().with_confirm_retries(1),
            CollusionConfig::none(),
        );
        let receiver = NodeId::new(5);
        let token = launch_confirm_round(&mut v, receiver, &mut rng);
        let timer = VerifierTimer::ConfirmCheck { token };
        // Four confirm, two explicitly deny, one stays silent.
        for (i, w) in (10..16).map(NodeId::new).enumerate() {
            answer(&mut v, w, token, i < 4, SimTime::from_millis(950));
        }
        // First expiry retries only the silent witness, not the deniers.
        let out = collect(|out| v.on_timer_into(timer, SimTime::from_secs(2), 0, out));
        assert_eq!(confirm_resends(&out), 1);
        assert!(blames(&out).is_empty());
        // Exhaustion: the two denials are contradictions and are blamed; the
        // silent witness is written off as loss.
        let out = collect(|out| v.on_timer_into(timer, SimTime::from_secs(5), 0, out));
        let bs = blames(&out);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].target, receiver);
        assert_eq!(bs[0].value, 2.0);
        assert_eq!(bs[0].reason, BlameReason::ContradictedProposal);
        assert_eq!(v.confirm_retry_stats().aborts, 1);
    }

    #[test]
    fn lost_confirm_responses_never_wrongly_blame_at_paper_loss() {
        // Regression for the resilience hardening: at the paper's 7 % UDP
        // loss, a lost `ConfirmResponse` must end in timeout/abort — never in
        // a contradicted-proposal blame of an honest proposer. The legacy
        // path (retries = 0) is the wrongful-blame baseline the hardening
        // must beat.
        let loss = 0.07;
        let rounds = 300;
        let mut wrongful_legacy = 0u64;
        for (retries, wrongful_expected_zero) in [(0u32, false), (2u32, true)] {
            let mut rng = derive_rng(6, u64::from(retries));
            let mut v = Verifier::new(
                NodeId::new(1),
                7,
                LiftingConfig::planetlab().with_confirm_retries(retries),
                CollusionConfig::none(),
            );
            let receiver = NodeId::new(5);
            for _ in 0..rounds {
                let token = launch_confirm_round(&mut v, receiver, &mut rng);
                let timer = VerifierTimer::ConfirmCheck { token };
                let mut silent: Vec<NodeId> = (10..17).map(NodeId::new).collect();
                let mut now = SimTime::from_secs(2);
                // Every attempt, each still-silent witness answers honestly
                // but the response is lost with the paper's probability.
                for _ in 0..=retries {
                    silent.retain(|w| {
                        if rng.gen_bool(loss) {
                            return true; // response lost
                        }
                        answer(&mut v, *w, token, true, now - SimDuration::from_millis(1));
                        false
                    });
                    collect(|out| v.on_timer_into(timer, now, 0, out));
                    now += SimDuration::from_secs(2);
                }
            }
            if wrongful_expected_zero {
                assert_eq!(
                    v.blames_emitted(),
                    0,
                    "hardened path must never blame silence"
                );
                let stats = v.confirm_retry_stats();
                assert!(
                    stats.timeouts > 0 && stats.resends > 0,
                    "loss must exercise retries"
                );
            } else {
                wrongful_legacy = v.blames_emitted();
            }
        }
        assert!(
            wrongful_legacy > 0,
            "baseline must show the wrongful blames the hardening removes"
        );
    }

    #[test]
    fn witness_answers_from_its_own_record() {
        let mut v = verifier(2);
        let subject = NodeId::new(1);
        // The witness received a proposal for chunks 1 and 2 from the subject.
        v.on_propose_received(subject, ids(&[1, 2]).into(), SimTime::ZERO);
        let yes = v.on_confirm(
            NodeId::new(0),
            &ConfirmPayload {
                subject,
                chunks: ids(&[1, 2]).into(),
                token: 7,
            },
            SimTime::from_millis(10),
        );
        match &yes[0] {
            VerifierAction::Send {
                to,
                message: VerificationMessage::ConfirmResponse(response),
            } => {
                assert_eq!(*to, NodeId::new(0));
                assert!(response.confirmed);
                assert_eq!(response.token, 7);
            }
            other => panic!("unexpected action {other:?}"),
        }
        let no = v.on_confirm(
            NodeId::new(0),
            &ConfirmPayload {
                subject,
                chunks: ids(&[9]).into(),
                token: 8,
            },
            SimTime::from_millis(20),
        );
        match &no[0] {
            VerifierAction::Send {
                message: VerificationMessage::ConfirmResponse(response),
                ..
            } => assert!(!response.confirmed),
            other => panic!("unexpected action {other:?}"),
        }
        // The confirm requests were recorded (for later audits of the subject).
        assert_eq!(
            v.history().confirm_askers_about(subject),
            vec![NodeId::new(0), NodeId::new(0)]
        );
    }

    #[test]
    fn colluding_witness_covers_up_coalition_members() {
        let coalition = Arc::new(vec![NodeId::new(1), NodeId::new(2)]);
        let mut v = Verifier::new(
            NodeId::new(2),
            7,
            LiftingConfig::planetlab(),
            CollusionConfig::coalition(coalition, true, false),
        );
        // Never received anything from node 1, yet vouches for it.
        let out = v.on_confirm(
            NodeId::new(0),
            &ConfirmPayload {
                subject: NodeId::new(1),
                chunks: ids(&[5]).into(),
                token: 1,
            },
            SimTime::ZERO,
        );
        match &out[0] {
            VerifierAction::Send {
                message: VerificationMessage::ConfirmResponse(response),
                ..
            } => assert!(response.confirmed),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn colluding_verifier_never_blames_accomplices() {
        let coalition = Arc::new(vec![NodeId::new(1), NodeId::new(5)]);
        let mut v = Verifier::new(
            NodeId::new(1),
            7,
            LiftingConfig::planetlab(),
            CollusionConfig::coalition(coalition, true, false),
        );
        let actions =
            collect(|out| v.on_chunks_served_into(NodeId::new(5), ids(&[1]), SimTime::ZERO, out));
        // The accomplice never acknowledges, but no blame is emitted.
        let out =
            collect(|out| v.on_timer_into(timers(&actions)[0], SimTime::from_secs(2), 0, out));
        assert!(blames(&out).is_empty());
        assert_eq!(v.blames_emitted(), 0);
    }

    #[test]
    fn man_in_the_middle_names_accomplices_in_acks() {
        let coalition = Arc::new(vec![NodeId::new(1), NodeId::new(7), NodeId::new(8)]);
        let mut v = Verifier::new(
            NodeId::new(1),
            7,
            LiftingConfig::planetlab(),
            CollusionConfig::coalition(coalition, true, true),
        );
        let round = ProposeRound {
            period: 3,
            chunks: ids(&[1, 2]).into(),
            partners: vec![NodeId::new(20), NodeId::new(21)],
            by_source: vec![(NodeId::new(10), ids(&[1, 2]))],
            dropped_sources: vec![],
        };
        let actions = collect(|out| v.on_propose_round_into(&round, SimTime::ZERO, out));
        let ack = actions
            .iter()
            .find_map(|a| match a {
                VerifierAction::Send {
                    to,
                    message: VerificationMessage::Ack(ack),
                } => Some((*to, (**ack).clone())),
                _ => None,
            })
            .expect("an ack is owed to the server");
        assert_eq!(ack.0, NodeId::new(10));
        // The acknowledged partners are the accomplices, not the real targets.
        assert_eq!(&ack.1.partners[..], &[NodeId::new(7), NodeId::new(8)]);
    }

    #[test]
    fn honest_ack_names_the_real_partners_and_skips_own_chunks() {
        let mut v = verifier(1);
        let round = ProposeRound {
            period: 2,
            chunks: ids(&[1, 2, 3]).into(),
            partners: vec![NodeId::new(20), NodeId::new(21)],
            by_source: vec![
                (NodeId::new(10), ids(&[1])),
                (NodeId::new(1), ids(&[2])), // our own chunk (we are the source)
                (NodeId::new(11), ids(&[3])),
            ],
            dropped_sources: vec![],
        };
        let actions = collect(|out| v.on_propose_round_into(&round, SimTime::ZERO, out));
        let acks: Vec<(NodeId, AckPayload)> = actions
            .iter()
            .filter_map(|a| match a {
                VerifierAction::Send {
                    to,
                    message: VerificationMessage::Ack(ack),
                } => Some((*to, (**ack).clone())),
                _ => None,
            })
            .collect();
        assert_eq!(acks.len(), 2);
        assert!(acks
            .iter()
            .all(|(_, a)| a.partners[..] == round.partners[..]));
        // The proposal went into the history.
        assert_eq!(v.history().fanout_multiset().len(), 2);
    }

    #[test]
    fn low_pdcc_rarely_triggers_confirms() {
        let mut rng = derive_rng(9, 0);
        let mut v = Verifier::new(
            NodeId::new(1),
            7,
            LiftingConfig::planetlab().with_pdcc(0.1),
            CollusionConfig::none(),
        );
        let mut confirm_rounds = 0;
        for i in 0..200 {
            let receiver = NodeId::new(100 + i);
            collect(|out| v.on_chunks_served_into(receiver, ids(&[i as u64]), SimTime::ZERO, out));
            let out = collect(|out| {
                v.on_ack_into(
                    receiver,
                    AckPayload {
                        chunks: ids(&[i as u64]).into(),
                        partners: (10..17).map(NodeId::new).collect::<Vec<_>>().into(),
                        period: 1,
                    },
                    SimTime::from_millis(500),
                    &mut rng,
                    out,
                )
            });
            if out.iter().any(is_confirm) {
                confirm_rounds += 1;
            }
        }
        assert!(
            (10..=40).contains(&confirm_rounds),
            "≈10% of 200 acks should be cross-checked, got {confirm_rounds}"
        );
    }
}

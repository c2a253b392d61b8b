//! The a-posteriori audit plane (Section 5.3).
//!
//! Audits are the one procedure that cannot live inside a single node's
//! stack: the auditor pulls the target's bounded history over TCP and then
//! polls *other* nodes (the witnesses) to cross-check it. The
//! [`AuditCoordinator`] therefore operates over the whole stack array and
//! the network, and hands the runtime a typed [`AuditOutcome`] to apply.
//!
//! The membership directory gates every witness poll: an expelled or
//! departed node is never contacted (it would be handed a witness slot
//! otherwise — the invariant `runtime/tests/churn_invariants.rs` pins), and
//! a negative verdict that relied on such a missing witness is downgraded to
//! [`AuditOutcome::Aborted`] — the silence of a node that left is
//! indistinguishable from misbehaviour, so the audit times out rather than
//! wedging the cross-check into a wrongful blame or expulsion.
//!
//! Every audit RPC (the history poll, each witness poll) is partition-aware:
//! a partitioned peer is still listed by the directory, so the request goes
//! out, times out, and is re-sent `RPC_RETRIES` times `RPC_BACKOFF` apart;
//! when the retries exhaust, a history poll aborts the audit and a witness
//! poll counts as a missing witness. Without a partition no RPC times out,
//! so the path costs nothing and changes nothing.

use lifting_core::{AuditOracle, AuditVerdict, Auditor, Blame, BlameReason, VerificationMessage};
use lifting_gossip::ChunkId;
use lifting_membership::Directory;
use lifting_net::{Network, TrafficCategory};
use lifting_sim::{NodeId, SimDuration, SimTime, StreamId};
use serde::{Deserialize, Serialize};

use super::NodeStack;

/// Re-sends of an audit RPC whose peer is partitioned, after the first try.
const RPC_RETRIES: u32 = 2;

/// Deterministic delay between consecutive tries of an audit RPC.
const RPC_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// What an audit concluded about its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuditOutcome {
    /// The history passed every check.
    Pass,
    /// Unconfirmed entries: blame the target proportionally.
    Blame(Blame),
    /// Entropy or phase-count checks failed hard: expel the target.
    Expel,
    /// A witness named in the history departed before it could be polled and
    /// the remaining evidence pointed at a negative verdict: the audit is
    /// abandoned without consequence (it would otherwise convert churn into
    /// blame). Counted per run as `audits_aborted_by_departure`.
    Aborted,
}

/// Counters of the partition-aware audit RPCs. All zero when no node is
/// ever partitioned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditRpcStats {
    /// Audit RPCs (history polls, witness cross-checks) that timed out
    /// because the peer was unreachable.
    pub rpc_timeouts: u64,
    /// RPCs re-sent after a timeout (deterministic backoff).
    pub rpc_retries: u64,
    /// Audits abandoned outright because the auditor or its target stayed
    /// unreachable through every retry.
    pub aborted_unreachable: u64,
}

impl AuditRpcStats {
    /// Sends an RPC of `bytes` that cannot reach `to`: the first try at
    /// `now`, then [`RPC_RETRIES`] re-sends [`RPC_BACKOFF`] apart, each
    /// timing out.
    fn time_out(
        &mut self,
        network: &mut Network,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        now: SimTime,
    ) {
        for attempt in 0..=RPC_RETRIES {
            let at = now + RPC_BACKOFF.saturating_mul(u64::from(attempt));
            network.send(at, from, to, bytes, TrafficCategory::Audit);
            self.rpc_timeouts += 1;
        }
        self.rpc_retries += u64::from(RPC_RETRIES);
    }
}

/// Runs a-posteriori audits over the node stacks.
#[derive(Debug)]
pub struct AuditCoordinator {
    auditor: Auditor,
    stats: AuditRpcStats,
}

impl AuditCoordinator {
    /// Creates a coordinator around a configured [`Auditor`].
    pub fn new(auditor: Auditor) -> Self {
        AuditCoordinator {
            auditor,
            stats: AuditRpcStats::default(),
        }
    }

    /// The entropy threshold the auditor applies.
    pub fn gamma(&self) -> f64 {
        self.auditor.gamma()
    }

    /// Counters of the partition-aware RPCs (all zero without partitions).
    pub fn rpc_stats(&self) -> AuditRpcStats {
        self.stats
    }

    /// Audits `target`'s conduct **on one stream** on behalf of `auditor`:
    /// transfers that plane's history over the network (accounted as audit
    /// traffic), polls the witnesses through the live node states — skipping
    /// any witness the `directory` no longer lists as active — runs the
    /// entropy and cross-checks, and returns the outcome for the runtime to
    /// apply. Histories are plane-local, so an audit always answers for a
    /// specific channel; the blame it may produce carries that stream and
    /// still lands in the target's one cross-stream score.
    #[allow(clippy::too_many_arguments)]
    pub fn audit(
        &mut self,
        stacks: &[NodeStack],
        network: &mut Network,
        directory: &Directory,
        auditor: NodeId,
        target: NodeId,
        stream: StreamId,
        now: SimTime,
    ) -> AuditOutcome {
        // The history poll is an RPC with a timeout. A partitioned target (or
        // auditor) cannot complete the TCP transfer; the poll is re-sent with
        // deterministic backoff — the partition cannot heal mid-audit, so the
        // retries model the timeout traffic — and the audit then degrades to
        // `Aborted` instead of judging the target on evidence it never
        // received.
        if network.is_partitioned(auditor) || network.is_partitioned(target) {
            let request = VerificationMessage::HistoryRequest.wire_size();
            self.stats.time_out(network, auditor, target, request, now);
            self.stats.aborted_unreachable += 1;
            return AuditOutcome::Aborted;
        }
        // Account the TCP history transfer. The history is only read, so the
        // transfer is sized and the audit run entirely from a borrow — the
        // old wiring cloned the whole bounded history twice per audit.
        let history = stacks[target.index()].plane(stream).verifier.history();
        network.send(
            now,
            auditor,
            target,
            VerificationMessage::HistoryRequest.wire_size(),
            TrafficCategory::Audit,
        );
        network.send(
            now,
            target,
            auditor,
            VerificationMessage::history_response_wire_size(history),
            TrafficCategory::Audit,
        );

        // Poll the witnesses through the real node states, accounting traffic.
        let (report, missing_witness) = {
            let mut oracle = StackAuditOracle {
                stacks,
                network,
                directory,
                auditor,
                stream,
                now,
                missing_witness: false,
                stats: &mut self.stats,
            };
            let report = self.auditor.audit(history, &mut oracle);
            (report, oracle.missing_witness)
        };

        match report.verdict {
            // Missing witnesses weaken the evidence (unconfirmed pushes, a
            // thinner fanin multiset): give the target the benefit of the
            // doubt rather than converting someone else's departure into a
            // blame or an expulsion. A clean pass stands either way.
            AuditVerdict::Expel | AuditVerdict::Blamed if missing_witness => AuditOutcome::Aborted,
            AuditVerdict::Expel => AuditOutcome::Expel,
            AuditVerdict::Blamed => AuditOutcome::Blame(Blame::on_stream(
                stream,
                target,
                report.blame,
                BlameReason::UnconfirmedHistoryEntry,
            )),
            AuditVerdict::Pass => AuditOutcome::Pass,
        }
    }
}

/// Audit oracle backed by the live node stacks; every poll is accounted as
/// audit traffic (TCP). Inactive witnesses are never contacted: no traffic,
/// no answer, `missing_witness` raised.
struct StackAuditOracle<'a> {
    stacks: &'a [NodeStack],
    network: &'a mut Network,
    directory: &'a Directory,
    auditor: NodeId,
    stream: StreamId,
    now: SimTime,
    missing_witness: bool,
    stats: &'a mut AuditRpcStats,
}

impl StackAuditOracle<'_> {
    /// Reachability check for one witness poll of `request_bytes`. A
    /// partitioned witness is still listed by the directory, so the poll
    /// goes out and times out through every retry. Returns false when the
    /// witness cannot answer (departed, expelled or partitioned).
    fn poll_reaches(&mut self, witness: NodeId, request_bytes: u64) -> bool {
        if !self.directory.is_active(witness) {
            // Departed or expelled: there is no endpoint to poll at all.
            return false;
        }
        if !self.network.is_partitioned(witness) && !self.network.is_partitioned(self.auditor) {
            return true;
        }
        self.stats
            .time_out(self.network, self.auditor, witness, request_bytes, self.now);
        false
    }
}

impl AuditOracle for StackAuditOracle<'_> {
    fn confirm_proposal(&mut self, witness: NodeId, subject: NodeId, chunks: &[ChunkId]) -> bool {
        let request_bytes = 32 + 8 * chunks.len() as u64;
        if !self.poll_reaches(witness, request_bytes) {
            self.missing_witness = true;
            return false;
        }
        self.network.send(
            self.now,
            self.auditor,
            witness,
            request_bytes,
            TrafficCategory::Audit,
        );
        self.network
            .send(self.now, witness, self.auditor, 24, TrafficCategory::Audit);
        self.stacks[witness.index()]
            .plane(self.stream)
            .verifier
            .answer_audit_poll(subject, chunks)
    }

    fn confirm_askers(&mut self, witness: NodeId, subject: NodeId) -> Vec<NodeId> {
        if !self.poll_reaches(witness, 32) {
            self.missing_witness = true;
            return Vec::new();
        }
        self.network
            .send(self.now, self.auditor, witness, 32, TrafficCategory::Audit);
        let askers = self.stacks[witness.index()]
            .plane(self.stream)
            .verifier
            .confirm_askers_about(subject);
        self.network.send(
            self.now,
            witness,
            self.auditor,
            24 + 6 * askers.len() as u64,
            TrafficCategory::Audit,
        );
        askers
    }
}

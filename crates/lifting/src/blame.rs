//! Blame values (Table 1 of the paper).
//!
//! A blame's value is proportional to the number of invalid pushes, which
//! makes blames emitted by different verification procedures directly
//! comparable and summable into a single score.

use lifting_sim::{NodeId, StreamId};

/// Why a blame was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlameReason {
    /// Some requested chunks were never served (direct verification).
    PartialServe,
    /// No acknowledgment was received after serving chunks (cross-checking).
    MissingAck,
    /// The acknowledgment listed fewer than `f` partners (fanout decrease).
    FanoutDecrease,
    /// A witness contradicted the acknowledged proposal, or never answered
    /// (cross-checking).
    ContradictedProposal,
    /// A proposal logged in the audited history was not confirmed by its
    /// alleged receiver (a-posteriori cross-check).
    UnconfirmedHistoryEntry,
    /// The audited history contains fewer propose phases than the protocol
    /// mandates (gossip-period stretching).
    MissingProposePhases,
}

/// A blame against a node.
///
/// The `stream` field records which channel's verification produced the
/// blame. It is provenance only: the reputation managers aggregate blames
/// from *every* stream into one score per node (that cross-stream
/// aggregation is what lets misbehaviour on one channel cost access to all
/// of them), so scoring never reads the field — metrics and invariant tests
/// do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blame {
    /// The node being blamed.
    pub target: NodeId,
    /// The blame value (non-negative; see [`schedule`]).
    pub value: f64,
    /// The reason the blame was emitted.
    pub reason: BlameReason,
    /// The stream whose verification emitted the blame.
    pub stream: StreamId,
}

impl Blame {
    /// Creates a blame on the primary stream, clamping negative values to
    /// zero.
    pub fn new(target: NodeId, value: f64, reason: BlameReason) -> Self {
        Blame::on_stream(StreamId::PRIMARY, target, value, reason)
    }

    /// Creates a blame attributed to `stream`, clamping negative values to
    /// zero.
    pub fn on_stream(stream: StreamId, target: NodeId, value: f64, reason: BlameReason) -> Self {
        Blame {
            target,
            value: value.max(0.0),
            reason,
            stream,
        }
    }
}

/// The blame schedule of Table 1.
pub mod schedule {
    /// Blame applied by the requester when only `served` of the `requested`
    /// chunks arrived: `f·(|R| - |S|)/|R|`, i.e. `f` when nothing arrived.
    ///
    /// Returns 0 when nothing was requested.
    pub fn partial_serve(fanout: usize, requested: usize, served: usize) -> f64 {
        if requested == 0 {
            return 0.0;
        }
        let missing = requested.saturating_sub(served);
        fanout as f64 * missing as f64 / requested as f64
    }

    /// Blame applied by a verifier when no acknowledgment arrives: `f`.
    pub fn missing_ack(fanout: usize) -> f64 {
        fanout as f64
    }

    /// Blame applied by a verifier when the acknowledgment names only `f̂ < f`
    /// partners: `f - f̂`.
    pub fn fanout_decrease(fanout: usize, acknowledged: usize) -> f64 {
        fanout.saturating_sub(acknowledged) as f64
    }

    /// Blame applied per witness that contradicts (or fails to confirm) the
    /// acknowledged proposal: 1 per invalid proposal.
    pub fn contradicted_proposal(contradictions: usize) -> f64 {
        contradictions as f64
    }

    /// Blame applied per proposal in an audited history that its alleged
    /// receiver does not acknowledge: 1 each.
    pub fn unconfirmed_history_entries(count: usize) -> f64 {
        count as f64
    }

    /// Blame applied when the audited history contains `found` propose phases
    /// where `expected` were mandated: `f` per missing phase (one whole
    /// proposal's worth of pushes skipped per phase).
    pub fn missing_propose_phases(fanout: usize, expected: usize, found: usize) -> f64 {
        fanout as f64 * expected.saturating_sub(found) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_serve_follows_table_1() {
        // f = 7, |R| = 4: one missing chunk costs 7/4, all missing costs 7.
        assert!((schedule::partial_serve(7, 4, 3) - 1.75).abs() < 1e-12);
        assert!((schedule::partial_serve(7, 4, 0) - 7.0).abs() < 1e-12);
        assert_eq!(schedule::partial_serve(7, 4, 4), 0.0);
        assert_eq!(schedule::partial_serve(7, 0, 0), 0.0);
        // Serving more than requested never yields negative blame.
        assert_eq!(schedule::partial_serve(7, 4, 9), 0.0);
    }

    #[test]
    fn fanout_decrease_follows_table_1() {
        assert_eq!(schedule::fanout_decrease(7, 6), 1.0);
        assert_eq!(schedule::fanout_decrease(7, 7), 0.0);
        assert_eq!(schedule::fanout_decrease(7, 9), 0.0);
        assert_eq!(schedule::missing_ack(7), 7.0);
    }

    #[test]
    fn audit_blames_count_invalid_entries() {
        assert_eq!(schedule::contradicted_proposal(3), 3.0);
        assert_eq!(schedule::unconfirmed_history_entries(12), 12.0);
        assert_eq!(schedule::missing_propose_phases(7, 50, 45), 35.0);
        assert_eq!(schedule::missing_propose_phases(7, 50, 50), 0.0);
        assert_eq!(schedule::missing_propose_phases(7, 50, 60), 0.0);
    }

    #[test]
    fn blames_are_never_negative() {
        let b = Blame::new(NodeId::new(1), -4.0, BlameReason::PartialServe);
        assert_eq!(b.value, 0.0);
        let b = Blame::new(NodeId::new(1), 2.5, BlameReason::MissingAck);
        assert_eq!(b.value, 2.5);
        assert_eq!(b.target, NodeId::new(1));
    }
}

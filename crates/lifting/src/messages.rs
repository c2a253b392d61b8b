//! LiFTinG verification messages and their wire-size model.
//!
//! Direct cross-checking exchanges (ack / confirm / confirm response) are
//! small and travel over UDP (Section 5.2); blame messages go to the
//! reputation managers over UDP as well; history transfers for a-posteriori
//! audits use TCP (Section 5.3). Sizes feed the overhead accounting of
//! Table 5.

use std::sync::Arc;

use lifting_gossip::ChunkId;
use lifting_sim::{NodeId, StreamId};

use crate::blame::Blame;
use crate::history::NodeHistory;

/// Fixed application-level header of every verification message.
pub const MESSAGE_HEADER_BYTES: u64 = 16;
/// Wire size of one chunk identifier.
pub const CHUNK_ID_BYTES: u64 = 8;
/// Wire size of one node identifier (IPv4 + port).
pub const NODE_ID_BYTES: u64 = 6;
/// Wire size of one blame value.
pub const BLAME_VALUE_BYTES: u64 = 8;

/// Acknowledgment sent by a receiver to the node that served it chunks,
/// naming the partners to which the chunks were further proposed
/// (`ack[i](p2, p3)` in Figure 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckPayload {
    /// The chunks (served by the destination of this ack) that were proposed.
    /// Shared, not owned: the verifier forwards the same list into each of
    /// the `f` confirm requests it derives from this ack.
    pub chunks: Arc<[ChunkId]>,
    /// The partners the proposal was sent to (shared across the acks of one
    /// propose round and with the verifier's pending-confirm witness set).
    pub partners: Arc<[NodeId]>,
    /// The gossip period of the propose phase that forwarded the chunks.
    pub period: u64,
}

/// Confirm request sent by a verifier to a witness: "did `subject` propose
/// these chunks to you?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfirmPayload {
    /// The node whose forwarding is being verified.
    pub subject: NodeId,
    /// The chunks the subject acknowledged having proposed (shared with the
    /// ack they came from and with the other witnesses' confirms).
    pub chunks: Arc<[ChunkId]>,
    /// Token correlating the responses with the verifier's pending check.
    pub token: u64,
}

/// A witness's answer to a confirm request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfirmResponsePayload {
    /// The node whose forwarding was being verified.
    pub subject: NodeId,
    /// The stream whose forwarding was being verified. Carried explicitly —
    /// this is the one verification payload with no chunk ids to derive it
    /// from, and the receiving stack needs it to route the response into the
    /// right plane's pending-confirm table (tokens are plane-local). On the
    /// wire it rides in the fixed message header, so the size model is
    /// unchanged.
    pub stream: StreamId,
    /// Token copied from the confirm request.
    pub token: u64,
    /// True if the witness indeed received a proposal from the subject
    /// containing the chunks.
    pub confirmed: bool,
}

/// Any LiFTinG verification message.
///
/// The two payload-heavy variants are boxed so that the enum — and every
/// simulation event carrying it through the scheduler's binary heap — stays
/// small: the box is allocated when the payload (which already owns `Vec`s)
/// is built, not on the per-event hot path.
#[derive(Debug, Clone, PartialEq)]
pub enum VerificationMessage {
    /// Acknowledgment from a receiver to its server (UDP).
    Ack(Box<AckPayload>),
    /// Confirm request from a verifier to a witness (UDP). One payload is
    /// shared (refcounted) by all the witnesses of a cross-check round.
    Confirm(Arc<ConfirmPayload>),
    /// Confirm response from a witness to the verifier (UDP).
    ConfirmResponse(ConfirmResponsePayload),
    /// Blame sent to one of the target's reputation managers (UDP).
    Blame(Blame),
    /// Request for a node's history (a-posteriori audit, TCP).
    HistoryRequest,
    /// A node's history uploaded to the auditor (TCP).
    HistoryResponse(Box<NodeHistory>),
}

impl VerificationMessage {
    /// Application-level payload size in bytes.
    pub fn wire_size(&self) -> u64 {
        match self {
            VerificationMessage::Ack(a) => {
                MESSAGE_HEADER_BYTES
                    + CHUNK_ID_BYTES * a.chunks.len() as u64
                    + NODE_ID_BYTES * a.partners.len() as u64
            }
            VerificationMessage::Confirm(c) => {
                MESSAGE_HEADER_BYTES + NODE_ID_BYTES + CHUNK_ID_BYTES * c.chunks.len() as u64
            }
            VerificationMessage::ConfirmResponse(_) => MESSAGE_HEADER_BYTES + NODE_ID_BYTES + 1,
            VerificationMessage::Blame(_) => {
                MESSAGE_HEADER_BYTES + NODE_ID_BYTES + BLAME_VALUE_BYTES
            }
            VerificationMessage::HistoryRequest => MESSAGE_HEADER_BYTES,
            VerificationMessage::HistoryResponse(h) => Self::history_response_wire_size(h),
        }
    }

    /// Wire size of a [`HistoryResponse`](Self::HistoryResponse) carrying
    /// `history`, computable from a borrow — audit accounting uses this so it
    /// never has to clone a whole history just to size the upload.
    pub fn history_response_wire_size(history: &NodeHistory) -> u64 {
        MESSAGE_HEADER_BYTES + history.wire_size()
    }

    /// The stream this message verifies, when it is addressed to a specific
    /// verification plane: derived from the chunk ids for acks and confirms,
    /// carried explicitly by confirm responses. `None` for blames (addressed
    /// to the stream-agnostic reputation plane) and history transfers (the
    /// audit coordinator already knows which plane it is auditing).
    pub fn stream(&self) -> Option<StreamId> {
        match self {
            VerificationMessage::Ack(a) => a.chunks.first().map(|c| c.stream()),
            VerificationMessage::Confirm(c) => c.chunks.first().map(|c| c.stream()),
            VerificationMessage::ConfirmResponse(r) => Some(r.stream),
            VerificationMessage::Blame(_)
            | VerificationMessage::HistoryRequest
            | VerificationMessage::HistoryResponse(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::BlameReason;

    #[test]
    fn ack_size_scales_with_chunks_and_partners() {
        let ack = VerificationMessage::Ack(Box::new(AckPayload {
            chunks: vec![ChunkId::primary(1), ChunkId::primary(2)].into(),
            partners: vec![NodeId::new(3); 7].into(),
            period: 1,
        }));
        assert_eq!(ack.wire_size(), 16 + 2 * 8 + 7 * 6);
    }

    #[test]
    fn confirm_and_response_are_small() {
        let confirm = VerificationMessage::Confirm(Arc::new(ConfirmPayload {
            subject: NodeId::new(1),
            chunks: vec![ChunkId::primary(1)].into(),
            token: 9,
        }));
        assert_eq!(confirm.wire_size(), 16 + 6 + 8);
        let resp = VerificationMessage::ConfirmResponse(ConfirmResponsePayload {
            subject: NodeId::new(1),
            stream: StreamId::PRIMARY,
            token: 9,
            confirmed: true,
        });
        assert_eq!(resp.wire_size(), 16 + 6 + 1);
        assert_eq!(resp.stream(), Some(StreamId::PRIMARY));
        assert_eq!(confirm.stream(), Some(StreamId::PRIMARY));
    }

    #[test]
    fn blame_message_has_fixed_size() {
        let blame =
            VerificationMessage::Blame(Blame::new(NodeId::new(8), 3.5, BlameReason::PartialServe));
        assert_eq!(blame.wire_size(), 16 + 6 + 8);
        assert_eq!(VerificationMessage::HistoryRequest.wire_size(), 16);
    }
}

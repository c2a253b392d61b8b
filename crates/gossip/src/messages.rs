//! Wire messages of the three-phase protocol and their size model.
//!
//! Sizes matter because Table 5 of the paper reports bandwidth overhead
//! ratios. We model application-level payload sizes (the transport headers
//! are added by `lifting-net`): 8 bytes per chunk identifier, 6 bytes per node
//! identifier (IPv4 + port, as on PlanetLab) and a small fixed header per
//! message.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::chunk::{Chunk, ChunkId};

/// Fixed application-level header of every gossip message (message type,
/// sender identity, period number).
pub const MESSAGE_HEADER_BYTES: u64 = 16;
/// Wire size of one chunk identifier.
pub const CHUNK_ID_BYTES: u64 = 8;
/// Wire size of one node identifier (IPv4 address + port).
pub const NODE_ID_BYTES: u64 = 6;

/// A propose message: the chunk ids received since the last propose phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProposePayload {
    /// The proposer's gossip-period counter (used by receivers to order
    /// proposals; not trusted by any verification).
    pub period: u64,
    /// Chunk ids on offer. Shared, not owned: one propose phase sends the
    /// identical list to `f` partners, each receiver's history keeps it, and
    /// the proposer's outstanding offers reference it — all one allocation.
    pub chunks: Arc<[ChunkId]>,
}

/// A request message: the subset of proposed chunks the receiver needs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestPayload {
    /// Chunk ids requested (shared with the requester's pending serve check).
    pub chunks: Arc<[ChunkId]>,
}

/// A serve message carrying one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServePayload {
    /// The chunk being served (payload modelled by its size).
    pub chunk: Chunk,
}

/// Any message of the three-phase gossip protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GossipMessage {
    /// Phase 1: propose chunk ids to a partner.
    Propose(ProposePayload),
    /// Phase 2: request needed chunks from the proposer.
    Request(RequestPayload),
    /// Phase 3: serve one requested chunk.
    Serve(ServePayload),
}

impl GossipMessage {
    /// Application-level payload size of the message in bytes.
    pub fn wire_size(&self) -> u64 {
        match self {
            GossipMessage::Propose(p) => {
                MESSAGE_HEADER_BYTES + CHUNK_ID_BYTES * p.chunks.len() as u64
            }
            GossipMessage::Request(r) => {
                MESSAGE_HEADER_BYTES + CHUNK_ID_BYTES * r.chunks.len() as u64
            }
            GossipMessage::Serve(s) => {
                MESSAGE_HEADER_BYTES + CHUNK_ID_BYTES + s.chunk.size_bytes as u64
            }
        }
    }

    /// The stream this message belongs to, derived from the chunk identities
    /// it carries (a stream id needs no wire bytes of its own: it is packed
    /// into every chunk id). `None` only for a degenerate empty proposal or
    /// request, which the protocol never sends.
    pub fn stream(&self) -> Option<lifting_sim::StreamId> {
        match self {
            GossipMessage::Propose(p) => p.chunks.first().map(|c| c.stream()),
            GossipMessage::Request(r) => r.chunks.first().map(|c| c.stream()),
            GossipMessage::Serve(s) => Some(s.chunk.id.stream()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::SimTime;

    #[test]
    fn wire_sizes_scale_with_content() {
        let propose = GossipMessage::Propose(ProposePayload {
            period: 3,
            chunks: vec![
                ChunkId::primary(1),
                ChunkId::primary(2),
                ChunkId::primary(3),
            ]
            .into(),
        });
        assert_eq!(propose.wire_size(), 16 + 3 * 8);

        let request = GossipMessage::Request(RequestPayload {
            chunks: vec![ChunkId::primary(1)].into(),
        });
        assert_eq!(request.wire_size(), 16 + 8);

        let serve = GossipMessage::Serve(ServePayload {
            chunk: Chunk::new(ChunkId::primary(9), 4_096, SimTime::ZERO),
        });
        assert_eq!(serve.wire_size(), 16 + 8 + 4_096);
    }

    #[test]
    fn empty_proposal_is_just_a_header() {
        let propose = GossipMessage::Propose(ProposePayload {
            period: 0,
            chunks: vec![].into(),
        });
        assert_eq!(propose.wire_size(), MESSAGE_HEADER_BYTES);
    }
}

//! Three-phase asymmetric gossip dissemination (Section 3 of the paper).
//!
//! Content is split into chunks identified by chunk ids. Every gossip period
//! `Tg` a node *proposes* the set of chunks it received since its last propose
//! phase to `f` partners picked uniformly at random; each partner *requests*
//! the chunks it misses; the proposer then *serves* the requested chunks.
//! Gossip is infect-and-die: once proposed, a chunk is never proposed again by
//! the same node. All dissemination runs over lossy UDP and nothing is
//! retransmitted.
//!
//! The crate is written sans-IO: [`node::GossipNode`] is a pure state machine
//! whose methods return the messages to send; `lifting-runtime` moves them
//! through the simulated network, and unit tests drive them directly.
//! Everything a node knows about a chunk — held since when, requested until
//! when, already proposed — is one 8-byte slot of its
//! [`buffer::PlayoutBuffer`], indexed by the chunk's sequence number
//! (`tests/chunk_table_reference.rs` checks it against a naive model). What
//! every node knows alike — a chunk's emission instant and size — is not
//! stored per node: one [`source::StreamClock`] per stream defines it.
//!
//! Freerider behaviours from Section 4 of the paper are first-class:
//! [`behavior::Behavior`] captures the degree of freeriding
//! `Δ = (δ1, δ2, δ3)` (reduced fanout, partial propose, partial serve) and the
//! gossip-period stretching attack; biased partner selection lives in
//! `lifting-membership`, and verification-layer collusion (cover-ups and the
//! man-in-the-middle of Figure 8b) lives in `lifting-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod buffer;
pub mod chunk;
pub mod config;
pub mod messages;
pub mod node;
pub mod source;

pub use behavior::{Behavior, FreeriderConfig};
pub use buffer::{PlayoutBuffer, StreamHealth};
pub use chunk::{Chunk, ChunkId};
pub use config::GossipConfig;
pub use messages::{GossipMessage, ProposePayload, RequestPayload, ServePayload};
pub use node::{GossipNode, ProposeRound};
pub use source::{StreamClock, StreamSource};

pub use lifting_sim::NodeId;

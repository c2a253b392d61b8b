//! Stream chunks.

use std::fmt;
use std::mem::size_of;
use std::sync::Arc;

use lifting_sim::{SimTime, StreamId};
use serde::Serialize;

/// Identifier of a stream chunk: the pair `(StreamId, ChunkIndex)`.
///
/// Chunk indices are assigned sequentially by each stream's broadcast source,
/// so within a stream they double as stream positions. The pair is packed
/// into one word — stream in the top [`STREAM_BITS`](ChunkId::STREAM_BITS)
/// bits, index below — so a chunk id still costs 8 bytes on the wire and in
/// every message payload, and per-stream state can keep using flat
/// index-addressed storage via [`index`](ChunkId::index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct ChunkId(pub u64);

impl ChunkId {
    /// Bits reserved for the stream identifier (up to 65,536 channels).
    pub const STREAM_BITS: u32 = 16;
    /// Bits left for the per-stream sequence number.
    pub const INDEX_BITS: u32 = 64 - Self::STREAM_BITS;
    const INDEX_MASK: u64 = (1 << Self::INDEX_BITS) - 1;

    /// Creates a chunk identifier for position `index` of `stream`.
    pub const fn new(stream: StreamId, index: u64) -> Self {
        debug_assert!(index <= Self::INDEX_MASK, "chunk index overflows 48 bits");
        ChunkId(((stream.0 as u64) << Self::INDEX_BITS) | (index & Self::INDEX_MASK))
    }

    /// Creates a chunk identifier on the primary stream (the single-channel
    /// scenarios' only stream).
    pub const fn primary(index: u64) -> Self {
        ChunkId::new(StreamId::PRIMARY, index)
    }

    /// The stream this chunk belongs to.
    pub const fn stream(self) -> StreamId {
        StreamId((self.0 >> Self::INDEX_BITS) as u16)
    }

    /// The sequence number within the stream (dense; usable as an index into
    /// per-stream flat storage).
    pub const fn index(self) -> u64 {
        self.0 & Self::INDEX_MASK
    }

    /// The raw packed word. Orders by `(stream, index)` lexicographically.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stream() == StreamId::PRIMARY {
            write!(f, "c{}", self.index())
        } else {
            write!(f, "{}c{}", self.stream(), self.index())
        }
    }
}

/// The heap bytes of a shared list (of chunk ids, or of the node ids an ack
/// names) charged to one of its holders: the allocation (two reference
/// counts, then the items) divided by the number of `Arc`s pointing at it.
/// One round's list is held by the wire payloads, the outstanding checks and
/// the sender's and receivers' histories; summed over the holders
/// a capacity walk visits, it is counted once, not once per holder (holders
/// the walk does not visit, such as in-flight payloads, keep their share).
pub fn shared_list_heap_bytes<T>(list: &Arc<[T]>) -> usize {
    (2 * size_of::<usize>() + list.len() * size_of::<T>()) / Arc::strong_count(list)
}

/// A stream chunk: its identity, its size on the wire and the instant the
/// source emitted it (used to measure stream lag at the receivers).
///
/// The payload itself is modelled by its size only — every metric of the paper
/// (stream health, overhead ratios, scores) is a function of chunk timing and
/// byte counts, never of payload content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Chunk {
    /// Chunk identity (stream and sequence number within it).
    pub id: ChunkId,
    /// Payload size in bytes.
    pub size_bytes: u32,
    /// Instant at which the source emitted this chunk.
    pub emitted_at: SimTime,
}

impl Chunk {
    /// Creates a chunk.
    pub fn new(id: ChunkId, size_bytes: u32, emitted_at: SimTime) -> Self {
        Chunk {
            id,
            size_bytes,
            emitted_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ids_order_by_stream_then_position() {
        assert!(ChunkId::primary(3) < ChunkId::primary(10));
        assert!(ChunkId::primary(10) < ChunkId::new(StreamId::new(1), 0));
        assert_eq!(ChunkId::primary(5).value(), 5);
        assert_eq!(ChunkId::primary(5).to_string(), "c5");
        assert_eq!(ChunkId::new(StreamId::new(2), 9).to_string(), "s2c9");
    }

    #[test]
    fn chunk_identity_round_trips_through_the_packing() {
        let id = ChunkId::new(StreamId::new(7), 123_456);
        assert_eq!(id.stream(), StreamId::new(7));
        assert_eq!(id.index(), 123_456);
        let primary = ChunkId::primary(9);
        assert_eq!(primary.stream(), StreamId::PRIMARY);
        assert_eq!(primary.index(), 9);
        assert_eq!(primary.value(), 9, "primary-stream ids pack to the index");
    }

    #[test]
    fn a_shared_list_is_charged_once_across_its_holders() {
        let list: Arc<[ChunkId]> = (0..10).map(ChunkId::primary).collect();
        assert_eq!(shared_list_heap_bytes(&list), 16 + 80);
        let holders = [Arc::clone(&list), Arc::clone(&list), Arc::clone(&list)];
        assert_eq!(shared_list_heap_bytes(&list), 96 / 4);
        assert_eq!(
            holders.iter().map(shared_list_heap_bytes).sum::<usize>(),
            3 * 24
        );
    }

    #[test]
    fn chunk_carries_emission_metadata() {
        let c = Chunk::new(ChunkId::primary(1), 4_096, SimTime::from_millis(250));
        assert_eq!(c.size_bytes, 4_096);
        assert_eq!(c.emitted_at, SimTime::from_millis(250));
    }
}

//! Node identifiers.

use std::fmt;

use serde::Serialize;

/// Identifier of a node (peer) participating in the system.
///
/// The paper's system model assumes `n` nodes addressable by identity (IP and
/// port on PlanetLab); in the simulation we use dense integer identifiers so
/// they can double as vector indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node identifier from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index backing this identifier, usable for vector indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a broadcast stream (channel).
///
/// A deployment serves many concurrent channels over one membership and
/// reputation plane; each channel's data plane (source, chunk stores, playout
/// buffers, verification histories) is keyed by its `StreamId`. Identifiers
/// are dense so they can double as indices into per-stream state vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct StreamId(pub u16);

impl StreamId {
    /// The primary stream: the one every single-channel scenario broadcasts.
    pub const PRIMARY: StreamId = StreamId(0);

    /// Creates a stream identifier from its dense index.
    pub const fn new(index: u16) -> Self {
        StreamId(index)
    }

    /// The dense index backing this identifier, usable for vector indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for StreamId {
    fn from(v: u16) -> Self {
        StreamId(v)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn index_round_trip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(NodeId::from(42u32), id);
    }

    #[test]
    fn usable_as_hash_key() {
        let mut set = HashSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(2));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_prefixes_n() {
        assert_eq!(NodeId::new(7).to_string(), "n7");
    }

    #[test]
    fn stream_ids_are_dense_and_ordered() {
        assert_eq!(StreamId::PRIMARY, StreamId::new(0));
        assert_eq!(StreamId::new(3).index(), 3);
        assert!(StreamId::new(1) < StreamId::new(2));
        assert_eq!(StreamId::new(5).to_string(), "s5");
    }
}

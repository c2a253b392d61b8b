//! Sharding primitive: the contiguous node-range shard map.
//!
//! A sharded world partitions its nodes into contiguous id ranges, one range
//! per shard, and may process the node-local events of one synchronization
//! window shard-parallel as long as it applies their effects in the
//! sequential event order afterwards (see [`crate::ShardedWorld`]). The map
//! is all the engine side provides; how effects are staged and committed is
//! the world's business (`lifting-runtime`'s `wave` module keeps them in one
//! outbox per shard and walks the window's positions in order).

use crate::id::NodeId;

/// Partition of `n` nodes into `shards` contiguous id ranges.
///
/// Ranges are as even as possible (sizes differ by at most one) and cover the
/// id space exactly; shard 0 owns the lowest ids. The map is pure arithmetic
/// — no per-node table — so lookups are free and the map itself costs a few
/// words regardless of world size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    nodes: u32,
    shards: u32,
}

impl ShardMap {
    /// Creates a map of `nodes` ids over `shards` contiguous ranges. A shard
    /// count of zero is treated as one; shards are capped by the node count
    /// (an empty shard would never be scheduled anyway).
    pub fn new(nodes: usize, shards: usize) -> Self {
        let nodes = nodes as u32;
        let shards = (shards.max(1) as u32).min(nodes.max(1));
        ShardMap { nodes, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// Number of nodes covered by the map.
    pub fn nodes(&self) -> usize {
        self.nodes as usize
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        let idx = node.index() as u64;
        let k = self.shards as u64;
        let n = self.nodes.max(1) as u64;
        // Exact inverse of the floor partition `range(s) = [sn/k, (s+1)n/k)`:
        // s = ⌊((idx+1)·k − 1) / n⌋ (round-tripped against `range` in tests).
        let s = ((idx + 1) * k - 1) / n;
        (s as usize).min(self.shards as usize - 1)
    }

    /// The contiguous id range `[start, end)` owned by `shard`.
    pub fn range(&self, shard: usize) -> std::ops::Range<u32> {
        let s = shard as u64;
        let k = self.shards as u64;
        let n = self.nodes as u64;
        let start = (s * n / k) as u32;
        let end = ((s + 1) * n / k) as u32;
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_ranges_are_contiguous_even_and_exhaustive() {
        for (n, k) in [(10usize, 4usize), (7, 3), (100_000, 8), (5, 8), (1, 1)] {
            let map = ShardMap::new(n, k);
            let mut covered = 0u32;
            let mut sizes = Vec::new();
            for s in 0..map.shards() {
                let r = map.range(s);
                assert_eq!(r.start, covered, "ranges must be contiguous");
                covered = r.end;
                sizes.push(r.len());
                for id in r {
                    assert_eq!(map.shard_of(NodeId::new(id)), s, "n={n} k={k} id={id}");
                }
            }
            assert_eq!(covered as usize, n, "ranges must cover the id space");
            let (min, max) = (
                sizes.iter().min().copied().unwrap(),
                sizes.iter().max().copied().unwrap(),
            );
            assert!(max - min <= 1, "ranges must be even: {sizes:?}");
        }
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(ShardMap::new(4, 0).shards(), 1);
        assert_eq!(ShardMap::new(4, 100).shards(), 4);
    }
}

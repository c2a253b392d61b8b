//! Manager assignment: which nodes hold a copy of each node's score.

use lifting_sim::{derive_rng, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Population size at which [`ManagerAssignment::new`] switches from the
/// legacy full-shuffle sampler to rejection sampling. Below this every
/// historical assignment (and therefore every golden digest) is reproduced
/// bit-for-bit; at or above it the shuffle's O(n) work and O(n) scratch *per
/// node* would make construction O(n²) — minutes of setup and gigabytes of
/// transient allocation at 100k nodes — so large worlds draw `M` distinct
/// ids directly instead.
const REJECTION_SAMPLING_THRESHOLD: usize = 1_000;

/// Deterministic, seed-derived assignment of `M` managers to every node.
///
/// Managers are chosen pseudo-randomly (never including the node itself), the
/// way a DHT or rendezvous hashing would place score replicas in Alliatrust.
/// The assignment is a pure function of `(seed, n, M)` so every participant
/// can compute everyone's managers locally, without a lookup service.
#[derive(Debug, Clone)]
pub struct ManagerAssignment {
    managers: Vec<Vec<NodeId>>,
}

impl ManagerAssignment {
    /// Computes the assignment for `n` nodes with `per_node` managers each.
    ///
    /// # Panics
    ///
    /// Panics if `per_node == 0` or if `per_node >= n` (a node cannot manage
    /// itself, so at most `n - 1` managers are available).
    pub fn new(n: usize, per_node: usize, seed: u64) -> Self {
        assert!(per_node > 0, "at least one manager per node is required");
        assert!(
            per_node < n,
            "cannot assign {per_node} managers among {n} nodes"
        );
        let managers = (0..n)
            .map(|i| {
                let mut rng = derive_rng(seed, 0x000A_111A_0000 + i as u64);
                if n < REJECTION_SAMPLING_THRESHOLD {
                    let mut candidates: Vec<NodeId> = (0..n as u32)
                        .filter(|j| *j as usize != i)
                        .map(NodeId::new)
                        .collect();
                    candidates.shuffle(&mut rng);
                    candidates.truncate(per_node);
                    // `truncate` keeps the full n-sized backing allocation;
                    // the table must cost O(M) per node, not O(n).
                    candidates.shrink_to_fit();
                    candidates
                } else {
                    // Rejection sampling: O(M²) per node instead of O(n).
                    // Duplicate probability is M/n, vanishing at this scale.
                    let mut picked: Vec<NodeId> = Vec::with_capacity(per_node);
                    while picked.len() < per_node {
                        let j = rng.gen_range(0..n as u32);
                        if j as usize == i || picked.iter().any(|p| p.index() == j as usize) {
                            continue;
                        }
                        picked.push(NodeId::new(j));
                    }
                    picked
                }
            })
            .collect();
        ManagerAssignment { managers }
    }

    /// Number of nodes covered by the assignment.
    pub fn len(&self) -> usize {
        self.managers.len()
    }

    /// True if the assignment covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.managers.is_empty()
    }

    /// Heap bytes held by the assignment tables (capacity walk,
    /// deterministic).
    pub fn estimated_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.managers.capacity() * size_of::<Vec<NodeId>>()
            + self
                .managers
                .iter()
                .map(|m| m.capacity() * size_of::<NodeId>())
                .sum::<usize>()
    }

    /// The managers of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the assignment.
    pub fn managers_of(&self, node: NodeId) -> &[NodeId] {
        &self.managers[node.index()]
    }

    /// Iterates over every `(managed node, manager)` pair — useful to build
    /// the reverse index of which nodes a given manager is responsible for.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.managers
            .iter()
            .enumerate()
            .flat_map(|(i, ms)| ms.iter().map(move |m| (NodeId::new(i as u32), *m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn assignment_has_m_distinct_managers_excluding_self() {
        let a = ManagerAssignment::new(300, 25, 7);
        assert_eq!(a.len(), 300);
        for i in 0..300u32 {
            let ms = a.managers_of(NodeId::new(i));
            assert_eq!(ms.len(), 25);
            let unique: HashSet<_> = ms.iter().collect();
            assert_eq!(unique.len(), 25, "managers must be distinct");
            assert!(!ms.contains(&NodeId::new(i)), "a node never manages itself");
        }
    }

    #[test]
    fn assignment_is_deterministic_in_the_seed() {
        let a = ManagerAssignment::new(100, 5, 42);
        let b = ManagerAssignment::new(100, 5, 42);
        let c = ManagerAssignment::new(100, 5, 43);
        for i in 0..100u32 {
            assert_eq!(a.managers_of(NodeId::new(i)), b.managers_of(NodeId::new(i)));
        }
        assert!(
            (0..100u32).any(|i| a.managers_of(NodeId::new(i)) != c.managers_of(NodeId::new(i))),
            "different seeds should give different assignments"
        );
    }

    #[test]
    fn manager_load_is_roughly_balanced() {
        let a = ManagerAssignment::new(300, 25, 1);
        let mut load = vec![0usize; 300];
        for (_, manager) in a.iter() {
            load[manager.index()] += 1;
        }
        let expected = 25.0;
        for (i, &l) in load.iter().enumerate() {
            assert!(
                (l as f64) > expected * 0.3 && (l as f64) < expected * 3.0,
                "manager {i} has load {l}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn too_many_managers_panics() {
        let _ = ManagerAssignment::new(5, 5, 0);
    }

    #[test]
    fn large_world_sampler_keeps_the_invariants_and_compact_memory() {
        // Above the threshold the rejection sampler takes over: managers must
        // still be distinct, never the node itself, deterministic in the
        // seed, and the table must cost O(M) per node rather than O(n).
        let n = REJECTION_SAMPLING_THRESHOLD;
        let a = ManagerAssignment::new(n, 25, 7);
        let b = ManagerAssignment::new(n, 25, 7);
        for i in (0..n as u32).step_by(97) {
            let ms = a.managers_of(NodeId::new(i));
            assert_eq!(ms.len(), 25);
            let unique: HashSet<_> = ms.iter().collect();
            assert_eq!(unique.len(), 25, "managers must be distinct");
            assert!(!ms.contains(&NodeId::new(i)), "a node never manages itself");
            assert_eq!(ms, b.managers_of(NodeId::new(i)));
        }
        assert!(
            a.estimated_heap_bytes() < n * 64 * 25,
            "assignment must be O(n·M) memory, got {} bytes",
            a.estimated_heap_bytes()
        );
    }
}

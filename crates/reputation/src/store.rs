//! The per-manager score book.

use lifting_sim::NodeId;
use serde::{Deserialize, Serialize, Value};

/// Score record a manager keeps for one managed node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ScoreRecord {
    /// Total blame value received for the node.
    pub blame: f64,
    /// Total compensation credited (expected wrongful blame, Section 6.2).
    pub compensation: f64,
    /// Number of gossip periods the node has been observed for (`r` in Eq. 6).
    pub periods: u64,
    /// True once the manager has voted to expel the node.
    pub expelled: bool,
}

impl ScoreRecord {
    /// Normalized score (Equation 6): `s = -(Σ blames - Σ compensation) / r`.
    /// Zero until at least one period has elapsed.
    pub fn normalized_score(&self) -> f64 {
        if self.periods == 0 {
            0.0
        } else {
            -(self.blame - self.compensation) / self.periods as f64
        }
    }
}

/// The state a manager node keeps about the nodes it manages.
///
/// Stored as two parallel vectors — managed ids sorted ascending and their
/// records — so the book costs O(managed) memory, not O(world size). An
/// earlier dense id-indexed layout made every manager's book world-sized,
/// which is an O(n²) memory bill across the population: at 100k nodes that
/// alone is hundreds of gigabytes. A manager only ever holds a small fixed
/// fan-in of nodes, so lookups are a binary search over ~25 ids (cheaper
/// than hashing) and every walk
/// ([`end_period_credited`](Self::end_period_credited),
/// [`expulsion_votes_into`](Self::expulsion_votes_into),
/// [`iter`](Self::iter)) is a plain ascending
/// scan of the managed records — the same visit order as the dense and
/// hash-map layouts before it, so outputs are bit-identical.
#[derive(Debug, Clone, Default)]
pub struct ManagerState {
    /// Managed node ids, sorted ascending.
    ids: Vec<u32>,
    /// The record of `ids[i]` lives at `records[i]`.
    records: Vec<ScoreRecord>,
}

impl ManagerState {
    /// Creates an empty manager state.
    pub fn new() -> Self {
        ManagerState::default()
    }

    fn slot_mut(&mut self, node: NodeId) -> &mut ScoreRecord {
        let idx = node.index() as u32;
        // Registration is rare (once per managed node); keep both vectors
        // sorted on insert so every hot walk stays a plain ascending scan.
        let pos = self.ids.partition_point(|&i| i < idx);
        if self.ids.get(pos) != Some(&idx) {
            self.ids.insert(pos, idx);
            self.records.insert(pos, ScoreRecord::default());
        }
        &mut self.records[pos]
    }

    fn slot(&self, node: NodeId) -> Option<&ScoreRecord> {
        let idx = node.index() as u32;
        self.ids
            .binary_search(&idx)
            .ok()
            .map(|pos| &self.records[pos])
    }

    /// Registers a node under this manager (idempotent).
    pub fn register(&mut self, node: NodeId) {
        let _ = self.slot_mut(node);
    }

    /// Number of nodes managed.
    pub fn managed_count(&self) -> usize {
        self.ids.len()
    }

    /// Heap bytes held by the book (capacity walk, deterministic).
    pub fn estimated_heap_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<ScoreRecord>()
            + self.ids.capacity() * std::mem::size_of::<u32>()
    }

    /// Applies a blame of `value` to `node` (registering it if needed).
    pub fn apply_blame(&mut self, node: NodeId, value: f64) {
        let r = self.slot_mut(node);
        r.blame += value.max(0.0);
    }

    /// Ends one gossip period for every managed node: increments `r` and
    /// credits the per-period compensation `b̃` (the expected wrongful blame
    /// computed from the loss rate, Equation 5).
    pub fn end_period(&mut self, compensation_per_period: f64) {
        self.end_period_credited(|_| Some(compensation_per_period));
    }

    /// The general period end: `credit` returns the compensation owed to
    /// each managed node this period, or `None` to freeze the record. The
    /// runtime passes the membership view here so a node that departed
    /// mid-stream neither accrues observation periods nor collects
    /// compensation while offline — without this, a freerider could launder
    /// its score simply by leaving (frozen `r` with per-period credit would
    /// drift the normalized score of Equation 6 toward zero). Multi-channel
    /// runtimes credit each node the sum of its subscribed streams'
    /// Equation 5 values — a node watching one channel is only exposed to
    /// that channel's wrongful blames, so it must only be compensated for
    /// them.
    ///
    /// Returns the number of records visited, which is always the managed
    /// count — never the world size. Scaling tests pin this so the
    /// period-end walk can't silently regress to O(world size).
    pub fn end_period_credited(&mut self, credit: impl Fn(NodeId) -> Option<f64>) -> usize {
        for (&idx, r) in self.ids.iter().zip(self.records.iter_mut()) {
            let Some(c) = credit(NodeId::new(idx)) else {
                continue;
            };
            r.periods += 1;
            r.compensation += c.max(0.0);
        }
        self.ids.len()
    }

    /// The record for `node`, if managed.
    pub fn record(&self, node: NodeId) -> Option<ScoreRecord> {
        self.slot(node).copied()
    }

    /// The normalized score of `node`, if managed.
    pub fn normalized_score(&self, node: NodeId) -> Option<f64> {
        self.record(node).map(|r| r.normalized_score())
    }

    /// Marks `node` as expelled in this manager's book. Returns true if the
    /// vote changed (i.e. the node was not already marked).
    pub fn mark_expelled(&mut self, node: NodeId) -> bool {
        let r = self.slot_mut(node);
        let changed = !r.expelled;
        r.expelled = true;
        changed
    }

    /// True if this manager has voted to expel `node`.
    pub fn has_expelled(&self, node: NodeId) -> bool {
        self.record(node).map(|r| r.expelled).unwrap_or(false)
    }

    /// Checks every managed node against the detection threshold `eta` and
    /// marks those whose normalized score dropped below it, appending the
    /// nodes newly voted for expulsion to `out` in ascending id order. Nodes
    /// with fewer than `min_periods` observed periods are exempt (their score
    /// is not yet meaningful — Section 6.2 notes that the score of a joining
    /// node is not comparable).
    pub fn expulsion_votes_into(&mut self, eta: f64, min_periods: u64, out: &mut Vec<NodeId>) {
        for (&idx, r) in self.ids.iter().zip(self.records.iter_mut()) {
            if !r.expelled && r.periods >= min_periods && r.normalized_score() < eta {
                r.expelled = true;
                out.push(NodeId::new(idx));
            }
        }
    }

    /// Iterates over `(node, record)` pairs in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &ScoreRecord)> + '_ {
        self.ids
            .iter()
            .zip(self.records.iter())
            .map(|(&idx, r)| (NodeId::new(idx), r))
    }
}

impl Serialize for ManagerState {
    fn to_json_value(&self) -> Value {
        // Same shape the hash-map version rendered: `[[node, record], ...]`
        // sorted by node id (the map serializer sorted by key).
        Value::Array(
            self.iter()
                .map(|(n, r)| Value::Array(vec![n.to_json_value(), r.to_json_value()]))
                .collect(),
        )
    }
}

impl Deserialize for ManagerState {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_score_follows_equation_6() {
        let mut m = ManagerState::new();
        let node = NodeId::new(3);
        m.register(node);
        // Two periods, 80 and 70 blame, compensation 73 per period.
        m.apply_blame(node, 80.0);
        m.end_period(73.0);
        m.apply_blame(node, 70.0);
        m.end_period(73.0);
        let s = m.normalized_score(node).unwrap();
        // s = -((80+70) - 2*73)/2 = -2.
        assert!((s - (-2.0)).abs() < 1e-12);
        assert_eq!(m.record(node).unwrap().periods, 2);
    }

    #[test]
    fn compensation_centres_honest_scores_at_zero() {
        let mut m = ManagerState::new();
        let node = NodeId::new(1);
        m.register(node);
        for _ in 0..100 {
            m.apply_blame(node, 72.95);
            m.end_period(72.95);
        }
        assert!(m.normalized_score(node).unwrap().abs() < 1e-9);
    }

    #[test]
    fn unobserved_nodes_have_zero_score() {
        let mut m = ManagerState::new();
        m.register(NodeId::new(9));
        assert_eq!(m.normalized_score(NodeId::new(9)), Some(0.0));
        assert_eq!(m.normalized_score(NodeId::new(10)), None);
        assert_eq!(m.managed_count(), 1);
    }

    #[test]
    fn negative_blames_are_ignored() {
        let mut m = ManagerState::new();
        let node = NodeId::new(0);
        m.apply_blame(node, -50.0);
        m.end_period(0.0);
        assert_eq!(m.normalized_score(node), Some(0.0));
    }

    #[test]
    fn expulsion_votes_respect_threshold_and_grace_period() {
        let mut m = ManagerState::new();
        let bad = NodeId::new(1);
        let good = NodeId::new(2);
        let young = NodeId::new(3);
        m.register(bad);
        m.register(good);
        for _ in 0..20 {
            m.apply_blame(bad, 90.0);
            m.apply_blame(good, 73.0);
            m.end_period(73.0);
        }
        m.register(young);
        m.apply_blame(young, 500.0);
        // bad has score -17, good ≈ 0, young has 0 periods.
        let mut votes = Vec::new();
        m.expulsion_votes_into(-9.75, 5, &mut votes);
        assert_eq!(votes, vec![bad]);
        assert!(m.has_expelled(bad));
        assert!(!m.has_expelled(good));
        assert!(!m.has_expelled(young));
        // Votes are not emitted twice.
        votes.clear();
        m.expulsion_votes_into(-9.75, 5, &mut votes);
        assert!(votes.is_empty());
    }

    #[test]
    fn filtered_period_end_freezes_departed_records() {
        let mut m = ManagerState::new();
        let online = NodeId::new(1);
        let departed = NodeId::new(2);
        m.register(online);
        m.register(departed);
        for _ in 0..10 {
            m.end_period_credited(|n| (n == online).then_some(5.0));
        }
        assert_eq!(m.record(online).unwrap().periods, 10);
        assert_eq!(m.record(departed).unwrap().periods, 0);
        assert_eq!(m.record(departed).unwrap().compensation, 0.0);
        // The unfiltered variant credits every record.
        m.end_period(5.0);
        assert_eq!(m.record(departed).unwrap().periods, 1);
    }

    #[test]
    fn period_end_cost_scales_with_managed_not_world_size() {
        // A manager in a 10k-node world that manages only 100 of them: both
        // the memory and the period-end walk must scale with the managed
        // count, never with the id space.
        let world = 10_000u32;
        let managed = 100u32;
        let mut m = ManagerState::new();
        for i in 0..managed {
            // Spread ids across the whole space; the last one lands at 9999.
            m.register(NodeId::new(i * (world / managed) + world / managed - 1));
        }
        assert_eq!(m.managed_count(), managed as usize);
        assert!(
            m.estimated_heap_bytes() < 64 * managed as usize,
            "the book must cost O(managed) memory, not O(world): {} bytes",
            m.estimated_heap_bytes()
        );
        let visited = m.end_period_credited(|_| Some(1.0));
        assert_eq!(
            visited, managed as usize,
            "period end must walk the live index, not the id-indexed book"
        );
        // Every managed record aged exactly once; the walk stayed ascending.
        let ids: Vec<u32> = m
            .iter()
            .map(|(n, r)| {
                assert_eq!(r.periods, 1);
                n.index() as u32
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), managed as usize);
    }

    #[test]
    fn late_registration_keeps_walk_order_ascending() {
        // Out-of-order registration (rejoins, blames against unseen ids) must
        // keep the live index — and therefore every walk — sorted by id.
        let mut m = ManagerState::new();
        for id in [9u32, 2, 7, 0, 5] {
            m.apply_blame(NodeId::new(id), 1.0);
        }
        let ids: Vec<usize> = m.iter().map(|(n, _)| n.index()).collect();
        assert_eq!(ids, vec![0, 2, 5, 7, 9]);
        let mut votes = Vec::new();
        m.end_period_credited(|_| Some(0.0));
        m.expulsion_votes_into(-0.5, 1, &mut votes);
        let vote_ids: Vec<usize> = votes.iter().map(|n| n.index()).collect();
        assert_eq!(vote_ids, vec![0, 2, 5, 7, 9]);
    }

    #[test]
    fn mark_expelled_is_idempotent() {
        let mut m = ManagerState::new();
        assert!(m.mark_expelled(NodeId::new(4)));
        assert!(!m.mark_expelled(NodeId::new(4)));
        assert!(m.has_expelled(NodeId::new(4)));
    }
}

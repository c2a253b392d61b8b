//! Accountability: the bounded local history every node maintains
//! (Section 5, "each node maintains a digest of its past interactions").
//!
//! The history covers the last `nh` gossip periods and records the proposals
//! sent (partners and chunk ids), the proposals received (needed to answer
//! confirm requests and audit polls truthfully) and the confirm requests
//! received (needed to build the fanin multiset `F'h` during audits of
//! *other* nodes). Serves received are only counted: an auditor builds `F'h`
//! from the witnesses' confirm logs, never from the subject's own account,
//! so the count is all the upload size needs.
//!
//! Layout: one flat arrival-order log per kind of entry, and a ring of
//! [`PeriodRecord`] headers that says how many entries of each log belong to
//! each period. Recording appends to a log and bumps a counter; evicting the
//! oldest period pops that many entries off the front of each log; the
//! audit-side readers are straight scans of one log. Chunk lists are never
//! copied: a sent proposal holds its round's `Arc<[ChunkId]>` (shared with the
//! wire payloads), a received one the payload's, and the partners of every
//! sent proposal share one flat log.

use std::collections::hash_map::Entry;
use std::collections::{vec_deque, VecDeque};
use std::sync::Arc;

use lifting_gossip::chunk::shared_list_heap_bytes;
use lifting_gossip::ChunkId;
use lifting_sim::collections::{BoundedGrowth, FastHashMap};
use lifting_sim::NodeId;
use serde::{Serialize, Value};

use crate::messages::{CHUNK_ID_BYTES, NODE_ID_BYTES};

/// Wire bytes of an empty history (the period count).
const WIRE_BASE_BYTES: u64 = 8;
/// Wire bytes of one period header.
const WIRE_PERIOD_BYTES: u64 = 16;
/// Wire bytes of one serve-received entry (counted, not stored).
const WIRE_SERVE_BYTES: u64 = NODE_ID_BYTES + CHUNK_ID_BYTES;
/// Wire bytes of one confirm-received entry.
const WIRE_CONFIRM_BYTES: u64 = 2 * NODE_ID_BYTES;

/// One proposal sent during a period: the round's chunk list and how many
/// entries of the partner log are its partners.
#[derive(Debug, Clone, PartialEq)]
struct ProposalRecord {
    /// Shared with the round's wire payloads.
    chunks: Arc<[ChunkId]>,
    partners: u32,
}

impl ProposalRecord {
    fn wire_bytes(&self) -> u64 {
        4 + NODE_ID_BYTES * u64::from(self.partners) + CHUNK_ID_BYTES * self.chunks.len() as u64
    }
}

/// Header of one recorded gossip period: the node's period counter and how
/// many entries of each log were recorded during it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeriodRecord {
    /// The node's period counter.
    pub period: u64,
    /// Proposals sent during this period (at most one per the protocol, but
    /// the record does not enforce it).
    pub proposals_sent: u32,
    /// Serves received during this period (counted only; no log).
    pub serves_received: u32,
    /// Proposals received during this period.
    pub proposals_received: u32,
    /// Confirm requests received during this period.
    pub confirms_received: u32,
}

/// One proposal received, linked to the previous one from the same proposer.
#[derive(Debug, Clone)]
struct ReceivedProposal {
    proposer: NodeId,
    /// Shared with the propose payload the list arrived in.
    chunks: Arc<[ChunkId]>,
    /// Sequence number of the proposer's previous proposal. Only read while
    /// walking the proposer's live chain, so it needs no "none" value.
    prev_seq: u32,
}

impl PartialEq for ReceivedProposal {
    fn eq(&self, other: &Self) -> bool {
        // The link is derived from the log's past, not part of the record.
        self.proposer == other.proposer && self.chunks == other.chunks
    }
}

impl ReceivedProposal {
    fn wire_bytes(&self) -> u64 {
        NODE_ID_BYTES + 4 + CHUNK_ID_BYTES * self.chunks.len() as u64
    }
}

/// A proposer's chain through the received-proposal log.
#[derive(Debug, Clone, Copy)]
struct Chain {
    /// Sequence number of the proposer's newest proposal.
    newest_seq: u32,
    /// How many of its proposals are still in the log.
    live: u32,
}

/// The bounded history of one node.
#[derive(Debug, Clone)]
pub struct NodeHistory {
    owner: NodeId,
    capacity_periods: usize,
    /// One header per recorded period, oldest first.
    periods: VecDeque<PeriodRecord>,
    /// The logs, each in arrival order; the headers' counts partition them
    /// into periods.
    proposals_sent: VecDeque<ProposalRecord>,
    /// The partners of every sent proposal, concatenated; each record's
    /// `partners` count partitions it.
    partners_sent: VecDeque<NodeId>,
    proposals_received: VecDeque<ReceivedProposal>,
    /// `(asker, subject)`.
    confirms_received: VecDeque<(NodeId, NodeId)>,
    /// Sequence number of `proposals_received[0]`. Sequence numbers wrap;
    /// only differences between live ones are ever taken.
    received_base: u32,
    /// Per proposer, the newest received proposal and the number still live:
    /// [`received_proposal_with`] walks that many `prev_seq` links. Recording
    /// a proposal touches one entry whatever the number of chunks, and so
    /// does evicting one (the evicted proposal is always its chain's oldest).
    /// A proposer recurs rarely inside the window under uniform partner
    /// selection (`nh·f/n` live proposals on average), so chains are short.
    ///
    /// Derived state: excluded from equality and serialization.
    ///
    /// [`received_proposal_with`]: NodeHistory::received_proposal_with
    chains: FastHashMap<NodeId, Chain>,
    /// Running [`wire_size`](NodeHistory::wire_size), kept on record/evict.
    wire_bytes: u64,
}

impl PartialEq for NodeHistory {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner
            && self.capacity_periods == other.capacity_periods
            && self.periods == other.periods
            && self.proposals_sent == other.proposals_sent
            && self.partners_sent == other.partners_sent
            && self.proposals_received == other.proposals_received
            && self.confirms_received == other.confirms_received
    }
}

impl Serialize for NodeHistory {
    fn to_json_value(&self) -> Value {
        // One object per period holding its slice of each log: the shape the
        // derive produced when every period owned four lists.
        fn take<T>(
            log: &mut impl Iterator<Item = T>,
            n: u32,
            render: impl Fn(T) -> Value,
        ) -> Value {
            Value::Array(log.take(n as usize).map(render).collect())
        }
        let mut sent = self.proposals_sent();
        let mut received = self.proposals_received.iter();
        let mut confirms = self.confirms_received.iter();
        let periods = self
            .periods
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("period".to_string(), p.period.to_json_value()),
                    (
                        "proposals_sent".to_string(),
                        take(&mut sent, p.proposals_sent, |(partners, chunks)| {
                            Value::Object(vec![
                                (
                                    "partners".to_string(),
                                    Value::Array(partners.map(Serialize::to_json_value).collect()),
                                ),
                                ("chunks".to_string(), chunks.to_json_value()),
                            ])
                        }),
                    ),
                    (
                        "serves_received".to_string(),
                        p.serves_received.to_json_value(),
                    ),
                    (
                        "proposals_received".to_string(),
                        take(&mut received, p.proposals_received, |r| {
                            (r.proposer, &r.chunks).to_json_value()
                        }),
                    ),
                    (
                        "confirms_received".to_string(),
                        take(&mut confirms, p.confirms_received, Serialize::to_json_value),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("owner".to_string(), self.owner.to_json_value()),
            (
                "capacity_periods".to_string(),
                self.capacity_periods.to_json_value(),
            ),
            ("periods".to_string(), Value::Array(periods)),
        ])
    }
}

impl NodeHistory {
    /// Creates an empty history covering at most `capacity_periods` gossip
    /// periods (`nh` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_periods` is zero.
    pub fn new(owner: NodeId, capacity_periods: usize) -> Self {
        assert!(
            capacity_periods > 0,
            "history must cover at least one period"
        );
        NodeHistory {
            owner,
            capacity_periods,
            periods: VecDeque::new(),
            proposals_sent: VecDeque::new(),
            partners_sent: VecDeque::new(),
            proposals_received: VecDeque::new(),
            confirms_received: VecDeque::new(),
            received_base: 0,
            chains: FastHashMap::default(),
            wire_bytes: WIRE_BASE_BYTES,
        }
    }

    /// The node this history belongs to.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Heap bytes held by the period headers, the logs and the chain index
    /// (capacity walk, deterministic; each shared `Arc` chunk list is split
    /// over its holders, see [`shared_list_heap_bytes`]).
    pub fn estimated_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let chunk_lists: usize = self
            .proposals_sent
            .iter()
            .map(|s| &s.chunks)
            .chain(self.proposals_received.iter().map(|r| &r.chunks))
            .map(shared_list_heap_bytes)
            .sum();
        self.periods.capacity() * size_of::<PeriodRecord>()
            + self.proposals_sent.capacity() * size_of::<ProposalRecord>()
            + self.partners_sent.capacity() * size_of::<NodeId>()
            + self.proposals_received.capacity() * size_of::<ReceivedProposal>()
            + self.confirms_received.capacity() * size_of::<(NodeId, NodeId)>()
            + self
                .chains
                .capacity()
                .saturating_mul(size_of::<(NodeId, Chain)>())
            + chunk_lists
    }

    /// `(name, live entries, capacity)` of the period ring and of each log:
    /// `tests/history_footprint.rs` bounds capacity by live entries.
    pub fn log_occupancy(&self) -> [(&'static str, usize, usize); 5] {
        fn fill<T>(name: &'static str, log: &VecDeque<T>) -> (&'static str, usize, usize) {
            (name, log.len(), log.capacity())
        }
        [
            fill("periods", &self.periods),
            fill("proposals sent", &self.proposals_sent),
            fill("partners sent", &self.partners_sent),
            fill("proposals received", &self.proposals_received),
            fill("confirms received", &self.confirms_received),
        ]
    }

    /// Number of periods currently recorded.
    pub fn len(&self) -> usize {
        self.periods.len()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.periods.is_empty()
    }

    /// The maximum number of periods kept (`nh`).
    pub fn capacity(&self) -> usize {
        self.capacity_periods
    }

    /// The header to count a new entry of `period` in: the newest one if it
    /// is for `period`, else a fresh one (evicting the oldest period when the
    /// history is full).
    fn current_mut(&mut self, period: u64) -> &mut PeriodRecord {
        if self.periods.back().map(|last| last.period) != Some(period) {
            if self.periods.len() == self.capacity_periods {
                self.evict_oldest();
            }
            self.periods.reserve_bounded(1);
            self.periods.push_back(PeriodRecord {
                period,
                ..PeriodRecord::default()
            });
            self.wire_bytes += WIRE_PERIOD_BYTES;
        }
        self.periods.back_mut().expect("just pushed")
    }

    fn evict_oldest(&mut self) {
        let evicted = self.periods.pop_front().expect("a full history");
        self.wire_bytes -= WIRE_PERIOD_BYTES
            + WIRE_SERVE_BYTES * u64::from(evicted.serves_received)
            + WIRE_CONFIRM_BYTES * u64::from(evicted.confirms_received);
        let mut partners = 0;
        for sent in self.proposals_sent.drain(..evicted.proposals_sent as usize) {
            self.wire_bytes -= sent.wire_bytes();
            partners += sent.partners as usize;
        }
        self.partners_sent.drain(..partners);
        self.confirms_received
            .drain(..evicted.confirms_received as usize);
        for received in self
            .proposals_received
            .drain(..evicted.proposals_received as usize)
        {
            self.wire_bytes -= received.wire_bytes();
            // The evicted proposal is the oldest of its proposer's chain.
            if let Entry::Occupied(mut chain) = self.chains.entry(received.proposer) {
                chain.get_mut().live -= 1;
                if chain.get().live == 0 {
                    chain.remove();
                }
            }
        }
        self.received_base = self.received_base.wrapping_add(evicted.proposals_received);
    }

    /// Records a proposal of the round's shared chunk list sent to
    /// `partners` during `period`. The history keeps a reference to the
    /// list, not a copy; the partners go to the flat partner log.
    pub fn record_proposal_sent_shared(
        &mut self,
        period: u64,
        partners: &[NodeId],
        chunks: Arc<[ChunkId]>,
    ) {
        self.current_mut(period).proposals_sent += 1;
        let record = ProposalRecord {
            chunks,
            partners: partners.len() as u32,
        };
        self.wire_bytes += record.wire_bytes();
        self.proposals_sent.reserve_bounded(1);
        self.proposals_sent.push_back(record);
        self.partners_sent.reserve_bounded(partners.len());
        self.partners_sent.extend(partners);
    }

    /// [`record_proposal_sent_shared`](NodeHistory::record_proposal_sent_shared)
    /// for a chunk list that is not shared yet: allocates one.
    pub fn record_proposal_sent(&mut self, period: u64, partners: &[NodeId], chunks: &[ChunkId]) {
        self.record_proposal_sent_shared(period, partners, chunks.into());
    }

    /// Counts a chunk served to this node during `period`.
    pub fn record_serve_received(&mut self, period: u64) {
        self.current_mut(period).serves_received += 1;
        self.wire_bytes += WIRE_SERVE_BYTES;
    }

    /// Records a proposal received from `proposer` during `period`.
    pub fn record_proposal_received(
        &mut self,
        period: u64,
        proposer: NodeId,
        chunks: Arc<[ChunkId]>,
    ) {
        self.current_mut(period).proposals_received += 1;
        let seq = self
            .received_base
            .wrapping_add(self.proposals_received.len() as u32);
        let chain = self.chains.entry(proposer).or_insert(Chain {
            newest_seq: seq,
            live: 0,
        });
        let record = ReceivedProposal {
            proposer,
            chunks,
            prev_seq: chain.newest_seq,
        };
        chain.newest_seq = seq;
        chain.live += 1;
        self.wire_bytes += record.wire_bytes();
        self.proposals_received.reserve_bounded(1);
        self.proposals_received.push_back(record);
    }

    /// Records a confirm request received from `asker` about `subject` during
    /// `period`.
    pub fn record_confirm_received(&mut self, period: u64, asker: NodeId, subject: NodeId) {
        self.current_mut(period).confirms_received += 1;
        self.wire_bytes += WIRE_CONFIRM_BYTES;
        self.confirms_received.reserve_bounded(1);
        self.confirms_received.push_back((asker, subject));
    }

    /// Iterates over the headers of the recorded periods, oldest first.
    pub fn periods(&self) -> impl Iterator<Item = &PeriodRecord> + '_ {
        self.periods.iter()
    }

    /// Iterates over every proposal sent in the history, oldest first, as
    /// `(partners, chunks)`; `chunks` is the round's own shared list.
    pub fn proposals_sent(
        &self,
    ) -> impl Iterator<Item = (vec_deque::Iter<'_, NodeId>, &Arc<[ChunkId]>)> + '_ {
        let mut start = 0;
        self.proposals_sent.iter().map(move |record| {
            let end = start + record.partners as usize;
            let partners = self.partners_sent.range(start..end);
            start = end;
            (partners, &record.chunks)
        })
    }

    /// The fanout multiset `Fh`: every partner of every proposal sent in the
    /// history (with multiplicity).
    pub fn fanout_multiset(&self) -> Vec<NodeId> {
        self.partners_sent.iter().copied().collect()
    }

    /// The nodes that asked this node to confirm proposals of `subject`
    /// (used by an auditor of `subject` to build `F'h`), in arrival order.
    pub fn confirm_askers_about(&self, subject: NodeId) -> Vec<NodeId> {
        self.confirms_received
            .iter()
            .filter(|(_, s)| *s == subject)
            .map(|(asker, _)| *asker)
            .collect()
    }

    /// Number of propose phases recorded (gossip-period check of Section 5.3).
    pub fn propose_phase_count(&self) -> usize {
        self.periods.iter().filter(|p| p.proposals_sent > 0).count()
    }

    /// The chunk lists of a proposer's live proposals, newest first.
    fn walk(&self, chain: Chain) -> impl Iterator<Item = &[ChunkId]> + '_ {
        let mut seq = chain.newest_seq;
        (0..chain.live).map(move |_| {
            let record = &self.proposals_received[seq.wrapping_sub(self.received_base) as usize];
            seq = record.prev_seq;
            &*record.chunks
        })
    }

    /// True if this node received a proposal from `proposer` containing every
    /// chunk in `chunks` (possibly across several proposals). Used to answer
    /// confirm requests and a-posteriori audit polls.
    pub fn received_proposal_with(&self, proposer: NodeId, chunks: &[ChunkId]) -> bool {
        let Some(&chain) = self.chains.get(&proposer) else {
            return chunks.is_empty();
        };
        chunks
            .iter()
            .all(|needle| self.walk(chain).any(|ids| ids.contains(needle)))
    }

    /// Approximate wire size of the history when uploaded for an audit.
    pub fn wire_size(&self) -> u64 {
        self.wire_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u64]) -> Vec<ChunkId> {
        xs.iter().map(|x| ChunkId::primary(*x)).collect()
    }

    fn nodes(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().map(|x| NodeId::new(*x)).collect()
    }

    #[test]
    fn history_is_bounded_to_nh_periods() {
        let mut h = NodeHistory::new(NodeId::new(0), 3);
        for period in 0..10u64 {
            h.record_proposal_sent(period, &nodes(&[1, 2]), &ids(&[period]));
        }
        assert_eq!(h.len(), 3);
        let kept: Vec<u64> = h.periods().map(|p| p.period).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(h.capacity(), 3);
        assert_eq!(h.owner(), NodeId::new(0));
    }

    #[test]
    fn fanout_multiset_has_multiplicity() {
        let mut h = NodeHistory::new(NodeId::new(0), 10);
        h.record_proposal_sent(0, &nodes(&[1, 2, 3]), &ids(&[10]));
        h.record_proposal_sent(1, &nodes(&[2, 4]), &ids(&[11]));
        let fanout = h.fanout_multiset();
        assert_eq!(fanout.len(), 5);
        assert_eq!(fanout.iter().filter(|n| **n == NodeId::new(2)).count(), 2);
    }

    #[test]
    fn a_sent_proposal_record_is_at_most_24_bytes() {
        // One per period per node for `nh` periods: O(nodes x nh).
        assert!(std::mem::size_of::<ProposalRecord>() <= 24);
    }

    #[test]
    fn the_sender_history_shares_the_rounds_chunk_list() {
        use crate::{CollusionConfig, LiftingConfig, Verifier, VerifierAction};
        use lifting_gossip::ProposeRound;
        use lifting_sim::SimTime;
        let mut v = Verifier::new(
            NodeId::new(1),
            7,
            LiftingConfig::planetlab(),
            CollusionConfig::none(),
        );
        let round = ProposeRound {
            period: 4,
            chunks: ids(&[1, 2, 3]).into(),
            partners: nodes(&[20, 21]),
            by_source: vec![(NodeId::new(10), ids(&[1, 2, 3]))],
            dropped_sources: vec![],
        };
        let mut out: Vec<VerifierAction> = Vec::new();
        v.on_propose_round_into(&round, SimTime::ZERO, &mut out);
        let (partners, chunks) = v.history().proposals_sent().last().expect("recorded");
        assert!(
            Arc::ptr_eq(chunks, &round.chunks),
            "the history copied the list"
        );
        assert_eq!(partners.copied().collect::<Vec<_>>(), round.partners);
    }

    #[test]
    fn recording_a_serve_allocates_nothing() {
        let mut h = NodeHistory::new(NodeId::new(0), 10);
        h.record_serve_received(0);
        let (heap, wire) = (h.estimated_heap_bytes(), h.wire_size());
        for _ in 0..10_000 {
            h.record_serve_received(0);
        }
        assert_eq!(h.estimated_heap_bytes(), heap, "a serve grew a log");
        assert_eq!(h.wire_size(), wire + 10_000 * WIRE_SERVE_BYTES);
        assert_eq!(h.periods().map(|p| p.serves_received).sum::<u32>(), 10_001);
    }

    #[test]
    fn confirm_askers_are_tracked_per_subject() {
        let mut h = NodeHistory::new(NodeId::new(2), 10);
        h.record_confirm_received(0, NodeId::new(10), NodeId::new(1));
        h.record_confirm_received(0, NodeId::new(11), NodeId::new(1));
        h.record_confirm_received(1, NodeId::new(12), NodeId::new(5));
        assert_eq!(h.confirm_askers_about(NodeId::new(1)), nodes(&[10, 11]));
        assert_eq!(h.confirm_askers_about(NodeId::new(5)), nodes(&[12]));
        assert!(h.confirm_askers_about(NodeId::new(9)).is_empty());
    }

    #[test]
    fn received_proposal_lookup_matches_subsets() {
        let mut h = NodeHistory::new(NodeId::new(3), 10);
        h.record_proposal_received(4, NodeId::new(7), ids(&[1, 2, 3]).into());
        h.record_proposal_received(5, NodeId::new(7), ids(&[4]).into());
        assert!(h.received_proposal_with(NodeId::new(7), &ids(&[1, 3])));
        assert!(h.received_proposal_with(NodeId::new(7), &ids(&[1, 4])));
        assert!(!h.received_proposal_with(NodeId::new(7), &ids(&[9])));
        assert!(!h.received_proposal_with(NodeId::new(8), &ids(&[1])));
        assert!(h.received_proposal_with(NodeId::new(8), &[]));
    }

    #[test]
    fn propose_phase_count_ignores_empty_periods() {
        let mut h = NodeHistory::new(NodeId::new(0), 10);
        h.record_proposal_sent(0, &nodes(&[1]), &ids(&[1]));
        h.record_serve_received(1); // period without proposal
        h.record_proposal_sent(2, &nodes(&[1]), &ids(&[2]));
        assert_eq!(h.propose_phase_count(), 2);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn wire_size_grows_with_content() {
        let mut h = NodeHistory::new(NodeId::new(0), 50);
        let empty = h.wire_size();
        h.record_proposal_sent(0, &nodes(&[1, 2, 3, 4, 5, 6, 7]), &ids(&[1, 2, 3]));
        let one = h.wire_size();
        assert!(one > empty);
        h.record_serve_received(0);
        assert!(h.wire_size() > one);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_is_rejected() {
        let _ = NodeHistory::new(NodeId::new(0), 0);
    }

    /// Sequence numbers wrap at `u32::MAX`; chains only ever subtract live
    /// ones, so a log that straddles the wrap answers like any other.
    #[test]
    fn proposer_chains_survive_sequence_wraparound() {
        let mut h = NodeHistory::new(NodeId::new(0), 3);
        h.received_base = u32::MAX - 2;
        for period in 0..8u64 {
            for proposer in [1, 2] {
                let chunk = period * 10 + u64::from(proposer);
                h.record_proposal_received(period, NodeId::new(proposer), ids(&[chunk]).into());
            }
            for probe in 0..8u64 {
                let live = probe + 3 > period && probe <= period;
                for proposer in [1, 2] {
                    let chunk = probe * 10 + u64::from(proposer);
                    assert_eq!(
                        h.received_proposal_with(NodeId::new(proposer), &ids(&[chunk])),
                        live,
                        "proposer {proposer}, chunk {chunk} at period {period}"
                    );
                }
            }
        }
    }
}

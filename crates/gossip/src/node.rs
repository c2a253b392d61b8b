//! The three-phase gossip state machine (sans-IO).
//!
//! [`GossipNode`] holds everything a node knows about the stream: its playout
//! buffer — the one per-chunk table: what it holds and since when, what it
//! has requested and until when, what it has already proposed — which chunks
//! are "fresh" (received since its last propose phase, grouped by the node
//! that served them) and what it offered to whom. Its methods implement the
//! propose/request/serve phases and return the data the runtime must put on
//! the wire; they never perform I/O themselves, which keeps the protocol
//! unit-testable without a network.

use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::Arc;

use lifting_sim::collections::{BoundedGrowth, DetHashMap};

use lifting_sim::{NodeId, SimDuration, SimTime, StreamId};
use rand::Rng;

use crate::behavior::Behavior;
use crate::buffer::PlayoutBuffer;
use crate::chunk::{Chunk, ChunkId};
use crate::config::GossipConfig;
use crate::source::StreamClock;

/// Everything produced by one propose phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProposeRound {
    /// The node's gossip-period counter when this round ran.
    pub period: u64,
    /// Chunk ids included in the proposal (identical for every partner, so
    /// the list is shared: the wire payloads and the verification history
    /// reference this one allocation).
    pub chunks: Arc<[ChunkId]>,
    /// The partners the proposal is sent to.
    pub partners: Vec<NodeId>,
    /// For each node that served us chunks included in this proposal, the
    /// chunk ids that came from it. This is what the LiFTinG layer
    /// acknowledges back to the servers (cross-checking, Section 5.2).
    pub by_source: Vec<(NodeId, Vec<ChunkId>)>,
    /// Sources whose chunks were deliberately dropped by the partial-propose
    /// attack (empty for honest nodes); exposed for tests and metrics.
    pub dropped_sources: Vec<NodeId>,
}

/// The three-phase gossip protocol state of one node **on one stream**.
///
/// A multi-channel node runs one `GossipNode` per stream it subscribes to:
/// the playout buffer (held chunks, request reservations, infect-and-die
/// markers and the round that proposed each chunk — flat-indexed by the
/// chunk's per-stream sequence number) and the offers are all plane-local.
#[derive(Debug)]
pub struct GossipNode {
    id: NodeId,
    config: GossipConfig,
    behavior: Behavior,
    /// Chunks received since the last propose phase, grouped by serving node.
    ///
    /// Deliberately *not* flat-indexed: [`begin_propose_round`] walks this
    /// map while assembling `by_source`, and that (deterministic) hash order
    /// feeds the acknowledgment wire order downstream — the golden digests
    /// pin it bit-for-bit. See the note in `lifting_sim::collections`.
    ///
    /// [`begin_propose_round`]: GossipNode::begin_propose_round
    fresh_by_source: DetHashMap<NodeId, Vec<ChunkId>>,
    /// Who was proposed to in which of the last `nh` rounds, to validate
    /// the subsequent request ("nodes only serve chunks that were
    /// effectively proposed"): `(round, partner id)` pairs, oldest first, a
    /// round's partners pushed at its propose phase and popped once the
    /// round is more than `nh` rounds old. What was offered is not kept
    /// here: infect-and-die proposes a chunk in one round only, and its
    /// chunk-table slot names that round, so a chunk is in the latest offer
    /// to `F` exactly when its slot names `F`'s newest round here. At most
    /// `(nh + 1) × fanout` entries, however long the run or large the
    /// population.
    offers_out: VecDeque<(u32, u32)>,
    /// How many rounds an offer stays answerable: the verifier's history
    /// window `nh`.
    offer_rounds: u64,
    /// Gossip-period counter (increments every propose phase).
    period: u64,
    /// The per-chunk table: every chunk this node holds (served from here,
    /// read out for stream health), the expiry of each outstanding request
    /// (a chunk counts as requested while its expiry is after "now": avoids
    /// requesting the same chunk from two proposers in one period) and the
    /// infect-and-die marks.
    playout: PlayoutBuffer,
    /// Count of serve messages sent (contribution metric).
    chunks_served: u64,
}

impl GossipNode {
    /// Creates a node's gossip state for the paper's primary stream
    /// ([`StreamClock::paper`]), its offers answerable for the paper's
    /// `nh` = 50 rounds.
    pub fn new(id: NodeId, config: GossipConfig, behavior: Behavior) -> Self {
        GossipNode::for_stream(id, StreamClock::paper(), config, behavior, 50)
    }

    /// Creates a node's gossip state for the stream `clock` defines (one
    /// plane of a multi-channel stack), answering requests against offers
    /// of the last `history_periods` rounds (the verifier's `nh`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the behaviour is invalid.
    pub fn for_stream(
        id: NodeId,
        clock: StreamClock,
        config: GossipConfig,
        behavior: Behavior,
        history_periods: usize,
    ) -> Self {
        config
            .validate()
            .and(behavior.validate())
            .expect("invalid gossip configuration");
        GossipNode {
            id,
            config,
            behavior,
            fresh_by_source: DetHashMap::default(),
            offers_out: VecDeque::new(),
            offer_rounds: history_periods as u64,
            period: 0,
            playout: PlayoutBuffer::new(clock),
            chunks_served: 0,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The stream this plane disseminates.
    pub fn stream(&self) -> StreamId {
        self.playout.stream()
    }

    /// The node's behaviour.
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// Replaces the node's dissemination behaviour.
    ///
    /// Time-varying adversaries (e.g. an on-off freerider) switch behaviour
    /// between gossip periods through this; the protocol state (store, fresh
    /// chunks, offers) is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the new behaviour embeds an invalid freerider configuration.
    pub fn set_behavior(&mut self, behavior: Behavior) {
        behavior
            .validate()
            .expect("invalid freerider configuration");
        self.behavior = behavior;
    }

    /// The protocol configuration.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// The node's playout buffer (stream-health metrics).
    pub fn playout(&self) -> &PlayoutBuffer {
        &self.playout
    }

    /// Number of chunks this node holds.
    pub fn stored_chunks(&self) -> usize {
        self.playout.len()
    }

    /// Number of chunks this node has served so far (its contribution).
    pub fn chunks_served(&self) -> u64 {
        self.chunks_served
    }

    /// Current gossip-period counter.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Heap bytes held by this plane's gossip state: the playout buffer's
    /// chunk table, [`offers_heap_bytes`](Self::offers_heap_bytes) and
    /// [`fresh_heap_bytes`](Self::fresh_heap_bytes). A deterministic
    /// capacity walk (no allocator queries), so the number is identical
    /// across worker counts and shard counts.
    pub fn estimated_heap_bytes(&self) -> usize {
        self.playout.estimated_heap_bytes() + self.offers_heap_bytes() + self.fresh_heap_bytes()
    }

    /// Heap bytes of the outstanding offers: the `(round, partner)` ring.
    pub fn offers_heap_bytes(&self) -> usize {
        self.offers_out.capacity() * size_of::<(u32, u32)>()
    }

    /// Heap bytes of the fresh lists: the per-source table and its lists.
    pub fn fresh_heap_bytes(&self) -> usize {
        self.fresh_by_source
            .capacity()
            .saturating_mul(size_of::<(NodeId, Vec<ChunkId>)>())
            + self
                .fresh_by_source
                .values()
                .map(|fresh| fresh.capacity() * size_of::<ChunkId>())
                .sum::<usize>()
    }

    /// `(name, entries, capacity)` of the chunk table (one slot per chunk
    /// index up to the highest seen) and of the offers (one per partner of
    /// each of the last `nh` rounds):
    /// `tests/buffer_footprint.rs` bounds capacity by entries.
    pub fn table_occupancy(&self) -> [(&'static str, usize, usize); 2] {
        let (slots, capacity) = self.playout.slot_occupancy();
        [
            ("chunk table", slots, capacity),
            ("offers", self.offers_out.len(), self.offers_out.capacity()),
        ]
    }

    /// Number of partners this node will contact in its next propose phase
    /// (honest: `f`; freerider: `(1-δ1)·f` with randomized rounding).
    pub fn desired_fanout<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.behavior.effective_fanout(self.config.fanout, rng)
    }

    /// Injects a chunk produced locally (the broadcast source calls this).
    /// The chunk is recorded as served by the node itself.
    pub fn inject_source_chunk(&mut self, chunk: Chunk, now: SimTime) {
        if !self.playout.record(&chunk, now) {
            return;
        }
        self.push_fresh(self.id, chunk.id);
    }

    /// Adds a newly held chunk to the fresh list of the node it came from.
    fn push_fresh(&mut self, from: NodeId, id: ChunkId) {
        let fresh = self.fresh_by_source.entry(from).or_default();
        fresh.reserve_bounded(1);
        fresh.push(id);
    }

    /// Runs one propose phase at `now` towards the given `partners` (already
    /// selected by the membership layer; their number should come from
    /// [`desired_fanout`]).
    ///
    /// Returns `None` when the node has nothing new to propose or when it is
    /// stretching its gossip period (Section 4.1(iv)); fresh chunks are then
    /// kept for the next phase.
    ///
    /// [`desired_fanout`]: GossipNode::desired_fanout
    pub fn begin_propose_round<R: Rng + ?Sized>(
        &mut self,
        _now: SimTime,
        partners: Vec<NodeId>,
        rng: &mut R,
    ) -> Option<ProposeRound> {
        let this_period = self.period;
        self.period += 1;
        // Forget who was proposed to more than `nh` rounds ago.
        while let Some(&(round, _)) = self.offers_out.front() {
            if this_period - u64::from(round) <= self.offer_rounds {
                break;
            }
            self.offers_out.pop_front();
        }

        if self.behavior.skips_period(this_period) {
            return None; // gossip-period stretching: fresh chunks accumulate
        }
        if self.fresh_by_source.is_empty() || partners.is_empty() {
            return None;
        }

        let mut chunks: Vec<ChunkId> = Vec::new();
        let mut by_source: Vec<(NodeId, Vec<ChunkId>)> = Vec::new();
        let mut dropped_sources: Vec<NodeId> = Vec::new();

        // NOTE: this must be `take` (fresh table each period), not `drain`
        // (retained capacity): a hash table's iteration order depends on its
        // capacity, and the golden digests pin the order this walk produces.
        let fresh = std::mem::take(&mut self.fresh_by_source);
        for (source, ids) in fresh {
            // Partial-propose attack: drop every chunk that came from a δ2
            // fraction of the serving nodes (dropping whole sources minimizes
            // the number of nodes that can blame the freerider — the paper's
            // footnote 1).
            if source != self.id && self.behavior.drops_source(rng) {
                dropped_sources.push(source);
                // Infect-and-die still applies: the chunks are never proposed.
                for id in ids {
                    self.playout.mark_proposed(id, None);
                }
                continue;
            }
            let mut kept: Vec<ChunkId> = Vec::with_capacity(ids.len());
            for id in ids {
                if self.playout.mark_proposed(id, Some(this_period)) {
                    kept.push(id);
                    chunks.push(id);
                }
            }
            if !kept.is_empty() {
                by_source.push((source, kept));
            }
        }

        if chunks.is_empty() {
            return None;
        }
        chunks.sort_unstable();
        chunks.dedup();
        let chunks: Arc<[ChunkId]> = chunks.into();

        let round = this_period as u32;
        self.offers_out.reserve_bounded(partners.len());
        self.offers_out
            .extend(partners.iter().map(|p| (round, p.index() as u32)));

        Some(ProposeRound {
            period: this_period,
            chunks,
            partners,
            by_source,
            dropped_sources,
        })
    }

    /// Handles an incoming proposal from `from` and returns the chunk ids to
    /// request (phase 2). Chunks already held or already requested recently
    /// from another proposer are not requested again.
    pub fn on_propose(&mut self, _from: NodeId, chunks: &[ChunkId], now: SimTime) -> Vec<ChunkId> {
        let expiry = now + self.config.gossip_period;
        let mut wanted = Vec::new();
        for id in chunks {
            if self.playout.reserve(*id, now, expiry) {
                wanted.push(*id);
            }
        }
        wanted
    }

    /// Handles an incoming request from `from` and returns the chunks to serve
    /// (phase 3). Only chunks that were effectively proposed to `from` are
    /// served; freeriders additionally serve only a `(1-δ3)` fraction.
    pub fn on_request<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        requested: &[ChunkId],
        rng: &mut R,
    ) -> Vec<Chunk> {
        let partner = from.index() as u32;
        let Some(&(round, _)) = self.offers_out.iter().rev().find(|(_, p)| *p == partner) else {
            return Vec::new(); // request without a live proposal: ignored
        };
        let mut valid: Vec<ChunkId> = requested
            .iter()
            .copied()
            .filter(|id| self.playout.proposed_in(*id, u64::from(round)))
            .collect();
        valid.dedup();
        let to_serve = self.behavior.effective_serve(valid.len(), rng);
        // Freeriders drop a random subset of the valid requests.
        while valid.len() > to_serve {
            let idx = rng.gen_range(0..valid.len());
            valid.swap_remove(idx);
        }
        let served: Vec<Chunk> = valid
            .iter()
            .filter_map(|id| self.playout.chunk(*id))
            .collect();
        self.chunks_served += served.len() as u64;
        served
    }

    /// Handles an incoming serve of `chunk` from `from`. Returns true if the
    /// chunk was new to this node.
    pub fn on_serve(&mut self, from: NodeId, chunk: Chunk, now: SimTime) -> bool {
        // A new chunk's reception time replaces its request reservation.
        if !self.playout.record(&chunk, now) {
            return false;
        }
        self.push_fresh(from, chunk.id);
        true
    }

    /// The gossip period duration configured for this node (used by the
    /// runtime to schedule the next phase; period-stretching freeriders still
    /// get scheduled every `Tg` but skip phases).
    pub fn gossip_period(&self) -> SimDuration {
        self.config.gossip_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::FreeriderConfig;
    use lifting_sim::derive_rng;

    fn chunk(id: u64) -> Chunk {
        StreamClock::paper().chunk(id)
    }

    fn honest(id: u32) -> GossipNode {
        GossipNode::new(NodeId::new(id), GossipConfig::planetlab(), Behavior::Honest)
    }

    #[test]
    fn three_phase_exchange_moves_a_chunk() {
        let mut rng = derive_rng(1, 0);
        let mut a = honest(0);
        let mut b = honest(1);
        let c = chunk(7);
        a.inject_source_chunk(c, SimTime::ZERO);

        let round = a
            .begin_propose_round(SimTime::ZERO, vec![NodeId::new(1)], &mut rng)
            .expect("a has a fresh chunk");
        assert_eq!(&round.chunks[..], &[ChunkId::primary(7)]);

        let wanted = b.on_propose(NodeId::new(0), &round.chunks, SimTime::from_millis(50));
        assert_eq!(wanted, vec![ChunkId::primary(7)]);

        let served = a.on_request(NodeId::new(1), &wanted, &mut rng);
        assert_eq!(served.len(), 1);
        assert_eq!(a.chunks_served(), 1);

        assert!(b.on_serve(NodeId::new(0), served[0], SimTime::from_millis(100)));
        assert!(b.playout().contains(ChunkId::primary(7)));
        assert_eq!(b.stored_chunks(), 1);
    }

    #[test]
    fn infect_and_die_never_proposes_twice() {
        let mut rng = derive_rng(2, 0);
        let mut a = honest(0);
        a.inject_source_chunk(chunk(1), SimTime::ZERO);
        let first = a
            .begin_propose_round(SimTime::ZERO, vec![NodeId::new(1)], &mut rng)
            .unwrap();
        assert_eq!(&first.chunks[..], &[ChunkId::primary(1)]);
        // No new chunk arrived: the next round proposes nothing.
        assert!(a
            .begin_propose_round(SimTime::from_millis(500), vec![NodeId::new(2)], &mut rng)
            .is_none());
    }

    #[test]
    fn requests_are_ignored_without_a_matching_proposal() {
        let mut rng = derive_rng(3, 0);
        let mut a = honest(0);
        a.inject_source_chunk(chunk(1), SimTime::ZERO);
        // Node 5 was never proposed anything: it gets nothing.
        let served = a.on_request(NodeId::new(5), &[ChunkId::primary(1)], &mut rng);
        assert!(served.is_empty());
    }

    #[test]
    fn only_proposed_chunks_are_served() {
        let mut rng = derive_rng(4, 0);
        let mut a = honest(0);
        a.inject_source_chunk(chunk(1), SimTime::ZERO);
        a.inject_source_chunk(chunk(2), SimTime::ZERO);
        let round = a
            .begin_propose_round(SimTime::ZERO, vec![NodeId::new(1)], &mut rng)
            .unwrap();
        assert_eq!(round.chunks.len(), 2);
        // Partner asks for a chunk that was never proposed (id 99): ignored.
        let served = a.on_request(
            NodeId::new(1),
            &[ChunkId::primary(1), ChunkId::primary(99)],
            &mut rng,
        );
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].id, ChunkId::primary(1));
    }

    #[test]
    fn a_request_reads_only_the_latest_offer_of_the_last_nh_rounds() {
        let mut rng = derive_rng(10, 0);
        let nh = 3;
        let config = GossipConfig::planetlab();
        let mut a = GossipNode::for_stream(
            NodeId::new(0),
            StreamClock::paper(),
            config,
            Behavior::Honest,
            nh,
        );
        let (one, two) = (NodeId::new(1), NodeId::new(2));
        let ids = |i: u64| vec![ChunkId::primary(i)];
        let propose = |a: &mut GossipNode, i: u64, partners: Vec<NodeId>| {
            a.inject_source_chunk(chunk(i), SimTime::ZERO);
            a.begin_propose_round(SimTime::ZERO, partners, &mut derive_rng(10, i))
                .expect("a fresh chunk");
        };
        // Round 0 offers chunk 0 to both partners, round 1 chunk 1 to node 1
        // only: node 1's offer is now chunk 1's, node 2's still chunk 0's.
        propose(&mut a, 0, vec![one, two]);
        propose(&mut a, 1, vec![one]);
        assert!(
            a.on_request(one, &ids(0), &mut rng).is_empty(),
            "overwritten"
        );
        assert_eq!(a.on_request(one, &ids(1), &mut rng).len(), 1);
        assert_eq!(a.on_request(two, &ids(0), &mut rng).len(), 1);
        // Rounds 2 and 3 go to node 1; round 0 is then 3 rounds old, still
        // answerable. Round 4 makes it 4 rounds old: node 2's offer is gone.
        propose(&mut a, 2, vec![one]);
        propose(&mut a, 3, vec![one]);
        assert_eq!(a.on_request(two, &ids(0), &mut rng).len(), 1);
        propose(&mut a, 4, vec![one]);
        assert!(a.on_request(two, &ids(0), &mut rng).is_empty(), "expired");
        assert_eq!(a.on_request(one, &ids(4), &mut rng).len(), 1);
        // Rounds 1 to 4 are left, one partner each.
        assert_eq!(a.table_occupancy()[1].1, 4);
    }

    #[test]
    fn a_chunk_dropped_by_partial_propose_is_never_served() {
        let mut rng = derive_rng(12, 0);
        let cfg = FreeriderConfig {
            delta1: 0.0,
            delta2: 1.0, // always drop another node's chunks
            delta3: 0.0,
            period_stretch: 1,
        };
        let mut f = GossipNode::new(
            NodeId::new(0),
            GossipConfig::planetlab(),
            Behavior::Freerider(cfg),
        );
        // The node's own chunk is proposed; the one node 9 served is dropped.
        f.inject_source_chunk(chunk(1), SimTime::ZERO);
        assert!(f.on_serve(NodeId::new(9), chunk(2), SimTime::ZERO));
        let round = f
            .begin_propose_round(SimTime::ZERO, vec![NodeId::new(1)], &mut rng)
            .unwrap();
        assert_eq!(&round.chunks[..], &[ChunkId::primary(1)]);
        assert_eq!(round.dropped_sources, vec![NodeId::new(9)]);
        // A partner of that very round asks for both: only the proposed one
        // is served, now and after later rounds.
        let both = [ChunkId::primary(1), ChunkId::primary(2)];
        let served = f.on_request(NodeId::new(1), &both, &mut rng);
        assert_eq!(served, vec![chunk(1)]);
        f.inject_source_chunk(chunk(3), SimTime::ZERO);
        f.begin_propose_round(SimTime::ZERO, vec![NodeId::new(1)], &mut rng)
            .unwrap();
        let served = f.on_request(NodeId::new(1), &[ChunkId::primary(2)], &mut rng);
        assert!(served.is_empty());
    }

    #[test]
    fn duplicate_serves_are_not_double_counted() {
        let mut b = honest(1);
        let c = chunk(3);
        assert!(b.on_serve(NodeId::new(0), c, SimTime::from_millis(10)));
        assert!(!b.on_serve(NodeId::new(2), c, SimTime::from_millis(20)));
        assert_eq!(b.stored_chunks(), 1);
    }

    #[test]
    fn chunks_are_not_requested_twice_within_a_period() {
        let mut b = honest(1);
        let wanted1 = b.on_propose(NodeId::new(0), &[ChunkId::primary(5)], SimTime::ZERO);
        let wanted2 = b.on_propose(
            NodeId::new(2),
            &[ChunkId::primary(5)],
            SimTime::from_millis(100),
        );
        assert_eq!(wanted1, vec![ChunkId::primary(5)]);
        assert!(wanted2.is_empty(), "already requested from node 0");
        // After the reservation expires the chunk can be requested again.
        let wanted3 = b.on_propose(
            NodeId::new(3),
            &[ChunkId::primary(5)],
            SimTime::from_secs(2),
        );
        assert_eq!(wanted3, vec![ChunkId::primary(5)]);
    }

    #[test]
    fn a_thousand_chunks_cost_one_slot_each() {
        let mut rng = derive_rng(9, 0);
        let mut b = honest(1);
        for i in 0..1000 {
            let id = ChunkId::primary(i);
            assert_eq!(b.on_propose(NodeId::new(0), &[id], SimTime::ZERO), [id]);
            assert!(b.on_serve(NodeId::new(0), chunk(i), SimTime::from_millis(10)));
        }
        let partners = vec![NodeId::new(2), NodeId::new(3)];
        let round = b
            .begin_propose_round(SimTime::from_millis(500), partners, &mut rng)
            .unwrap();
        assert_eq!(round.chunks.len(), 1000);
        drop(round);
        // One table per chunk index (grown by an eighth at a time, so at
        // most 1 125 slots), and nothing else left but the two offers: one
        // 8-byte (round, partner) pair each, the round's list not kept.
        let offers = b.offers_out.capacity() * 8;
        assert_eq!(b.offers_out.len(), 2);
        assert_eq!(b.offers_heap_bytes(), offers);
        assert_eq!(b.fresh_heap_bytes(), 0);
        assert!(
            b.estimated_heap_bytes() <= 8 * 1_125 + offers,
            "{} B",
            b.estimated_heap_bytes()
        );
    }

    #[test]
    fn freerider_reduces_fanout_and_serves_partially() {
        let mut rng = derive_rng(5, 0);
        let cfg = FreeriderConfig::planetlab();
        let mut f = GossipNode::new(
            NodeId::new(0),
            GossipConfig::planetlab(),
            Behavior::Freerider(cfg),
        );
        assert_eq!(f.desired_fanout(&mut rng), 6);
        for i in 0..10 {
            f.inject_source_chunk(chunk(i), SimTime::ZERO);
        }
        let round = f
            .begin_propose_round(SimTime::ZERO, vec![NodeId::new(1)], &mut rng)
            .unwrap();
        // δ3 = 0.1: over many requests of 10 chunks, roughly 9 are served.
        let mut total = 0usize;
        for _ in 0..200 {
            total += f.on_request(NodeId::new(1), &round.chunks, &mut rng).len();
        }
        let mean = total as f64 / 200.0;
        assert!((mean - 9.0).abs() < 0.4, "mean served {mean}");
    }

    #[test]
    fn partial_propose_drops_whole_sources() {
        let mut rng = derive_rng(6, 0);
        let cfg = FreeriderConfig {
            delta1: 0.0,
            delta2: 1.0, // always drop
            delta3: 0.0,
            period_stretch: 1,
        };
        let mut f = GossipNode::new(
            NodeId::new(0),
            GossipConfig::planetlab(),
            Behavior::Freerider(cfg),
        );
        // Chunks served by node 9 are dropped from the proposal entirely.
        assert!(f.on_serve(NodeId::new(9), chunk(1), SimTime::ZERO));
        assert!(f.on_serve(NodeId::new(9), chunk(2), SimTime::ZERO));
        let round = f.begin_propose_round(SimTime::ZERO, vec![NodeId::new(1)], &mut rng);
        assert!(round.is_none(), "everything was dropped");
        // And infect-and-die means they are gone for good.
        assert!(f
            .begin_propose_round(SimTime::from_millis(500), vec![NodeId::new(1)], &mut rng)
            .is_none());
    }

    #[test]
    fn period_stretching_skips_phases_but_accumulates_chunks() {
        let mut rng = derive_rng(7, 0);
        let cfg = FreeriderConfig {
            delta1: 0.0,
            delta2: 0.0,
            delta3: 0.0,
            period_stretch: 2,
        };
        let mut f = GossipNode::new(
            NodeId::new(0),
            GossipConfig::planetlab(),
            Behavior::Freerider(cfg),
        );
        f.inject_source_chunk(chunk(1), SimTime::ZERO);
        // Period 0 proposes (0 % 2 == 0), period 1 skips, period 2 proposes again.
        assert!(f
            .begin_propose_round(SimTime::ZERO, vec![NodeId::new(1)], &mut rng)
            .is_some());
        f.inject_source_chunk(chunk(2), SimTime::from_millis(600));
        assert!(f
            .begin_propose_round(SimTime::from_millis(500), vec![NodeId::new(1)], &mut rng)
            .is_none());
        f.inject_source_chunk(chunk(3), SimTime::from_millis(900));
        let round = f
            .begin_propose_round(SimTime::from_millis(1000), vec![NodeId::new(1)], &mut rng)
            .unwrap();
        assert_eq!(
            round.chunks.len(),
            2,
            "accumulated chunks are proposed together"
        );
    }

    #[test]
    fn propose_round_tracks_sources_for_acknowledgements() {
        let mut rng = derive_rng(8, 0);
        let mut b = honest(1);
        assert!(b.on_serve(NodeId::new(10), chunk(1), SimTime::ZERO));
        assert!(b.on_serve(NodeId::new(10), chunk(2), SimTime::ZERO));
        assert!(b.on_serve(NodeId::new(20), chunk(3), SimTime::ZERO));
        let round = b
            .begin_propose_round(SimTime::from_millis(500), vec![NodeId::new(2)], &mut rng)
            .unwrap();
        assert_eq!(round.chunks.len(), 3);
        let mut sources: Vec<NodeId> = round.by_source.iter().map(|(s, _)| *s).collect();
        sources.sort();
        assert_eq!(sources, vec![NodeId::new(10), NodeId::new(20)]);
        let from_10 = round
            .by_source
            .iter()
            .find(|(s, _)| *s == NodeId::new(10))
            .map(|(_, ids)| ids.clone())
            .unwrap();
        assert_eq!(from_10.len(), 2);
    }
}

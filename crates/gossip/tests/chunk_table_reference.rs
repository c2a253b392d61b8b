//! Property test: a `GossipNode`'s flat per-chunk state answers exactly like
//! a naive model that keeps the four facts a node has about a chunk — held,
//! first received when, requested until when, already proposed — in four
//! hash collections keyed by chunk index. Public API only; the node is
//! honest, so it draws no randomness and the model needs no RNG. Scripts mix
//! fresh, duplicate, never-requested and out-of-order serves, sparse indices,
//! proposals that repeat an id, requests with and without a matching offer
//! (one overwritten by a later round, one older than the `nh`-round window
//! the node answers), and propose rounds with and without partners, over
//! non-decreasing time and up to a few hundred rounds.
//! Every chunk comes from the stream's clock, as on the wire; the model keeps
//! its own copy of each, the node rebuilds them from the clock.

use std::collections::{HashMap, HashSet};

use lifting_gossip::buffer::Receipt;
use lifting_gossip::{
    Behavior, Chunk, ChunkId, GossipConfig, GossipNode, ProposeRound, StreamClock,
};
use lifting_sim::{NodeId, SimDuration, SimTime, StreamId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

const ME: NodeId = NodeId(0);
const PEERS: u32 = 5;
/// Dense indices, small enough that scripts revisit a chunk many times.
const DENSE: u64 = 24;
/// Sparse indices: far past the dense range, so tables grow in jumps.
const SPARSE: [u64; 4] = [100, 777, 3_000, 5_000];

/// The reference: one hash collection per fact, no shared layout.
struct NaiveNode {
    stream: StreamId,
    gossip_period: SimDuration,
    store: HashMap<u64, Chunk>,
    received_at: HashMap<u64, SimTime>,
    reserved_until: HashMap<u64, SimTime>,
    proposed: HashSet<u64>,
    /// Chunks received since the last propose phase, by serving node.
    fresh: Vec<(NodeId, Vec<ChunkId>)>,
    /// The latest offer to each partner: its round and its chunk list.
    offers: HashMap<NodeId, (u64, Vec<ChunkId>)>,
    /// Rounds an offer stays answerable.
    nh: u64,
    period: u64,
    chunks_served: u64,
}

impl NaiveNode {
    fn receive(&mut self, from: NodeId, chunk: Chunk, now: SimTime) -> bool {
        let idx = chunk.id.index();
        if self.store.contains_key(&idx) {
            return false;
        }
        self.store.insert(idx, chunk);
        self.received_at.insert(idx, now);
        match self.fresh.iter_mut().find(|(source, _)| *source == from) {
            Some((_, ids)) => ids.push(chunk.id),
            None => self.fresh.push((from, vec![chunk.id])),
        }
        true
    }

    fn inject_source_chunk(&mut self, chunk: Chunk, now: SimTime) {
        self.receive(ME, chunk, now);
    }

    fn on_serve(&mut self, from: NodeId, chunk: Chunk, now: SimTime) -> bool {
        self.reserved_until.remove(&chunk.id.index());
        self.receive(from, chunk, now)
    }

    fn on_propose(&mut self, chunks: &[ChunkId], now: SimTime) -> Vec<ChunkId> {
        let mut wanted = Vec::new();
        for id in chunks {
            let idx = id.index();
            let reserved = self
                .reserved_until
                .get(&idx)
                .is_some_and(|until| *until > now);
            if self.store.contains_key(&idx) || reserved {
                continue;
            }
            self.reserved_until.insert(idx, now + self.gossip_period);
            wanted.push(*id);
        }
        wanted
    }

    fn on_request(&mut self, from: NodeId, requested: &[ChunkId]) -> Vec<Chunk> {
        // Live while the latest round run is at most `nh` rounds after it.
        let Some((_, offer)) = self
            .offers
            .get(&from)
            .filter(|(round, _)| round + self.nh + 1 >= self.period)
        else {
            return Vec::new();
        };
        let mut valid: Vec<ChunkId> = requested
            .iter()
            .copied()
            .filter(|id| offer.contains(id))
            .collect();
        valid.dedup();
        let served: Vec<Chunk> = valid
            .iter()
            .filter_map(|id| self.store.get(&id.index()).copied())
            .collect();
        self.chunks_served += served.len() as u64;
        served
    }

    fn begin_propose_round(&mut self, partners: Vec<NodeId>) -> Option<ProposeRound> {
        let period = self.period;
        self.period += 1;
        if self.fresh.is_empty() || partners.is_empty() {
            return None;
        }
        let mut chunks = Vec::new();
        let mut by_source = Vec::new();
        for (source, ids) in std::mem::take(&mut self.fresh) {
            let kept: Vec<ChunkId> = ids
                .into_iter()
                .filter(|id| self.proposed.insert(id.index()))
                .collect();
            chunks.extend(&kept);
            if !kept.is_empty() {
                by_source.push((source, kept));
            }
        }
        if chunks.is_empty() {
            return None;
        }
        chunks.sort_unstable();
        chunks.dedup();
        for partner in &partners {
            self.offers.insert(*partner, (period, chunks.clone()));
        }
        Some(ProposeRound {
            period,
            chunks: chunks.into(),
            partners,
            by_source,
            dropped_sources: Vec::new(),
        })
    }

    fn lag_of(&self, id: ChunkId) -> Option<SimDuration> {
        if id.stream() != self.stream {
            return None;
        }
        let chunk = self.store.get(&id.index())?;
        Some(self.received_at[&id.index()].saturating_since(chunk.emitted_at))
    }

    /// The playout buffer's JSON shape: `[[chunk, receipt], ...]` by index.
    fn playout_json(&self) -> Value {
        let mut held: Vec<&Chunk> = self.store.values().collect();
        held.sort_by_key(|c| c.id);
        let pair = |c: &Chunk| {
            let receipt = Receipt {
                emitted_at: c.emitted_at,
                received_at: self.received_at[&c.id.index()],
            };
            Value::Array(vec![c.id.to_json_value(), receipt.to_json_value()])
        };
        Value::Array(held.into_iter().map(pair).collect())
    }
}

/// `by_source` comes out in the node's hash order, which the model does not
/// reproduce: compare it as a set of sources (each appears once).
fn normalized(round: Option<ProposeRound>) -> Option<ProposeRound> {
    round.map(|mut r| {
        r.by_source.sort();
        r
    })
}

fn peer(rng: &mut SmallRng) -> NodeId {
    NodeId::new(rng.gen_range(1..=PEERS))
}

fn index(rng: &mut SmallRng) -> u64 {
    if rng.gen_range(0u32..12) == 0 {
        SPARSE[rng.gen_range(0..SPARSE.len())]
    } else {
        rng.gen_range(0..DENSE)
    }
}

/// Up to `max` ids; the list may be empty and may repeat an id.
fn id_list(stream: StreamId, rng: &mut SmallRng, max: usize) -> Vec<ChunkId> {
    (0..rng.gen_range(0..=max))
        .map(|_| ChunkId::new(stream, index(rng)))
        .collect()
}

/// The clock of `stream`: one 1 000-byte chunk every 40 ms, from a start
/// that differs per stream.
fn clock_of(stream: StreamId) -> StreamClock {
    StreamClock::new(stream, 200_000, 1_000)
        .starting_at(SimTime::from_millis(stream.0 as u64 * 250))
}

fn assert_same_state(node: &GossipNode, naive: &NaiveNode, step: usize) {
    prop_assert!(node.stored_chunks() == naive.store.len(), "step {step}");
    prop_assert!(node.playout().len() == naive.store.len(), "step {step}");
    prop_assert!(node.playout().is_empty() == naive.store.is_empty());
    prop_assert!(node.chunks_served() == naive.chunks_served, "step {step}");
    prop_assert!(node.period() == naive.period, "step {step}");
    prop_assert!(
        node.playout().to_json_value() == naive.playout_json(),
        "serialized playout at step {step}"
    );
    for idx in (0..DENSE).chain(SPARSE).chain([SPARSE[3] + 1]) {
        for stream in [naive.stream, StreamId::new(naive.stream.0 + 1)] {
            let id = ChunkId::new(stream, idx);
            prop_assert!(
                node.playout().lag_of(id) == naive.lag_of(id),
                "lag_of({id}) at step {step}"
            );
            prop_assert!(node.playout().contains(id) == naive.lag_of(id).is_some());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn gossip_node_answers_like_the_naive_model(
        seed in 0u64..1_000_000,
        stream in 0usize..3,
        steps in 50usize..1_000,
        window in 0usize..4,
    ) {
        // Short windows expire offers within a script; the paper's 50 only
        // in the longest ones.
        let nh = [1u64, 3, 10, 50][window];
        let mut rng = SmallRng::seed_from_u64(seed);
        let stream = StreamId::new(stream as u16);
        let config = GossipConfig::planetlab();
        let clock = clock_of(stream);
        let mut node = GossipNode::for_stream(ME, clock, config, Behavior::Honest, nh as usize);
        let mut naive = NaiveNode {
            stream,
            gossip_period: config.gossip_period,
            store: HashMap::new(),
            received_at: HashMap::new(),
            reserved_until: HashMap::new(),
            proposed: HashSet::new(),
            fresh: Vec::new(),
            offers: HashMap::new(),
            nh,
            period: 0,
            chunks_served: 0,
        };
        let mut now = SimTime::ZERO;
        // What the last proposal asked this node to request: serves of these
        // are the "fresh, requested" case; any other serve was never asked for.
        let mut wanted: Vec<ChunkId> = Vec::new();
        for step in 0..steps {
            // Non-decreasing time; steps of 0 ms to past a reservation's 500 ms.
            let pause = [0, 0, 30, 120, 400, 700][rng.gen_range(0..6usize)];
            now += SimDuration::from_millis(pause);
            match rng.gen_range(0u32..20) {
                0..=1 => {
                    let chunk = clock.chunk(index(&mut rng));
                    node.inject_source_chunk(chunk, now);
                    naive.inject_source_chunk(chunk, now);
                }
                2..=6 => {
                    let chunks = id_list(stream, &mut rng, 6);
                    let from = peer(&mut rng);
                    wanted = node.on_propose(from, &chunks, now);
                    prop_assert!(
                        wanted == naive.on_propose(&chunks, now),
                        "on_propose({chunks:?}) at step {step}"
                    );
                }
                7..=12 => {
                    // A requested chunk (taken from either end of the list:
                    // out of order), or any chunk at all: a duplicate, a held
                    // one, one never requested.
                    let idx = match (rng.gen_range(0u32..3), wanted.is_empty()) {
                        (0, _) | (_, true) => index(&mut rng),
                        (1, false) => wanted.remove(0).index(),
                        (_, false) => wanted.pop().expect("not empty").index(),
                    };
                    let (from, chunk) = (peer(&mut rng), clock.chunk(idx));
                    prop_assert!(
                        node.on_serve(from, chunk, now) == naive.on_serve(from, chunk, now),
                        "on_serve({idx}) at step {step}"
                    );
                }
                13..=15 => {
                    let partners: Vec<NodeId> =
                        (0..rng.gen_range(0..=3usize)).map(|_| peer(&mut rng)).collect();
                    let round = node.begin_propose_round(now, partners.clone(), &mut rng);
                    prop_assert!(
                        normalized(round) == normalized(naive.begin_propose_round(partners)),
                        "begin_propose_round at step {step}"
                    );
                }
                _ => {
                    let (from, requested) = (peer(&mut rng), id_list(stream, &mut rng, 8));
                    prop_assert!(
                        node.on_request(from, &requested, &mut rng) == naive.on_request(from, &requested),
                        "on_request({requested:?}) at step {step}"
                    );
                }
            }
            assert_same_state(&node, &naive, step);
        }
    }
}

//! Property test: `NodeHistory` (flat logs under a ring of period headers,
//! one partner log partitioned by the sent proposals, per-proposer chains
//! through the received-proposal log) answers every query exactly like a
//! naive history that keeps three lists and a serve count per period and
//! scans all of them each time — across eviction (which drains the partner
//! log across its ring's wrap point), period gaps, a period number coming
//! back after a later one, a proposer present in every period, the same
//! chunk id live in two proposals of one proposer, and empty lists.

use lifting_core::NodeHistory;
use lifting_gossip::ChunkId;
use lifting_sim::NodeId;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct NaiveProposal {
    partners: Vec<NodeId>,
    chunks: Vec<ChunkId>,
}

#[derive(Serialize)]
struct NaivePeriod {
    period: u64,
    proposals_sent: Vec<NaiveProposal>,
    serves_received: u32,
    proposals_received: Vec<(NodeId, Vec<ChunkId>)>,
    confirms_received: Vec<(NodeId, NodeId)>,
}

/// The reference: the history's semantics with no index and no running
/// totals. Its derived `Serialize` is the JSON shape `NodeHistory` promises.
#[derive(Serialize)]
struct NaiveHistory {
    owner: NodeId,
    capacity_periods: usize,
    periods: Vec<NaivePeriod>,
}

impl NaiveHistory {
    fn current_mut(&mut self, period: u64) -> &mut NaivePeriod {
        if self.periods.last().map(|p| p.period) != Some(period) {
            self.periods.push(NaivePeriod {
                period,
                proposals_sent: Vec::new(),
                serves_received: 0,
                proposals_received: Vec::new(),
                confirms_received: Vec::new(),
            });
            if self.periods.len() > self.capacity_periods {
                self.periods.remove(0);
            }
        }
        self.periods.last_mut().expect("just pushed")
    }

    fn received_proposal_with(&self, proposer: NodeId, chunks: &[ChunkId]) -> bool {
        chunks.iter().all(|needle| {
            self.periods.iter().any(|p| {
                p.proposals_received
                    .iter()
                    .any(|(from, ids)| *from == proposer && ids.contains(needle))
            })
        })
    }

    fn confirm_askers_about(&self, subject: NodeId) -> Vec<NodeId> {
        self.periods
            .iter()
            .flat_map(|p| &p.confirms_received)
            .filter(|(_, s)| *s == subject)
            .map(|(asker, _)| *asker)
            .collect()
    }

    fn fanout_multiset(&self) -> Vec<NodeId> {
        self.periods
            .iter()
            .flat_map(|p| &p.proposals_sent)
            .flat_map(|pr| pr.partners.iter().copied())
            .collect()
    }

    fn proposals_sent(&self) -> Vec<(Vec<NodeId>, Vec<ChunkId>)> {
        self.periods
            .iter()
            .flat_map(|p| &p.proposals_sent)
            .map(|pr| (pr.partners.clone(), pr.chunks.clone()))
            .collect()
    }

    fn propose_phase_count(&self) -> usize {
        self.periods
            .iter()
            .filter(|p| !p.proposals_sent.is_empty())
            .count()
    }

    /// The upload format: 8 bytes of period count, 16 per period header, 6
    /// per node id, 8 per chunk id, 4 per list length.
    fn wire_size(&self) -> u64 {
        let mut bytes = 8;
        for p in &self.periods {
            bytes += 16;
            for pr in &p.proposals_sent {
                bytes += 4 + 6 * pr.partners.len() as u64 + 8 * pr.chunks.len() as u64;
            }
            bytes += (6 + 8) * u64::from(p.serves_received);
            for (_, ids) in &p.proposals_received {
                bytes += 6 + 4 + 8 * ids.len() as u64;
            }
            bytes += 2 * 6 * p.confirms_received.len() as u64;
        }
        bytes
    }
}

const NODES: u32 = 6;
const CHUNKS: u64 = 12;
/// Sends a proposal in almost every period.
const REGULAR: NodeId = NodeId(1);

fn node(rng: &mut SmallRng) -> NodeId {
    NodeId::new(rng.gen_range(0..NODES))
}

/// Up to `max` chunk ids from a range small enough that live proposals of
/// one proposer overlap; the list may be empty and may repeat an id.
fn chunk_list(rng: &mut SmallRng, max: usize) -> Vec<ChunkId> {
    (0..rng.gen_range(0..=max))
        .map(|_| ChunkId::primary(rng.gen_range(0..CHUNKS)))
        .collect()
}

fn assert_same_answers(h: &NodeHistory, naive: &NaiveHistory, rng: &mut SmallRng, step: usize) {
    prop_assert!(h.len() == naive.periods.len(), "len at step {step}");
    prop_assert!(h.is_empty() == naive.periods.is_empty());
    prop_assert!(
        h.wire_size() == naive.wire_size(),
        "wire_size at step {step}"
    );
    prop_assert!(h.fanout_multiset() == naive.fanout_multiset());
    let sent: Vec<(Vec<NodeId>, Vec<ChunkId>)> = h
        .proposals_sent()
        .map(|(partners, chunks)| (partners.copied().collect(), chunks.to_vec()))
        .collect();
    prop_assert!(
        sent == naive.proposals_sent(),
        "proposals_sent at step {step}"
    );
    prop_assert!(h.propose_phase_count() == naive.propose_phase_count());
    prop_assert!(h.to_json_value() == naive.to_json_value());
    for n in 0..NODES {
        let n = NodeId::new(n);
        prop_assert!(
            h.confirm_askers_about(n) == naive.confirm_askers_about(n),
            "confirm_askers_about({n}) at step {step}"
        );
        prop_assert!(h.received_proposal_with(n, &[]));
        for c in 0..CHUNKS {
            let c = [ChunkId::primary(c)];
            prop_assert!(
                h.received_proposal_with(n, &c) == naive.received_proposal_with(n, &c),
                "received_proposal_with({n}, {c:?}) at step {step}"
            );
        }
        // Needles that may be spread over several live proposals.
        let several = chunk_list(rng, 4);
        prop_assert!(
            h.received_proposal_with(n, &several) == naive.received_proposal_with(n, &several),
            "received_proposal_with({n}, {several:?}) at step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn node_history_answers_like_the_naive_model(
        seed in 0u64..1_000_000,
        capacity in 1usize..51,
        steps in 50usize..400,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let owner = NodeId::new(0);
        let mut h = NodeHistory::new(owner, capacity);
        let mut naive = NaiveHistory { owner, capacity_periods: capacity, periods: Vec::new() };
        let mut period = 0u64;
        for step in 0..steps {
            match rng.gen_range(0u32..20) {
                // A new period: usually the next one, sometimes after a gap,
                // sometimes a number already used before a later one.
                0..=3 => {
                    period += rng.gen_range(1..4u64);
                    let chunks = chunk_list(&mut rng, 3);
                    h.record_proposal_received(period, REGULAR, chunks.clone().into());
                    naive.current_mut(period).proposals_received.push((REGULAR, chunks));
                }
                4 => period = period.saturating_sub(rng.gen_range(1..3u64)),
                5..=7 => {
                    // 0 to 10 partners: uneven runs of the partner log.
                    let partners: Vec<NodeId> =
                        (0..rng.gen_range(0..=10usize)).map(|_| node(&mut rng)).collect();
                    let chunks = chunk_list(&mut rng, 10);
                    if rng.gen_bool(0.5) {
                        h.record_proposal_sent(period, &partners, &chunks);
                    } else {
                        let shared: Arc<[ChunkId]> = chunks.clone().into();
                        h.record_proposal_sent_shared(period, &partners, shared);
                    }
                    naive
                        .current_mut(period)
                        .proposals_sent
                        .push(NaiveProposal { partners, chunks });
                }
                8..=10 => {
                    h.record_serve_received(period);
                    naive.current_mut(period).serves_received += 1;
                }
                11..=15 => {
                    let (proposer, chunks) = (node(&mut rng), chunk_list(&mut rng, 4));
                    h.record_proposal_received(period, proposer, chunks.clone().into());
                    naive.current_mut(period).proposals_received.push((proposer, chunks));
                }
                _ => {
                    let (asker, subject) = (node(&mut rng), node(&mut rng));
                    h.record_confirm_received(period, asker, subject);
                    naive.current_mut(period).confirms_received.push((asker, subject));
                }
            }
            assert_same_answers(&h, &naive, &mut rng, step);
        }
    }
}

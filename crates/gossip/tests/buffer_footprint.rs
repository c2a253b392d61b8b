//! The heap a node's chunk table and offers retain must follow what they
//! hold. One honest node receives a stream 8 to 12 chunks per period for
//! 2 000 periods, one chunk in twenty a period late, and proposes what it
//! received to 7 partners drawn from 300 every period.
//!
//! Both tables never shrink and, when full, grow by an eighth of their
//! length, at least four entries: capacity is at most the most entries held
//! plus that step. The offers hold one entry per partner of each of the last
//! `nh` + 1 rounds, so their bound is fixed by the window, not by the run's
//! length or the population. The bounds below are that growth rule, not
//! tuned figures.

use lifting_gossip::{Behavior, GossipConfig, GossipNode, StreamClock};
use lifting_sim::{derive_rng, NodeId, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

const PERIODS: u64 = 2_000;
const PARTNERS: u32 = 300;
const FANOUT: usize = 7;
/// The paper's history window `nh`, in rounds.
const NH: usize = 50;

/// The most slots the growth rule lets a table retain after holding at most
/// `peak` entries.
fn grown_from(peak: usize) -> usize {
    peak + (peak / 8).max(4)
}

#[test]
fn chunk_table_and_offers_follow_what_they_hold() {
    let mut rng: SmallRng = derive_rng(44, 0);
    let clock = StreamClock::paper();
    let config = GossipConfig::planetlab();
    let me = NodeId::new(0);
    let mut node = GossipNode::for_stream(me, clock, config, Behavior::Honest, NH);
    let mut peaks = [0; 2];
    let mut next = 0u64;
    let mut withheld: Vec<u64> = Vec::new();
    for period in 0..PERIODS {
        let last = period + 1 == PERIODS;
        let now = SimTime::ZERO + config.gossip_period.saturating_mul(period);
        let proposer = NodeId::new(rng.gen_range(1..=PARTNERS));
        // The next 8 to 12 chunks, a few held back to the next period.
        let mut offered = std::mem::take(&mut withheld);
        let count = rng.gen_range(8..=12u64);
        for index in next..next + count {
            if !last && rng.gen_bool(0.05) {
                withheld.push(index);
            } else {
                offered.push(index);
            }
        }
        next += count;
        let ids: Vec<_> = offered.iter().map(|i| clock.chunk(*i).id).collect();
        for id in node.on_propose(proposer, &ids, now) {
            let chunk = clock.chunk(id.index());
            assert!(node.on_serve(proposer, chunk, now + SimDuration::from_millis(50)));
        }
        let partners = (0..FANOUT)
            .map(|_| NodeId::new(rng.gen_range(1..=PARTNERS)))
            .collect();
        let tick = now + SimDuration::from_millis(400);
        node.begin_propose_round(tick, partners, &mut rng);
        for ((table, held, capacity), peak) in node.table_occupancy().into_iter().zip(&mut peaks) {
            *peak = held.max(*peak);
            assert!(
                capacity <= grown_from(*peak),
                "period {period}: the {table} retains {capacity} slots after holding at most \
                 {peak} (bound {})",
                grown_from(*peak)
            );
        }
        let (_, offers, capacity) = node.table_occupancy()[1];
        let window = (NH + 1) * FANOUT;
        assert!(
            offers <= window && capacity <= grown_from(window),
            "period {period}: the offers hold {offers} entries in {capacity} slots, \
             past the {NH}-round window's {window} (bound {})",
            grown_from(window)
        );
    }
    let [(_, slots, _), (_, offers, _)] = node.table_occupancy();
    assert_eq!(slots, next as usize, "one slot per chunk index");
    assert!(
        offers > NH * FANOUT,
        "{offers} offers: the window filled, so expiry was exercised"
    );
    assert_eq!(
        node.playout().estimated_heap_bytes(),
        8 * node.table_occupancy()[0].2,
        "one 8-byte word per slot"
    );
}

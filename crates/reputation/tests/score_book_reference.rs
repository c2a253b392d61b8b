//! Differential test: `ManagerState` (managed ids sorted ascending beside
//! their records, binary-searched) against a dense book indexed by node id
//! over the whole world, under random sequences of registrations, blames
//! (negative ones included), credited period ends that freeze some nodes
//! and threshold votes. Records must match bit for bit, and every walk — the
//! period end's credit calls, the votes, `iter` — must visit the managed
//! nodes in the same ascending order. A vote sweep returns every charge
//! below η, however often it was voted against before.

use std::cell::RefCell;

use lifting_reputation::{ManagerState, ScoreRecord};
use lifting_sim::{derive_rng, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

const WORLD: u32 = 96;

/// The reference: one optional record per node id of the world.
struct DenseBook {
    records: Vec<Option<ScoreRecord>>,
}

impl DenseBook {
    fn slot(&mut self, node: NodeId) -> &mut ScoreRecord {
        self.records[node.index()].get_or_insert_with(ScoreRecord::default)
    }

    fn managed(&self) -> impl Iterator<Item = (NodeId, &ScoreRecord)> + '_ {
        self.records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((NodeId::new(i as u32), r.as_ref()?)))
    }

    fn end_period_credited(&mut self, credit: impl Fn(NodeId) -> Option<f64>) -> usize {
        let mut visited = 0;
        for (i, slot) in self.records.iter_mut().enumerate() {
            let Some(r) = slot else { continue };
            visited += 1;
            if let Some(c) = credit(NodeId::new(i as u32)) {
                r.periods += 1;
                r.compensation += c.max(0.0);
            }
        }
        visited
    }

    fn expulsion_votes(&self, eta: f64, min_periods: u64) -> Vec<NodeId> {
        let below = |r: &ScoreRecord| r.periods >= min_periods && r.normalized_score() < eta;
        self.managed()
            .filter(|(_, r)| below(r))
            .map(|(n, _)| n)
            .collect()
    }
}

fn bits(r: &ScoreRecord) -> (u64, u64, u64) {
    (r.blame.to_bits(), r.compensation.to_bits(), r.periods)
}

/// A node of a manager's usual fan-in: mostly a fixed few dozen ids, now
/// and then any id of the world.
fn node(rng: &mut SmallRng) -> NodeId {
    if rng.gen_bool(0.9) {
        NodeId::new(rng.gen_range(0..25u32) * 3 + 1)
    } else {
        NodeId::new(rng.gen_range(0..WORLD))
    }
}

fn assert_same(book: &ManagerState, dense: &DenseBook, case: u64, step: usize) {
    let walked: Vec<(NodeId, (u64, u64, u64))> = book.iter().map(|(n, r)| (n, bits(r))).collect();
    let expected: Vec<(NodeId, (u64, u64, u64))> =
        dense.managed().map(|(n, r)| (n, bits(r))).collect();
    assert_eq!(walked, expected, "case {case}, step {step}: books differ");
    assert_eq!(book.managed_count(), expected.len());
    for id in 0..WORLD {
        let n = NodeId::new(id);
        let dense_record = dense.records[id as usize];
        assert_eq!(
            book.record(n).map(|r| bits(&r)),
            dense_record.map(|r| bits(&r))
        );
        let score = book.normalized_score(n).map(f64::to_bits);
        assert_eq!(score, dense_record.map(|r| r.normalized_score().to_bits()));
    }
}

#[test]
fn the_sorted_book_matches_a_dense_book() {
    let mut voted = 0;
    for case in 0..120u64 {
        let mut rng = derive_rng(case, 6);
        let mut book = ManagerState::new();
        let mut dense = DenseBook {
            records: vec![None; WORLD as usize],
        };
        for step in 0..300 {
            match rng.gen_range(0..20) {
                0..=2 => {
                    let n = node(&mut rng);
                    book.register(n);
                    dense.slot(n);
                }
                3..=12 => {
                    let (n, value) = (node(&mut rng), rng.gen_range(-2.0..12.0));
                    book.apply_blame(n, value);
                    dense.slot(n).blame += value.max(0.0);
                }
                13..=15 => {
                    // Credit most nodes, freeze some, credit a few negatively.
                    let salt = rng.gen::<u64>();
                    let credit = |n: NodeId| {
                        let h = (u64::from(n.index() as u32) ^ salt)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        match h >> 60 {
                            0 | 1 => None,
                            2 => Some(-1.0),
                            k => Some(k as f64 * 0.7),
                        }
                    };
                    let (seen, dense_seen) = (RefCell::new(Vec::new()), RefCell::new(Vec::new()));
                    let visited = book.end_period_credited(|n| {
                        seen.borrow_mut().push(n);
                        credit(n)
                    });
                    let dense_visited = dense.end_period_credited(|n| {
                        dense_seen.borrow_mut().push(n);
                        credit(n)
                    });
                    assert_eq!(visited, dense_visited, "case {case}: records visited");
                    assert_eq!(
                        seen.into_inner(),
                        dense_seen.into_inner(),
                        "case {case}: credit order"
                    );
                }
                _ => {
                    let (eta, min_periods) = (rng.gen_range(-9.0..0.0), rng.gen_range(0..4u64));
                    let mut votes = Vec::new();
                    book.expulsion_votes_into(eta, min_periods, &mut votes);
                    let expected = dense.expulsion_votes(eta, min_periods);
                    assert_eq!(votes, expected, "case {case}, step {step}: votes");
                    voted += votes.len();
                }
            }
            assert_same(&book, &dense, case, step);
        }
    }
    assert!(voted > 100, "threshold votes exercised: {voted}");
}

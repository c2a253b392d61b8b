//! Property test: the event queue (front, three wheel levels, overflow) pops
//! in *exactly* the order a reference `BinaryHeap` priority queue would, for
//! arbitrary interleavings of pushes (including pushes "in the past"), pops,
//! deadline-bounded pops and predicate-guarded pops. This is the ordering
//! contract that keeps every golden digest independent of the queue's layout.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use lifting_sim::{EventQueue, SimTime};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The reference implementation: one `BinaryHeap` over everything, ordered by
/// `(time, seq)` with a monotone push counter as the FIFO tie-breaker.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<RefEntry>,
    next_seq: u64,
}

struct RefEntry {
    time: SimTime,
    seq: u64,
    event: u64,
}

impl PartialEq for RefEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for RefEntry {}
impl Ord for RefEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for RefEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl ReferenceQueue {
    fn push(&mut self, time: SimTime, event: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(RefEntry { time, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    fn pop_due_if(
        &mut self,
        deadline: SimTime,
        take: impl FnOnce(SimTime, &u64) -> bool,
    ) -> Option<(SimTime, u64, u64)> {
        match self.heap.peek() {
            Some(e) if e.time <= deadline && take(e.time, &e.event) => {
                self.heap.pop().map(|e| (e.time, e.seq, e.event))
            }
            _ => None,
        }
    }
}

/// Slot widths of the queue's wheel: a level-1 slot (262 ms, the span of
/// level 0), a level-2 slot (67 s, the span of level 1) and the span of
/// level 2 (4.8 h). Slot boundaries are multiples of the width; level 2 is
/// based at zero, and after each refill at the earliest overflow event.
const L1_SLOT_US: u64 = 1 << 18;
const L2_SLOT_US: u64 = 1 << 26;
const WHEEL_US: u64 = 1 << 34;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn wheel_pops_exactly_like_a_binary_heap(
        seed in 0u64..1_000_000,
        ops in 200usize..2_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut next_event = 0u64;
        // Pushes (1–3 events each) take 35–60 % of the operations: at the
        // low end the queue keeps running dry, so simulated time crosses many
        // level boundaries with pushes in between; at the high end it fills.
        let push_share = rng.gen_range(7u32..=12);
        let mut base_us = 0u64;
        for _ in 0..ops {
            let deadline = SimTime::from_micros(base_us + rng.gen_range(0u64..2_000_000));
            let op = rng.gen_range(0u32..20);
            let popped = match op.checked_sub(push_share) {
                // Times on both sides of a level-1 slot boundary, of the end
                // of level 1 (67 s) and of the wheel's span — half of them
                // within two microseconds of it — counted from the earliest
                // pending event, where a level is based whenever it is
                // cascaded or refilled at that event; the rest of the level-1
                // slot being drained, which was cascaded over level 0; tens of
                // seconds and whole level-2 slots out; the bulk within 400 ms.
                None => {
                    let first = reference.heap.peek().map_or(base_us, |e| e.time.as_micros());
                    let edge = |width: u64, k: u64| first - first % width + k * width;
                    let boundary = match rng.gen_range(0u32..4) {
                        0 | 1 => edge(L1_SLOT_US, rng.gen_range(1u64..=8)),
                        2 => edge(L2_SLOT_US, rng.gen_range(1u64..=2)),
                        _ if rng.gen_bool(0.5) => edge(L2_SLOT_US, 256),
                        _ => edge(WHEEL_US, 1),
                    };
                    let inset = match rng.gen_range(0u32..10) {
                        0..=3 => 1,
                        4 => 2,
                        _ => rng.gen_range(1u64..=1_024),
                    };
                    let at = match rng.gen_range(0u32..11) {
                        0 => base_us,
                        1 => base_us + rng.gen_range(1u64..1_024),
                        2 => base_us + rng.gen_range(0..L1_SLOT_US - base_us % L1_SLOT_US),
                        3 | 4 => boundary - inset,
                        5 => boundary + inset - 1,
                        6 => base_us - base_us % L2_SLOT_US + rng.gen_range(2u64..80) * L2_SLOT_US,
                        7 => base_us + rng.gen_range(20_000_000u64..90_000_000),
                        _ => base_us + rng.gen_range(0u64..400_000),
                    };
                    // Occasionally schedule before the drained frontier.
                    let t = if rng.gen_bool(0.1) {
                        SimTime::from_micros(base_us.saturating_sub(at.abs_diff(base_us)))
                    } else {
                        SimTime::from_micros(at)
                    };
                    for _ in 0..rng.gen_range(1usize..4) {
                        queue.push(t, next_event);
                        reference.push(t, next_event);
                        next_event += 1;
                    }
                    None
                }
                // Of the rest: 1 in 8 a guarded pop (wave collection: a refused
                // head stays), 2 in 8 deadline-bounded (the engine's fast
                // path), the others plain.
                Some(0) => {
                    let a = queue.pop_due_if(deadline, |_, e| e % 3 != 0);
                    let b = reference.pop_due_if(deadline, |_, e| e % 3 != 0);
                    prop_assert!(a == b, "pop_due_if diverged: queue {a:?} vs heap {b:?}");
                    a.map(|(t, _, e)| (t, e))
                }
                Some(1 | 2) => {
                    let a = queue.pop_due(deadline);
                    let b = reference.pop_due_if(deadline, |_, _| true);
                    prop_assert!(a == b, "pop_due diverged: queue {a:?} vs heap {b:?}");
                    a.map(|(t, _, e)| (t, e))
                }
                Some(_) => {
                    let (a, b) = (queue.pop(), reference.pop());
                    prop_assert!(a == b, "pop diverged: queue {a:?} vs heap {b:?}");
                    a
                }
            };
            if let Some((t, _)) = popped {
                base_us = base_us.max(t.as_micros());
            }
            prop_assert!(queue.len() == reference.heap.len());
            prop_assert!(queue.peek_time() == reference.heap.peek().map(|e| e.time));
        }
        // Drain: the tail must agree element by element too.
        loop {
            let a = queue.pop();
            let b = reference.pop();
            prop_assert!(a == b, "drain diverged: queue {a:?} vs heap {b:?}");
            if a.is_none() {
                break;
            }
        }
        prop_assert!(queue.is_empty());
    }
}

/// Events a second apart for 28 h: nearly every pop cascades down from
/// level 1, and the overflow is refilled once per 4.8 h. Re-reading the
/// overflow every 67 s, as a wheel of two levels would, visits ~7.5 * 10^7
/// entries here; re-reading it per pop, 5 * 10^9.
#[test]
fn a_sparse_timeline_is_not_rescanned_per_pop() {
    let mut queue = EventQueue::new();
    for i in 0..100_000u64 {
        queue.push(SimTime::from_secs(i), i);
    }
    let start = std::time::Instant::now();
    for i in 0..100_000u64 {
        assert_eq!(queue.pop(), Some((SimTime::from_secs(i), i)));
    }
    assert!(queue.is_empty());
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "draining took {elapsed:?}"
    );
}

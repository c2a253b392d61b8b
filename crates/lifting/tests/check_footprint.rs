//! The heap a verifier's pending checks retain must follow the checks armed
//! within one timeout. Traffic is shaped like one node of the `headline` run
//! — per 500 ms period about two requests and two serves of 1 to 12 chunks,
//! and two cross-checks over 7 witnesses — and every timer fires at its
//! deadline. A kind's checks expire in the order they were armed, so its
//! ring spans at most the checks armed within one timeout and, grown by
//! doubling, retains at most two slots per such check; each check adds its
//! lists. The bound below is that rule with the slot sizes the design
//! promises (serve 40 B, ack 24 B, confirm 80 B), not a tuned figure.
//!
//! A check over at most 64 entries keeps its evidence in one inline word:
//! arming it, feeding it and expiring it allocates nothing (a cross-check
//! allocates only the confirm payload its witnesses share), checked with a
//! counting allocator; the 65th entry spills one array.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BinaryHeap, VecDeque};
use std::mem::size_of;
use std::sync::Arc;

use lifting_core::{
    AckPayload, CollusionConfig, ConfirmResponsePayload, LiftingConfig, Verifier, VerifierAction,
    VerifierTimer, ACK_TIMEOUT, CONFIRM_TIMEOUT, SERVE_TIMEOUT,
};
use lifting_gossip::ChunkId;
use lifting_sim::{derive_rng, NodeId, SimDuration, SimTime, StreamId};
use rand::rngs::SmallRng;
use rand::Rng;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const FANOUT: usize = 7;
/// Slot sizes of the serve, ack and confirm rings.
const SLOTS: [usize; 3] = [40, 24, 80];
const PERIOD: SimDuration = SimDuration::from_millis(500);

fn chunks(next: &mut u64, len: u64) -> Vec<ChunkId> {
    *next += len;
    (*next - len..*next).map(ChunkId::primary).collect()
}

fn witnesses(len: u32) -> Arc<[NodeId]> {
    (100..100 + len).map(NodeId::new).collect()
}

/// A verifier, its armed timers in deadline order and a reused effect list.
struct Node {
    verifier: Verifier,
    timers: BinaryHeap<std::cmp::Reverse<(SimTime, u64, TimerKey)>>,
    seq: u64,
    out: Vec<VerifierAction>,
}

/// `VerifierTimer` with an order, for the heap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerKey(u8, u64);

impl TimerKey {
    fn of(timer: VerifierTimer) -> Self {
        match timer {
            VerifierTimer::ServeCheck { token } => TimerKey(0, token),
            VerifierTimer::AckCheck { token } => TimerKey(1, token),
            VerifierTimer::ConfirmCheck { token } => TimerKey(2, token),
        }
    }

    fn timer(self) -> VerifierTimer {
        match self.0 {
            0 => VerifierTimer::ServeCheck { token: self.1 },
            1 => VerifierTimer::AckCheck { token: self.1 },
            _ => VerifierTimer::ConfirmCheck { token: self.1 },
        }
    }
}

impl Node {
    fn new() -> Self {
        let config = LiftingConfig::planetlab();
        Node {
            verifier: Verifier::new(NodeId::new(0), FANOUT, config, CollusionConfig::none()),
            timers: BinaryHeap::new(),
            seq: 0,
            out: Vec::with_capacity(256),
        }
    }

    /// Queues the timers the last handler armed, then forgets its effects;
    /// returns the confirm token it armed, if any.
    fn settle(&mut self) -> Option<u64> {
        let mut confirm = None;
        for action in self.out.drain(..) {
            if let VerifierAction::StartTimer {
                timer, deadline, ..
            } = action
            {
                if let VerifierTimer::ConfirmCheck { token } = timer {
                    confirm = Some(token);
                }
                self.seq += 1;
                let key = (deadline, self.seq, TimerKey::of(timer));
                self.timers.push(std::cmp::Reverse(key));
            }
        }
        confirm
    }

    /// Fires every timer due by `now`.
    fn expire_until(&mut self, now: SimTime) {
        while let Some(std::cmp::Reverse((at, seq, key))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            self.verifier
                .on_timer_into(key.timer(), at, seq, &mut self.out);
            self.settle();
        }
    }

    /// Lands one confirmation from each of `witnesses`, arriving at `at`.
    fn confirm_all(&mut self, token: u64, witnesses: &[NodeId], at: SimTime) {
        for w in witnesses {
            let response = ConfirmResponsePayload {
                subject: NodeId::new(1),
                stream: StreamId::PRIMARY,
                token,
                confirmed: true,
            };
            self.verifier.land_confirm_response(*w, &response, (at, 0));
        }
    }
}

/// Checks armed within the last `window`, per kind, at most.
#[derive(Default)]
struct Window {
    armed: VecDeque<SimTime>,
    peak: usize,
}

impl Window {
    fn arm(&mut self, now: SimTime, window: SimDuration) {
        self.armed.push_back(now);
        while self.armed.front().is_some_and(|t| *t + window <= now) {
            self.armed.pop_front();
        }
        self.peak = self.peak.max(self.armed.len());
    }
}

#[test]
fn retained_heap_follows_the_checks_armed_within_one_timeout() {
    let mut rng: SmallRng = derive_rng(34, 0);
    let timeouts = [SERVE_TIMEOUT, ACK_TIMEOUT, CONFIRM_TIMEOUT];
    let mut node = Node::new();
    let mut windows: [Window; 3] = Default::default();
    let mut next_chunk = 0u64;
    let (mut rng_pdcc, id) = (derive_rng(34, 1), size_of::<ChunkId>());
    // The largest lists a check of each kind holds: a requested list, an
    // owned served list, a witness list plus an acked chunk list.
    let lists = [
        16 + 12 * id,
        12 * id,
        16 + 7 * size_of::<NodeId>() + 16 + 12 * id,
    ];
    for period in 0..250u64 {
        let start = SimTime::ZERO + PERIOD.saturating_mul(period);
        for step in 0..2u64 {
            let now = start + SimDuration::from_millis(100 + 200 * step);
            node.expire_until(now);
            // A request, served in part.
            let proposer = NodeId::new(rng.gen_range(1..300));
            let requested = chunks(&mut next_chunk, rng.gen_range(1..=12));
            node.verifier.on_request_sent_into(
                proposer,
                requested.clone().into(),
                now,
                &mut node.out,
            );
            node.settle();
            windows[0].arm(now, timeouts[0]);
            for chunk in requested.iter().filter(|_| rng.gen_bool(0.9)) {
                node.verifier.on_serve_received(proposer, *chunk, now);
            }
            // A serve, acknowledged most of the time, and cross-checked.
            let receiver = NodeId::new(rng.gen_range(1..300));
            let served = chunks(&mut next_chunk, rng.gen_range(1..=12));
            node.verifier
                .on_chunks_served_into(receiver, served.clone(), now, &mut node.out);
            node.settle();
            windows[1].arm(now, timeouts[1]);
            if rng.gen_bool(0.9) {
                let polled = witnesses(7);
                let ack = AckPayload {
                    chunks: served.into(),
                    partners: polled.clone(),
                    period,
                };
                let at = now + SimDuration::from_millis(50);
                node.expire_until(at);
                node.verifier
                    .on_ack_into(receiver, ack, at, &mut rng_pdcc, &mut node.out);
                if let Some(token) = node.settle() {
                    windows[2].arm(at, timeouts[2]);
                    node.confirm_all(token, &polled[..6], at + SimDuration::from_millis(80));
                }
            }
        }
        let bytes = node.verifier.check_heap_bytes();
        for kind in 0..3 {
            let armed = windows[kind].peak;
            let bound = (2 * armed).max(4) * SLOTS[kind] + armed * lists[kind];
            assert!(
                bytes[kind] <= bound,
                "period {period}: check kind {kind} retains {} B for at most {armed} checks \
                 armed per timeout (bound {bound} B)",
                bytes[kind]
            );
        }
    }
    assert!(
        windows.iter().all(|w| w.peak >= 2),
        "every kind was exercised"
    );
}

#[test]
fn a_check_over_at_most_64_entries_allocates_nothing() {
    let mut node = Node::new();
    let mut rng_pdcc = derive_rng(34, 2);
    let mut next_chunk = 0u64;
    let t = SimTime::from_secs;
    // Warm the rings and the history: one check of each kind armed and
    // expired, one serve received.
    node.verifier.on_request_sent_into(
        NodeId::new(1),
        chunks(&mut next_chunk, 3).into(),
        t(0),
        &mut node.out,
    );
    let served = chunks(&mut next_chunk, 3);
    node.verifier
        .on_chunks_served_into(NodeId::new(2), served.clone(), t(0), &mut node.out);
    let ack = AckPayload {
        chunks: served.into(),
        partners: witnesses(7),
        period: 0,
    };
    node.verifier
        .on_ack_into(NodeId::new(2), ack, t(0), &mut rng_pdcc, &mut node.out);
    node.settle();
    node.verifier
        .on_serve_received(NodeId::new(1), ChunkId::primary(0), t(0));
    node.expire_until(t(10));

    // 64 requested chunks, all served twice, then the expiry.
    let requested: Arc<[ChunkId]> = chunks(&mut next_chunk, 64).into();
    let served = chunks(&mut next_chunk, 64); // exact capacity: boxed as is
    let polled = witnesses(64);
    let ack = AckPayload {
        chunks: chunks(&mut next_chunk, 2).into(),
        partners: polled.clone(),
        period: 1,
    };
    let blames = node.verifier.blames_emitted();
    let before = allocations();
    let proposer = NodeId::new(1);
    node.verifier
        .on_request_sent_into(proposer, requested.clone(), t(20), &mut node.out);
    for chunk in requested.iter().chain(requested.iter()) {
        node.verifier.on_serve_received(proposer, *chunk, t(20));
    }
    node.verifier
        .on_chunks_served_into(NodeId::new(3), served, t(20), &mut node.out);
    assert_eq!(allocations(), before, "serve and ack checks allocated");
    let before = allocations();
    node.verifier
        .on_ack_into(NodeId::new(4), ack, t(20), &mut rng_pdcc, &mut node.out);
    assert_eq!(
        allocations() - before,
        1,
        "a cross-check over 64 witnesses allocates only its confirm payload"
    );
    let token = node.settle().expect("pdcc is 1");
    let before = allocations();
    node.confirm_all(token, &polled, t(20) + SimDuration::from_millis(100));
    node.expire_until(t(30));
    assert_eq!(allocations(), before, "answers and expiries allocated");
    assert_eq!(node.verifier.pending_checks(), 0);
    assert_eq!(
        node.verifier.blames_emitted() - blames,
        1,
        "only the missing ack is blamed"
    );

    // The 65th entry spills the evidence to one heap array.
    let requested: Arc<[ChunkId]> = chunks(&mut next_chunk, 65).into();
    let before = allocations();
    node.verifier
        .on_request_sent_into(proposer, requested, t(40), &mut node.out);
    assert_eq!(allocations() - before, 1, "a 65-chunk check spills once");
}

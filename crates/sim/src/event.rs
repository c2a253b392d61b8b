//! Time-ordered event queue: a sorted front, one ring of ~1 ms slots and one
//! far list.
//!
//! Simulation traffic is skewed towards the near future (network latencies
//! of a few milliseconds, gossip periods of half a second), so the pending
//! set is split by distance from the cursor instead of kept in one heap:
//!
//! * the **front**: the events of the slot currently being drained, sorted
//!   descending so a pop is `Vec::pop`;
//! * the **ring**: 256 slots of 1.024 ms (~0.26 s of horizon) from `base`,
//!   plain unordered `Vec`s — a push is O(1) and does no ordering work until
//!   the cursor reaches the slot and sorts it into the front;
//! * the **far list**: one `Vec` for everything at or beyond the ring's end.
//!   When the ring has drained it is re-based at the earliest far event and
//!   the far events inside the new horizon are scattered over the slots.
//!
//! A re-base reads the unordered part of the far list, which pays for itself
//! while a good share of it lands in the ring (a dense timeline moves a
//! quarter or more). When a re-base leaves behind more than eight times what
//! it moved — events seconds apart — the list is sorted once: it becomes a
//! descending **sorted head**, and later pushes form an unordered **tail**
//! behind it. Re-bases then pop the head's end and read only the tail; the
//! two are sorted together again only once the tail is the longer one, which
//! keeps the sorting amortised, and no regime reads more than the plain scan.
//!
//! # Ordering contract
//!
//! Pop order is *exactly* that of a `BinaryHeap` keyed by `(time, seq)`, with
//! `seq` the global push counter: strictly increasing `(time, seq)`, FIFO at
//! equal times. The ring slots partition time, every slot is sorted by the
//! full key when it is promoted, and an event pushed for an instant the
//! cursor has already passed is inserted into the sorted front, so arbitrary
//! push/pop interleavings — pushes "in the past" included — agree with the
//! reference heap (`tests/wheel_vs_heap.rs`). The order in which slots and
//! the far list hold their entries is therefore free, and every golden digest
//! is independent of this layout.
//!
//! # Allocation contract
//!
//! At steady state the queue allocates nothing (`tests/zero_alloc.rs`), and
//! what it retains follows the pending set (`tests/queue_footprint.rs`,
//! [`EventQueue::heap_bytes`]). Both hold because capacity never migrates
//! between tiers: the far list is one buffer that stays the far list, and
//! the front trades buffers with the slot it promotes, so the 257 buffers of
//! front and ring only ever hold one slot's worth of traffic. A buffer grown
//! for 0.26 s of events is never parked where a 1 ms slot picks it up: a pool
//! shared between tiers of different width would, over a run, grow every
//! bucket to the widest tier's size.

use crate::time::SimTime;

/// Log2 of the slot width in microseconds (1024 µs per slot).
const SLOT_SHIFT: u32 = 10;
/// Number of ring slots (~262 ms of horizon).
const SLOTS: usize = 256;

/// An entry in the queue: `seq`, the global push counter, breaks ties so that
/// events scheduled for the same instant are delivered in scheduling order
/// (FIFO), which keeps runs deterministic.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }

    /// Absolute index of the slot this entry belongs to.
    fn slot(&self) -> u64 {
        self.time.as_micros() >> SLOT_SHIFT
    }
}

/// Sorts `entries` descending by `(time, seq)`, so the next event pops from
/// the back. Keys are unique, so the unstable (in-place) sort is exact.
fn sort_descending<E>(entries: &mut [Scheduled<E>]) {
    entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
}

/// A priority queue of events keyed by simulated time.
///
/// Events at equal times are delivered in the order they were pushed.
pub struct EventQueue<E> {
    /// Events earlier than `window_end`, sorted descending by `(time, seq)`.
    /// Pushes landing before `window_end` are rare — latencies are longer
    /// than a slot — and insert by binary search.
    front: Vec<Scheduled<E>>,
    /// Exclusive upper bound (µs) of the front's coverage. Every event
    /// stored outside `front` is at `window_end` or later.
    window_end: u64,
    /// Unordered buckets for the absolute slots `[base, base + SLOTS)`.
    ring: Vec<Vec<Scheduled<E>>>,
    /// Absolute slot index of `ring[0]`.
    base: u64,
    /// First ring index not yet promoted into the front.
    cursor: usize,
    /// Events at or beyond the ring's end: `far[..far_sorted]` descending by
    /// `(time, seq)`, the rest in no order.
    far: Vec<Scheduled<E>>,
    far_sorted: usize,
    /// Earliest time (µs) in the unordered tail, `u64::MAX` when it is empty.
    tail_min: u64,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Size of one queued entry: the event plus its `(time, seq)` key.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Scheduled<E>>();

    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            front: Vec::new(),
            window_end: 0,
            ring: std::iter::repeat_with(Vec::new).take(SLOTS).collect(),
            base: 0,
            cursor: 0,
            far: Vec::new(),
            far_sorted: 0,
            tail_min: u64::MAX,
            len: 0,
            next_seq: 0,
        }
    }

    /// Appends `s` to its ring slot, which must lie in `[cursor, SLOTS)`.
    #[inline]
    fn ring_push(&mut self, s: Scheduled<E>) {
        self.ring[(s.slot() - self.base) as usize].push(s);
    }

    #[inline]
    fn route(&mut self, s: Scheduled<E>) {
        let m = s.time.as_micros();
        if m < self.window_end {
            let idx = self.front.partition_point(|e| e.key() > s.key());
            self.front.insert(idx, s);
        } else if s.slot() < self.base + SLOTS as u64 {
            // `m >= window_end >= base << SLOT_SHIFT`: the slot is at or
            // past the cursor.
            self.ring_push(s);
        } else {
            self.tail_min = self.tail_min.min(m);
            self.far.push(s);
        }
    }

    /// Schedules `event` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.route(Scheduled { time, seq, event });
    }

    /// Schedules a batch of events, delivered at their respective times;
    /// events with equal times keep the iterator's order (FIFO, like
    /// consecutive [`push`](Self::push) calls).
    ///
    /// Ring slots and the far list absorb pushes in O(1) with retained
    /// capacity, so the only tier whose insertions are not pre-sized is the
    /// front (events landing inside the already-promoted window — rare,
    /// since latencies exceed a slot). Reserving the size hint there bounds
    /// the worst case where a whole batch lands sub-window.
    pub fn push_batch<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let events = events.into_iter();
        let (lower, _) = events.size_hint();
        if lower > 0 {
            self.front.reserve(lower);
        }
        for (time, event) in events {
            self.push(time, event);
        }
    }

    /// Promotes the earliest occupied slot into the empty front, re-basing
    /// the ring first when it has drained. No-op on an empty queue.
    fn advance(&mut self) {
        debug_assert!(self.front.is_empty());
        if self.len == 0 {
            return;
        }
        if self.len == self.far.len() {
            self.rebase();
        }
        let occupied = self.ring[self.cursor..].iter().position(|s| !s.is_empty());
        let i = self.cursor + occupied.expect("a pending event outside front and far");
        self.cursor = i + 1;
        self.window_end = (self.base + i as u64 + 1) << SLOT_SHIFT;
        // The slot's buffer becomes the front; the front's old one, empty
        // and slot-sized, becomes the slot's.
        std::mem::swap(&mut self.front, &mut self.ring[i]);
        sort_descending(&mut self.front);
    }

    /// Re-bases the drained ring at the earliest far event, moves every far
    /// event inside the new horizon into its slot, and sorts what is left if
    /// reading it moved too little (see the module docs).
    fn rebase(&mut self) {
        let head = &self.far[..self.far_sorted];
        let head_min = head.last().map_or(u64::MAX, |s| s.time.as_micros());
        self.base = head_min.min(self.tail_min) >> SLOT_SHIFT;
        self.cursor = 0;
        self.window_end = self.base << SLOT_SHIFT;
        let end = self.base + SLOTS as u64;
        let before = self.far.len();
        if self.tail_min >> SLOT_SHIFT < end {
            let (mut i, mut min) = (self.far_sorted, u64::MAX);
            while i < self.far.len() {
                let m = self.far[i].time.as_micros();
                if m >> SLOT_SHIFT < end {
                    let s = self.far.swap_remove(i);
                    self.ring_push(s);
                } else {
                    min = min.min(m);
                    i += 1;
                }
            }
            self.tail_min = min;
        }
        while self.far_sorted > 0 && self.far[self.far_sorted - 1].slot() < end {
            // Shrinking the head by its last entry turns that index into the
            // first of the tail, which is where `swap_remove` puts the
            // tail's last entry.
            self.far_sorted -= 1;
            let s = self.far.swap_remove(self.far_sorted);
            self.ring_push(s);
        }
        let moved = before - self.far.len();
        let tail = self.far.len() - self.far_sorted;
        if tail > 8 * moved && tail >= self.far_sorted {
            sort_descending(&mut self.far);
            self.far_sorted = self.far.len();
            self.tail_min = u64::MAX;
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.front.is_empty() {
            self.advance();
        }
        let s = self.front.pop()?;
        self.len -= 1;
        Some((s.time, s.event))
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`. This is the engine's fast path: a single ordering
    /// comparison decides both "is there an event" and "is it due", instead
    /// of a `peek_time` probe followed by a `pop`.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.front.is_empty() {
            self.advance();
        }
        match self.front.last() {
            Some(s) if s.time <= deadline => {
                let s = self.front.pop().expect("peeked event must exist");
                self.len -= 1;
                Some((s.time, s.event))
            }
            _ => None,
        }
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline` **and** `take` approves it; a rejected event stays at the
    /// head of the queue, untouched.
    ///
    /// This is the sharded engine's wave-collection primitive: it gathers a
    /// maximal run of same-timestamp, same-kind events without ever popping
    /// the event that terminates the run. Like [`pop_due`](Self::pop_due) it
    /// may advance the cursor to materialize the head — that is
    /// internal bookkeeping `pop_due` performs identically and never changes
    /// pop order.
    pub fn pop_due_if(
        &mut self,
        deadline: SimTime,
        take: impl FnOnce(SimTime, &E) -> bool,
    ) -> Option<(SimTime, E)> {
        if self.front.is_empty() {
            self.advance();
        }
        match self.front.last() {
            Some(s) if s.time <= deadline && take(s.time, &s.event) => {
                let s = self.front.pop().expect("peeked event must exist");
                self.len -= 1;
                Some((s.time, s.event))
            }
            _ => None,
        }
    }

    /// The delivery time of the earliest pending event, if any.
    ///
    /// Cold path (`&self` cannot advance the cursor): when the front is empty
    /// this scans the ring for the first occupied slot, then the far list.
    /// The engine's hot loop uses [`pop_due`](Self::pop_due) instead.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = self.front.last() {
            return Some(s.time);
        }
        let min_of = |bucket: &Vec<Scheduled<E>>| bucket.iter().map(|s| s.time).min();
        self.ring[self.cursor..]
            .iter()
            .find_map(min_of)
            .or_else(|| min_of(&self.far))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the queue retains: the capacity of the front, of every ring
    /// slot and of the far list, plus the table of slots. A deterministic
    /// capacity walk, never an allocator query.
    pub fn heap_bytes(&self) -> usize {
        let slots = self.ring.iter().map(Vec::capacity).sum::<usize>();
        (self.front.capacity() + slots + self.far.capacity()) * Self::ENTRY_BYTES
            + self.ring.capacity() * std::mem::size_of::<Vec<Scheduled<E>>>()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("next_seq", &self.next_seq)
            .field("window_end_us", &self.window_end)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn push_batch_matches_individual_pushes() {
        let t = SimTime::from_millis(1);
        let mut batched = EventQueue::new();
        batched.push(SimTime::from_millis(2), 100);
        batched.push_batch((0..50).map(|i| (t, i)));
        let mut pushed = EventQueue::new();
        pushed.push(SimTime::from_millis(2), 100);
        for i in 0..50 {
            pushed.push(t, i);
        }
        let drain = |mut q: EventQueue<i32>| -> Vec<(SimTime, i32)> {
            std::iter::from_fn(|| q.pop()).collect()
        };
        assert_eq!(drain(batched), drain(pushed));
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(30), "b");
        assert_eq!(
            q.pop_due(SimTime::from_millis(20)),
            Some((SimTime::from_millis(10), "a"))
        );
        assert_eq!(q.pop_due(SimTime::from_millis(20)), None);
        assert_eq!(q.len(), 1, "the undue event stays queued");
        assert_eq!(
            q.pop_due(SimTime::from_millis(30)),
            Some((SimTime::from_millis(30), "b"))
        );
        assert_eq!(q.pop_due(SimTime::MAX), None);
    }

    #[test]
    fn pop_due_if_leaves_rejected_events_queued() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        q.push(t, "wave");
        q.push(t, "barrier");
        q.push(SimTime::from_millis(9), "later");
        // Accept only "wave"-kind events: the barrier terminates the run but
        // must stay at the head for the plain pop that follows.
        assert_eq!(
            q.pop_due_if(SimTime::MAX, |_, e| *e == "wave"),
            Some((t, "wave"))
        );
        assert_eq!(q.pop_due_if(SimTime::MAX, |_, e| *e == "wave"), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t, "barrier")));
        // The deadline is checked before the predicate runs.
        assert_eq!(q.pop_due_if(SimTime::from_millis(5), |_, _| true), None);
        assert_eq!(q.pop(), Some((SimTime::from_millis(9), "later")));
    }

    #[test]
    fn events_across_every_tier_pop_in_order() {
        // One event per tier: front (past), ring, far tail, far sorted head
        // (the re-base for "far" moves one of two entries and sorts the rest).
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(120), "sorted");
        q.push(SimTime::from_millis(2), "ring");
        q.push(SimTime::from_secs(5), "far");
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "ring")));
        // The cursor has advanced past 2 ms; a push before that instant must
        // still pop first (BinaryHeap-equivalent semantics).
        q.push(SimTime::from_millis(1), "past");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "past")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "far")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(120), "sorted")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn a_rebased_rings_last_slot_takes_head_and_tail_entries() {
        let mut q = EventQueue::new();
        // The ring re-based at 30 s ends `SLOTS` slots after the slot of 30 s.
        let base = SimTime::from_secs(30).as_micros() >> SLOT_SHIFT;
        let end = SimTime::from_micros((base + SLOTS as u64) << SLOT_SHIFT);
        let before = |us| SimTime::from_micros(end.as_micros() - us);
        q.push(SimTime::from_secs(30), "base");
        q.push(before(1), "head, last slot");
        for _ in 0..10 {
            q.push(SimTime::from_secs(90), "later");
        }
        // Re-basing at 1 s moves one event of thirteen: the rest is sorted.
        q.push(SimTime::from_secs(1), "first");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "first")));
        assert_eq!(q.far_sorted, 12);
        q.push(before(1), "tail, last slot, same instant");
        q.push(before(500), "tail, last slot, earlier");
        q.push(end, "tail, first slot beyond");
        let popped: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            popped[..5],
            [
                "base",
                "tail, last slot, earlier",
                "head, last slot",
                "tail, last slot, same instant",
                "tail, first slot beyond",
            ]
        );
        assert_eq!(popped.len(), 15);
    }

    #[test]
    fn far_future_events_survive_many_horizon_refills() {
        let mut q = EventQueue::new();
        // Each one a re-base of the ring (~0.26 s of horizon) apart.
        for secs in [1u64, 20, 45, 90] {
            q.push(SimTime::from_secs(secs), secs);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, vec![1, 20, 45, 90]);
    }
}

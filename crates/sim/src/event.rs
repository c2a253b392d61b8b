//! Time-ordered event queue: a sorted front over a hierarchical timing wheel
//! (Varghese & Lauck, SOSP '87) whose slots are chains of fixed-size blocks
//! drawn from one pool.
//!
//! Simulation traffic is skewed towards the near future (network latencies
//! of a few milliseconds, gossip periods of half a second, audits every few
//! seconds), so the pending set is split by distance from the cursor instead
//! of kept in one heap:
//!
//! * the **front**: the events of the level-0 slot currently being drained,
//!   sorted descending so a pop is `Vec::pop`;
//! * **level 0**: 256 slots of 1.024 ms (~0.26 s), together exactly one
//!   level-1 slot;
//! * **level 1**: 256 slots of 262 ms (~67 s), one level-2 slot;
//! * **level 2**: 256 slots of 67 s (~4.8 h);
//! * the **overflow**: everything beyond level 2.
//!
//! A push appends to the slot its time falls in, in no order. When a level
//! drains, the next occupied slot of the level above is scattered over it;
//! when level 2 drains, it is re-based at the earliest overflow event and
//! the overflow is read once, moving what falls inside the new 4.8 h. An
//! event therefore moves at most once per level, and ordering work happens
//! only when the cursor reaches a level-0 slot and sorts it into the front.
//! (With only two levels the overflow would be re-read every 67 s: a
//! timeline of events seconds apart would be rescanned quadratically.)
//!
//! # Ordering contract
//!
//! Pop order is *exactly* that of a `BinaryHeap` keyed by `(time, seq)`, with
//! `seq` the global push counter: strictly increasing `(time, seq)`, FIFO at
//! equal times. The tiers partition time, every level-0 slot is sorted by the
//! full key when it is promoted, and an event pushed for an instant the
//! cursor has already passed is inserted into the sorted front, so arbitrary
//! push/pop interleavings — pushes "in the past" included — agree with the
//! reference heap (`tests/wheel_vs_heap.rs`). The order in which slots hold
//! their entries is therefore free, and every golden digest is independent of
//! this layout.
//!
//! # Allocation contract
//!
//! Every slot and the overflow is a chain of blocks of 8 entries: the one
//! being filled, held in the slot, and the full ones, parked in the pool. A
//! block comes from the pool's spares and goes back to them as soon as the
//! cursor has drained it, so a slot holds only the blocks its current
//! entries fill and what the queue retains is the pool's high-water mark —
//! at most the peak pending entries plus one partial block per occupied
//! slot — plus the front, which keeps the capacity of the largest slot it
//! has sorted (`tests/queue_footprint.rs`, [`EventQueue::heap_bytes`]). At
//! steady state the pool and the front have reached those sizes and the
//! queue allocates nothing (`tests/zero_alloc.rs`).
//!
//! Sharing one pool between all slots is safe because the pooled unit is
//! uniform: a block holds 8 entries wherever it sits, so the blocks a burst
//! filled serve whatever slots need them next, one block each. A shared pool
//! of growable buffers would not be: a buffer grown by one burst (or by a
//! slot 256 times as wide) would be lent to a 1 ms slot, and over a run every
//! slot would grow to the largest size it was ever lent.

use crate::time::SimTime;

/// Log2 of the level-0 slot width in microseconds (1024 µs per slot). Times
/// are bucketed in these units, "ticks".
const SLOT_SHIFT: u32 = 10;
/// Log2 of the number of slots per level: a level spans one slot of the
/// level above.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels below the overflow: 256 slots each of 1.024 ms, 262 ms and
/// 67 s.
const LEVELS: usize = 3;
/// Entries per block. Larger blocks waste more on sparsely occupied slots
/// (a slot holding one event still pins a block); smaller ones pay more
/// links per entry. At 16, a 300-node run without queued blame deliveries
/// retained 3.3x its pending entries, most of it in partial blocks.
const BLOCK: usize = 8;
/// The end of a chain of parked blocks or of the vacancy list.
const NIL: u32 = u32::MAX;

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

    /// Absolute index of the level-0 slot this entry belongs to.
    fn tick(&self) -> u64 {
        self.time.as_micros() >> SLOT_SHIFT
    }
}

/// Sorts `entries` descending by `(time, seq)`, so the next event pops from
/// the back. Keys are unique, so the unstable (in-place) sort is exact.
fn sort_descending<E>(entries: &mut [Scheduled<E>]) {
    entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
}

/// One slot's entries, in no order: the block being filled, held in the slot
/// itself so that a push touches nothing but that block's buffer, and the
/// slot's full blocks, parked in the pool as a linked list.
struct Chain<E> {
    /// Capacity [`BLOCK`] while the slot is occupied, none while it is empty.
    open: Vec<Scheduled<E>>,
    /// Pool index of the first full block, `NIL` if none.
    full: u32,
}

impl<E> Chain<E> {
    const EMPTY: Self = Chain {
        open: Vec::new(),
        full: NIL,
    };

    /// A chain's open block is never empty while it holds anything.
    fn is_empty(&self) -> bool {
        self.open.is_empty()
    }
}

/// A full block parked for its chain, or a vacancy; `next` links the entry
/// into its chain or into the vacancy list.
struct Block<E> {
    entries: Vec<Scheduled<E>>,
    next: u32,
}

/// Every block buffer not open in a chain. Each one has capacity [`BLOCK`],
/// and a new one is allocated only when no spare is left.
struct Pool<E> {
    /// Empty buffers.
    spares: Vec<Vec<Scheduled<E>>>,
    /// Full blocks parked for their chains, and vacant entries.
    parked: Vec<Block<E>>,
    /// The vacancy list: entries of `parked` holding no buffer.
    vacant: u32,
}

impl<E> Pool<E> {
    /// Appends `s` to `chain`.
    #[inline]
    fn push(&mut self, chain: &mut Chain<E>, s: Scheduled<E>) {
        if chain.open.len() == chain.open.capacity() {
            self.open_block(chain);
        }
        chain.open.push(s);
    }

    /// Gives `chain` an empty open block, a spare or a new one, parking the
    /// full one it replaces.
    fn open_block(&mut self, chain: &mut Chain<E>) {
        let spare = self
            .spares
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(BLOCK));
        let full = std::mem::replace(&mut chain.open, spare);
        if full.capacity() == 0 {
            return;
        }
        let b = match self.vacant {
            NIL => {
                self.parked.push(Block {
                    entries: full,
                    next: NIL,
                });
                (self.parked.len() - 1) as u32
            }
            b => {
                let block = &mut self.parked[b as usize];
                self.vacant = block.next;
                block.entries = full;
                b
            }
        };
        self.parked[b as usize].next = std::mem::replace(&mut chain.full, b);
    }

    /// Walks a chain being emptied: trades the drained buffer `buf` for the
    /// entries of the next full block in `full`, and keeps it as a spare. At
    /// the end of the chain `buf` is kept and this returns false.
    fn next_block(&mut self, buf: &mut Vec<Scheduled<E>>, full: &mut u32) -> bool {
        debug_assert!(buf.is_empty() && buf.capacity() > 0);
        let entries = match *full {
            NIL => Vec::new(),
            b => {
                let block = &mut self.parked[b as usize];
                *full = std::mem::replace(&mut block.next, self.vacant);
                self.vacant = b;
                std::mem::take(&mut block.entries)
            }
        };
        self.spares.push(std::mem::replace(buf, entries));
        !buf.is_empty()
    }

    /// The entries of `chain`, in no order.
    fn entries<'a>(&'a self, chain: &'a Chain<E>) -> impl Iterator<Item = &'a Scheduled<E>> {
        let link = |b: u32| (b != NIL).then_some(b);
        let full = std::iter::successors(link(chain.full), move |&b| {
            link(self.parked[b as usize].next)
        });
        let parked = full.flat_map(move |b| &self.parked[b as usize].entries);
        chain.open.iter().chain(parked)
    }
}

/// One wheel level: slot `i` of level `k` holds the ticks
/// `[(base + i) << 8k, (base + i + 1) << 8k)`.
struct Level<E> {
    slots: Box<[Chain<E>; SLOTS]>,
    /// Absolute index, in this level's slot width, of `slots[0]`.
    base: u64,
    /// First slot not yet handed down to the level below (or the front).
    cursor: usize,
    /// Exclusive end, in ticks, of the time the level holds; its start is
    /// the end of the level below (the front's `window_end` for level 0).
    end: u64,
}

impl<E> Level<E> {
    /// The first occupied slot at or past the cursor.
    fn next_occupied(&self) -> Option<usize> {
        let occupied = self.slots[self.cursor..].iter().position(|c| !c.is_empty());
        occupied.map(|i| self.cursor + i)
    }
}

/// A priority queue of events keyed by simulated time.
///
/// Events at equal times are delivered in the order they were pushed.
pub struct EventQueue<E> {
    /// Events earlier than `window_end`, sorted descending by `(time, seq)`.
    /// Pushes landing before `window_end` are rare — latencies are longer
    /// than a slot — and insert by binary search.
    front: Vec<Scheduled<E>>,
    /// Exclusive upper bound (ticks) of the front's coverage. Every event
    /// stored outside `front` is at `window_end` or later.
    window_end: u64,
    levels: [Level<E>; LEVELS],
    /// Events at or beyond the top level's end.
    overflow: Chain<E>,
    /// Earliest tick in `overflow`; meaningless while it is empty.
    overflow_min: u64,
    pool: Pool<E>,
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

    /// Creates an empty queue: level 0 spans the first level-1 slot, and
    /// each level above it the 255 slots after the one it has handed down.
    pub fn new() -> Self {
        EventQueue {
            front: Vec::new(),
            window_end: 0,
            levels: std::array::from_fn(|k| Level {
                slots: Box::new([Chain::EMPTY; SLOTS]),
                base: 0,
                cursor: (k > 0) as usize,
                end: 1 << (LEVEL_BITS * (k as u32 + 1)),
            }),
            overflow: Chain::EMPTY,
            overflow_min: 0,
            pool: Pool {
                spares: Vec::new(),
                parked: Vec::new(),
                vacant: NIL,
            },
            len: 0,
            next_seq: 0,
        }
    }

    #[inline]
    fn route(&mut self, s: Scheduled<E>) {
        let t = s.tick();
        if t < self.window_end {
            let idx = self.front.partition_point(|e| e.key() > s.key());
            self.front.insert(idx, s);
            return;
        }
        for (k, level) in self.levels.iter_mut().enumerate() {
            if t < level.end {
                let i = (t >> (LEVEL_BITS * k as u32)) - level.base;
                self.pool.push(&mut level.slots[i as usize], s);
                return;
            }
        }
        if self.overflow.is_empty() || t < self.overflow_min {
            self.overflow_min = t;
        }
        self.pool.push(&mut self.overflow, s);
    }

    /// Schedules `event` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.reserve_seq();
        self.len += 1;
        self.route(Scheduled { time, seq, event });
    }

    /// Takes the next sequence number without queueing anything: the seq a
    /// push made now would have given its event. A caller that keeps some
    /// of its events outside the queue stamps them with it, so their
    /// `(time, seq)` keys interleave with the queue's exactly.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Promotes the earliest occupied level-0 slot into the empty front,
    /// cascading from the levels above or refilling from the overflow first
    /// while level 0 is drained. No-op on an empty queue.
    ///
    /// A cascade or refill leaves the spans of the (empty) levels below the
    /// one it fills stale; the cascades that follow set each of them before
    /// the front is filled, and nothing is pushed in between.
    fn advance(&mut self) {
        debug_assert!(self.front.is_empty());
        while self.len > 0 {
            let next = (0..LEVELS).find_map(|k| self.levels[k].next_occupied().map(|i| (k, i)));
            match next {
                Some((0, i)) => return self.promote(i),
                Some((k, i)) => self.cascade(k, i),
                None => self.refill(),
            }
        }
    }

    /// Sorts level-0 slot `i` into the front, returning its blocks.
    fn promote(&mut self, i: usize) {
        let level = &mut self.levels[0];
        level.cursor = i + 1;
        self.window_end = level.base + i as u64 + 1;
        let Chain { mut open, mut full } = std::mem::replace(&mut level.slots[i], Chain::EMPTY);
        loop {
            self.front.append(&mut open);
            if !self.pool.next_block(&mut open, &mut full) {
                break;
            }
        }
        sort_descending(&mut self.front);
    }

    /// Scatters slot `i` of level `k` over level `k - 1`, which then spans
    /// exactly that slot.
    fn cascade(&mut self, k: usize, i: usize) {
        let bits = LEVEL_BITS * k as u32;
        let upper = &mut self.levels[k];
        upper.cursor = i + 1;
        let slot = upper.base + i as u64;
        let chain = std::mem::replace(&mut upper.slots[i], Chain::EMPTY);
        let lower = &mut self.levels[k - 1];
        lower.base = slot << LEVEL_BITS;
        lower.cursor = 0;
        lower.end = (slot + 1) << bits;
        self.scatter(chain, k - 1, u64::MAX);
    }

    /// Re-bases the drained top level at the earliest overflow event and
    /// moves every overflow event inside its new span there.
    fn refill(&mut self) {
        debug_assert!(
            !self.overflow.is_empty(),
            "a pending event outside every tier"
        );
        let top = LEVELS - 1;
        let bits = LEVEL_BITS * top as u32;
        let level = &mut self.levels[top];
        level.base = self.overflow_min >> bits;
        level.cursor = 0;
        level.end = (level.base + SLOTS as u64) << bits;
        let end = level.end;
        let overflow = std::mem::replace(&mut self.overflow, Chain::EMPTY);
        self.scatter(overflow, top, end);
    }

    /// Moves the entries of `chain` into level `k`, except those at or after
    /// tick `end`, which go back to the overflow.
    fn scatter(&mut self, chain: Chain<E>, k: usize, end: u64) {
        let bits = LEVEL_BITS * k as u32;
        let Chain { mut open, mut full } = chain;
        let mut min = u64::MAX;
        loop {
            for s in open.drain(..) {
                let t = s.tick();
                if t < end {
                    let level = &mut self.levels[k];
                    let i = (t >> bits) - level.base;
                    self.pool.push(&mut level.slots[i as usize], s);
                } else {
                    min = min.min(t);
                    self.pool.push(&mut self.overflow, s);
                }
            }
            if !self.pool.next_block(&mut open, &mut full) {
                break;
            }
        }
        if min != u64::MAX {
            self.overflow_min = min;
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

    /// Removes and returns the earliest event, with its seq, if it is due at
    /// or before `deadline`. This is the engine's fast path: a single
    /// ordering comparison decides both "is there an event" and "is it due",
    /// instead of a `peek_time` probe followed by a `pop`.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, u64, E)> {
        self.pop_due_if(deadline, |_, _| true)
    }

    /// Removes and returns the earliest event, with its seq, if it is due at
    /// or before `deadline` **and** `take` approves it; a rejected event stays at the
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
    ) -> Option<(SimTime, u64, E)> {
        if self.front.is_empty() {
            self.advance();
        }
        match self.front.last() {
            Some(s) if s.time <= deadline && take(s.time, &s.event) => {
                let s = self.front.pop().expect("peeked event must exist");
                self.len -= 1;
                Some((s.time, s.seq, s.event))
            }
            _ => None,
        }
    }

    /// The delivery time of the earliest pending event, if any.
    ///
    /// Cold path (`&self` cannot advance the cursor): when the front is empty
    /// this reads the first occupied slot of the lowest occupied level, or
    /// else the whole overflow. The engine's hot loop uses
    /// [`pop_due`](Self::pop_due) instead.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = self.front.last() {
            return Some(s.time);
        }
        let chain = self
            .levels
            .iter()
            .find_map(|level| level.next_occupied().map(|i| &level.slots[i]))
            .unwrap_or(&self.overflow);
        self.pool.entries(chain).map(|s| s.time).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the queue retains: the capacity of the front and of every
    /// block, open or pooled, plus the pool's table and the levels' slot
    /// tables. A deterministic capacity walk, never an allocator query.
    pub fn heap_bytes(&self) -> usize {
        let slots = self.levels.iter().flat_map(|level| level.slots.iter());
        let open = slots.chain([&self.overflow]).map(|c| c.open.capacity());
        let spares = self.pool.spares.iter().map(Vec::capacity);
        let parked = self.pool.parked.iter().map(|b| b.entries.capacity());
        let buffers = open.chain(spares).chain(parked).sum::<usize>();
        (self.front.capacity() + buffers) * Self::ENTRY_BYTES
            + self.pool.spares.capacity() * std::mem::size_of::<Vec<Scheduled<E>>>()
            + self.pool.parked.capacity() * std::mem::size_of::<Block<E>>()
            + LEVELS * SLOTS * std::mem::size_of::<Chain<E>>()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("next_seq", &self.next_seq)
            .field("window_end_us", &(self.window_end << SLOT_SHIFT))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The width of a level-1 slot (262 ms) and of a level-2 slot (67 s,
    /// the span of level 1), and the span of the wheel (4.8 h).
    const L1_SLOT_US: u64 = 1 << (SLOT_SHIFT + LEVEL_BITS);
    const L2_SLOT_US: u64 = L1_SLOT_US << LEVEL_BITS;
    const HORIZON_US: u64 = L2_SLOT_US << LEVEL_BITS;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    /// Block buffers the queue holds, open in a slot or pooled.
    fn buffers<E>(q: &EventQueue<E>) -> usize {
        let slots = q.levels.iter().flat_map(|level| level.slots.iter());
        let open = slots.chain([&q.overflow]).filter(|c| c.open.capacity() > 0);
        let parked = q.pool.parked.iter().filter(|b| b.entries.capacity() > 0);
        open.count() + parked.count() + q.pool.spares.len()
    }

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
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(36_000), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(36_000)), "overflow");
        q.push(SimTime::from_secs(200), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(200)), "level 2");
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)), "level 1");
        q.push(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)), "level 0");
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(30), "b");
        assert_eq!(
            q.pop_due(SimTime::from_millis(20)),
            Some((SimTime::from_millis(10), 0, "a"))
        );
        assert_eq!(q.pop_due(SimTime::from_millis(20)), None);
        assert_eq!(q.len(), 1, "the undue event stays queued");
        assert_eq!(
            q.pop_due(SimTime::from_millis(30)),
            Some((SimTime::from_millis(30), 1, "b"))
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
            Some((t, 0, "wave"))
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
        // One event per tier: front (past), three levels, overflow.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(36_000), "overflow");
        q.push(SimTime::from_secs(120), "level 2");
        q.push(SimTime::from_millis(2), "level 0");
        q.push(SimTime::from_secs(5), "level 1");
        assert!(!q.overflow.is_empty());
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "level 0")));
        // The cursor has advanced past 2 ms; a push before that instant must
        // still pop first (BinaryHeap-equivalent semantics).
        q.push(SimTime::from_millis(1), "past");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "past")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "level 1")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(120), "level 2")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(36_000), "overflow")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn a_cascaded_slot_takes_pushes_on_both_sides_of_its_bounds() {
        let mut q = EventQueue::new();
        // Level-1 slot 3 spans [3, 4) × 262 144 µs.
        let start = 3 * L1_SLOT_US;
        let end = start + L1_SLOT_US;
        let at = SimTime::from_micros;
        q.push(at(end - 1), "slot 3, last µs");
        q.push(at(start), "slot 3, first µs");
        q.push(at(end), "slot 4, first µs");
        q.push(at(start - 1), "slot 2, last µs");
        assert_eq!(q.pop(), Some((at(start - 1), "slot 2, last µs")));
        // Slot 3 is cascaded over level 0 once slot 2 has drained.
        assert_eq!(q.pop(), Some((at(start), "slot 3, first µs")));
        assert_eq!(q.levels[0].base, start >> SLOT_SHIFT);
        assert_eq!(q.levels[0].end, end >> SLOT_SHIFT);
        assert_eq!(q.levels[1].cursor, 4);
        // Pushes into the slot being cascaded land in level 0, before and
        // after the events it already holds; one at its end goes to level 1.
        q.push(at(end - 1), "slot 3, last µs, pushed later");
        q.push(at(end - 500), "slot 3, earlier");
        q.push(at(end), "slot 4, first µs, pushed later");
        q.push(at(start + 2_000), "slot 3, early");
        assert_eq!(
            drain(&mut q),
            [
                "slot 3, early",
                "slot 3, earlier",
                "slot 3, last µs",
                "slot 3, last µs, pushed later",
                "slot 4, first µs",
                "slot 4, first µs, pushed later",
            ]
        );
    }

    #[test]
    fn events_on_both_sides_of_the_67_s_horizon_cascade_through_level_2() {
        let mut q = EventQueue::new();
        let at = SimTime::from_micros;
        // Level 2 slot 5, as it cascades, becomes level 1 from `first` on.
        let first = 5 * L2_SLOT_US + 12_345;
        let end = 6 * L2_SLOT_US;
        q.push(at(end), "level 2 slot 6, first µs");
        q.push(at(end - 1), "level 2 slot 5, last µs");
        q.push(at(first), "first");
        q.push(at(L2_SLOT_US - 1), "last µs of level 1");
        q.push(at(L2_SLOT_US), "first µs beyond");
        assert_eq!(q.pop(), Some((at(L2_SLOT_US - 1), "last µs of level 1")));
        assert_eq!(q.pop(), Some((at(L2_SLOT_US), "first µs beyond")));
        assert_eq!(q.pop(), Some((at(first), "first")));
        assert_eq!(q.levels[1].base, end / L1_SLOT_US - SLOTS as u64);
        assert_eq!(q.levels[1].end, end >> SLOT_SHIFT);
        assert_eq!(q.levels[2].cursor, 6);
        assert_eq!(q.peek_time(), Some(at(end - 1)));
        assert_eq!(
            drain(&mut q),
            ["level 2 slot 5, last µs", "level 2 slot 6, first µs"]
        );
    }

    #[test]
    fn overflow_is_read_into_level_2_from_its_earliest_event() {
        let mut q = EventQueue::new();
        let at = SimTime::from_micros;
        let first = 3 * HORIZON_US + 7 * L2_SLOT_US + 99;
        // Level 2 re-based at `first` ends 256 level-2 slots after its slot.
        let end = (first / L2_SLOT_US + SLOTS as u64) * L2_SLOT_US;
        q.push(at(end), "beyond the new horizon");
        q.push(at(end - 1), "last µs of the new horizon");
        q.push(at(first), "first");
        q.push(at(HORIZON_US - 1), "last µs of the wheel");
        q.push(at(HORIZON_US), "first µs beyond");
        assert_eq!(q.pop(), Some((at(HORIZON_US - 1), "last µs of the wheel")));
        assert_eq!(q.pop(), Some((at(HORIZON_US), "first µs beyond")));
        assert_eq!(q.pop(), Some((at(first), "first")));
        assert_eq!(q.levels[2].base, first / L2_SLOT_US);
        assert_eq!(q.levels[2].end, end >> SLOT_SHIFT);
        assert_eq!(q.overflow_min, end >> SLOT_SHIFT);
        assert_eq!(
            drain(&mut q),
            ["last µs of the new horizon", "beyond the new horizon"]
        );
    }

    #[test]
    fn far_future_events_survive_many_horizon_refills() {
        let mut q = EventQueue::new();
        // A cascade from level 2, a refill and a jump of days apart.
        for secs in [1u64, 20, 90, 400, 20_000, 400_000] {
            q.push(SimTime::from_secs(secs), secs);
        }
        assert_eq!(drain(&mut q), vec![1, 20, 90, 400, 20_000, 400_000]);
    }

    #[test]
    fn a_burst_slots_blocks_serve_every_other_slot() {
        let mut q = EventQueue::new();
        for i in 0..4_096u64 {
            q.push(SimTime::from_millis(5), i);
        }
        assert_eq!(buffers(&q), 4_096 / BLOCK);
        assert_eq!(drain(&mut q).len(), 4_096);
        // One block's worth at the start of each of the 255 level-1 slots
        // ahead reuses those blocks instead of growing the pool.
        for i in 0..255 * BLOCK as u64 {
            q.push(SimTime::from_micros((1 + i / BLOCK as u64) * L1_SLOT_US), i);
        }
        assert_eq!(buffers(&q), 4_096 / BLOCK);
        assert_eq!(drain(&mut q), (0..255 * BLOCK as u64).collect::<Vec<_>>());
        assert_eq!(buffers(&q), 4_096 / BLOCK, "every block went back");
    }
}

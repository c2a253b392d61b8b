//! Playout buffer and stream-health metrics (Figure 1 of the paper).
//!
//! The buffer is the node's one per-chunk table on a stream: a flat `Vec` of
//! one-word slots indexed by the chunk's sequence number, holding only what
//! Section 4 lets a node know about a chunk that differs between nodes —
//! whether it holds it and since when, until when an outstanding request
//! blocks another, and whether it was already proposed (infect-and-die). A
//! chunk's emission instant and size are the same on every node: the buffer
//! rebuilds them from its stream's [`StreamClock`]. The protocol side
//! ([`GossipNode`](crate::node::GossipNode)) reaches a slot by index alone;
//! the read-out side checks the stream as well.
//!
//! Given the list of chunks the source emitted, a node "views a clear stream"
//! at lag `L` if at least a configurable fraction of the chunks emitted during
//! the observation window reached it within `L` of their emission. Figure 1
//! plots, for each lag, the fraction of nodes for which this holds.

use lifting_sim::collections::BoundedGrowth;
use lifting_sim::{SimDuration, SimTime, StreamId};
use serde::{Serialize, Value};

use crate::chunk::{Chunk, ChunkId};
use crate::source::StreamClock;

/// Reception record of one chunk (built from its slot on demand).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Receipt {
    /// When the source emitted the chunk.
    pub emitted_at: SimTime,
    /// When this node first received it.
    pub received_at: SimTime,
}

/// The chunk is held: the time is its first reception.
const HELD: u64 = 1 << 63;
/// The chunk was proposed, or deliberately skipped: infect-and-die.
const PROPOSED: u64 = 1 << 62;
/// The low 38 bits: a time in µs (up to about 76 h).
const TIME: u64 = (1 << 38) - 1;
/// The 24 bits between the flags and the time: the round that proposed the
/// chunk, plus one (zero: none — not proposed, or skipped).
const ROUND: u64 = (PROPOSED - 1) & !TIME;
/// Where the round field starts.
const ROUND_SHIFT: u32 = TIME.count_ones();

/// The first instant a chunk slot cannot record: a run whose duration plus
/// one gossip period (the latest request expiry) reaches it cannot be
/// represented.
pub const SLOT_TIME_LIMIT: SimTime = SimTime::from_micros(TIME + 1);

/// How many propose rounds a slot tells apart: rounds 0 to
/// `SLOT_ROUNDS - 1` (one round field value means "none").
pub const SLOT_ROUNDS: u64 = ROUND >> ROUND_SHIFT;

/// Everything a node knows about one chunk index of one stream, in one word:
/// the `HELD` and `PROPOSED` bits, the round that proposed the chunk, and a
/// time — the first reception once held, before that the expiry of the
/// outstanding request (zero: none). A reservation is never read for a held
/// chunk, so the two share the word. The default (zero) means "never heard
/// of".
#[derive(Debug, Clone, Copy, Default)]
struct Slot(u64);

impl Slot {
    fn held(self) -> bool {
        self.0 & HELD != 0
    }

    fn at(self) -> SimTime {
        SimTime::from_micros(self.0 & TIME)
    }

    /// This slot's flags and round with the time `at`.
    fn with_at(self, at: SimTime) -> Slot {
        debug_assert!(at < SLOT_TIME_LIMIT, "{at:?} is past the slot's time field");
        Slot(self.0 & !TIME | at.as_micros())
    }

    /// The round field naming `round` (`None`: no round). A round past the
    /// field wraps within it and never reaches the flags.
    fn round_field(round: Option<u64>) -> u64 {
        round.map_or(0, |r| {
            debug_assert!(r < SLOT_ROUNDS, "round {r} is past the slot's round field");
            (r.wrapping_add(1) << ROUND_SHIFT) & ROUND
        })
    }
}

/// Per-node, per-stream chunk table, flat-indexed by the sequential chunk
/// index within the stream (one array access per proposed, requested or
/// received chunk on the hot path, no hashing).
#[derive(Debug, Clone)]
pub struct PlayoutBuffer {
    clock: StreamClock,
    slots: Vec<Slot>,
    len: usize,
}

impl PlayoutBuffer {
    /// Creates an empty buffer for the stream `clock` defines.
    pub fn new(clock: StreamClock) -> Self {
        PlayoutBuffer {
            clock,
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Heap bytes held by the slot table (capacity walk, deterministic).
    pub fn estimated_heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// `(slots, capacity)` of the slot table: one slot per chunk index up to
    /// the highest seen.
    pub(crate) fn slot_occupancy(&self) -> (usize, usize) {
        (self.slots.len(), self.slots.capacity())
    }

    /// The stream this buffer plays out.
    pub fn stream(&self) -> StreamId {
        self.clock.stream
    }

    /// The clock of the stream this buffer plays out.
    pub fn clock(&self) -> StreamClock {
        self.clock
    }

    /// The slot of `id`, growing the table to reach it.
    fn slot_mut(&mut self, id: ChunkId) -> &mut Slot {
        let idx = id.index() as usize;
        if idx >= self.slots.len() {
            self.slots.reserve_bounded(idx + 1 - self.slots.len());
            self.slots.resize(idx + 1, Slot::default());
        }
        &mut self.slots[idx]
    }

    /// Records the reception of `chunk` at `now`. Only the first reception is
    /// kept (a duplicate leaves the slot alone); a new chunk's reception time
    /// replaces whatever request reservation the slot held. Returns true if
    /// the chunk was new.
    pub fn record(&mut self, chunk: &Chunk, now: SimTime) -> bool {
        debug_assert_eq!(
            *chunk,
            self.clock.chunk(chunk.id.index()),
            "chunk off its plane's clock"
        );
        let slot = self.slot_mut(chunk.id);
        if slot.held() {
            return false;
        }
        *slot = Slot(slot.0 | HELD).with_at(now);
        self.len += 1;
        true
    }

    /// The slot at `index`, if its chunk is held.
    fn held_slot(&self, index: u64) -> Option<Slot> {
        self.slots.get(index as usize).copied().filter(|s| s.held())
    }

    /// The held chunk at `id`'s index.
    pub(crate) fn chunk(&self, id: ChunkId) -> Option<Chunk> {
        self.held_slot(id.index())?;
        Some(self.clock.chunk(id.index()))
    }

    /// Reserves `id` for a request sent at `now` unless the chunk is held or
    /// an earlier reservation is still live (expires after `now`). Returns
    /// true if the chunk should be requested.
    pub(crate) fn reserve(&mut self, id: ChunkId, now: SimTime, expiry: SimTime) -> bool {
        let slot = self.slot_mut(id);
        if slot.held() || slot.at() > now {
            return false;
        }
        *slot = slot.with_at(expiry);
        true
    }

    /// Marks the held chunk `id` as proposed in `round` (`None`: skipped,
    /// never to be proposed), returning true if it was not yet marked. A
    /// chunk keeps the first round it was marked with.
    pub(crate) fn mark_proposed(&mut self, id: ChunkId, round: Option<u64>) -> bool {
        let slot = &mut self.slots[id.index() as usize];
        let fresh = slot.0 & PROPOSED == 0;
        if fresh {
            slot.0 |= PROPOSED | Slot::round_field(round);
        }
        fresh
    }

    /// True if the chunk `id` is held and was proposed in `round`.
    pub(crate) fn proposed_in(&self, id: ChunkId, round: u64) -> bool {
        let want = HELD | PROPOSED | Slot::round_field(Some(round));
        id.stream() == self.clock.stream
            && self
                .slots
                .get(id.index() as usize)
                .is_some_and(|s| s.0 & (HELD | PROPOSED | ROUND) == want)
    }

    /// The reception time of a received chunk of this stream (the read-out
    /// side: a chunk of another stream is not here, whatever its index).
    fn received_at(&self, id: ChunkId) -> Option<SimTime> {
        if id.stream() != self.clock.stream {
            return None;
        }
        self.held_slot(id.index()).map(Slot::at)
    }

    /// True if the chunk has been received.
    pub fn contains(&self, id: ChunkId) -> bool {
        self.received_at(id).is_some()
    }

    /// Number of distinct chunks received.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no chunk has been received yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reception lag of a chunk (reception − emission), if received.
    pub fn lag_of(&self, id: ChunkId) -> Option<SimDuration> {
        let received_at = self.received_at(id)?;
        Some(received_at.saturating_since(self.clock.chunk(id.index()).emitted_at))
    }

    /// Fraction of `emitted` chunks received within `lag` of their emission.
    /// Returns 1.0 for an empty reference set.
    pub fn delivery_ratio_within(&self, emitted: &[Chunk], lag: SimDuration) -> f64 {
        if emitted.is_empty() {
            return 1.0;
        }
        let delivered = emitted
            .iter()
            .filter(|c| match self.received_at(c.id) {
                Some(at) => at.saturating_since(c.emitted_at) <= lag,
                None => false,
            })
            .count();
        delivered as f64 / emitted.len() as f64
    }
}

impl Serialize for PlayoutBuffer {
    fn to_json_value(&self) -> Value {
        // Same `[[chunk, receipt], ...]` (key-sorted) shape the map rendered,
        // held chunks only.
        let held = self.slots.iter().enumerate().filter(|(_, s)| s.held());
        let pair = |(i, slot): (usize, &Slot)| {
            let chunk = self.clock.chunk(i as u64);
            let receipt = Receipt {
                emitted_at: chunk.emitted_at,
                received_at: slot.at(),
            };
            Value::Array(vec![chunk.id.to_json_value(), receipt.to_json_value()])
        };
        Value::Array(held.map(pair).collect())
    }
}

/// System-wide stream-health series: Figure 1's y-axis over a grid of lags.
#[derive(Debug, Clone, Serialize)]
pub struct StreamHealth {
    /// Lags (x-axis), in seconds.
    pub lag_secs: Vec<f64>,
    /// Fraction of nodes viewing a clear stream at each lag (y-axis).
    pub fraction_clear: Vec<f64>,
}

impl StreamHealth {
    /// Computes the stream-health curve over `lags` for a set of node buffers,
    /// relative to the chunks in `emitted`.
    ///
    /// Each node's per-chunk lags are computed once and sorted, so each grid
    /// point is a binary search instead of a full chunk scan; the delivered
    /// counts (and therefore every fraction) are identical to the naive
    /// per-lag [`delivery_ratio_within`](PlayoutBuffer::delivery_ratio_within)
    /// sweep.
    pub fn compute(
        buffers: &[&PlayoutBuffer],
        emitted: &[Chunk],
        lags: &[SimDuration],
        threshold: f64,
    ) -> StreamHealth {
        if buffers.is_empty() {
            // Vacuously clear: with no nodes observing the stream there is
            // nobody missing it. Reported explicitly as 1.0 rather than
            // dividing by a phantom node (which used to yield 0.0 and read as
            // a total collapse).
            return StreamHealth {
                lag_secs: lags.iter().map(|l| l.as_secs_f64()).collect(),
                fraction_clear: vec![1.0; lags.len()],
            };
        }
        let n = buffers.len() as f64;
        let mut clear_counts = vec![0usize; lags.len()];
        let mut node_lags: Vec<SimDuration> = Vec::new();
        for buffer in buffers {
            if emitted.is_empty() {
                // An empty reference set counts every node as clear.
                for c in &mut clear_counts {
                    *c += 1;
                }
                continue;
            }
            node_lags.clear();
            node_lags.extend(emitted.iter().filter_map(|c| {
                buffer
                    .received_at(c.id)
                    .map(|at| at.saturating_since(c.emitted_at))
            }));
            node_lags.sort_unstable();
            for (i, lag) in lags.iter().enumerate() {
                let delivered = node_lags.partition_point(|l| l <= lag);
                if delivered as f64 / emitted.len() as f64 >= threshold {
                    clear_counts[i] += 1;
                }
            }
        }
        StreamHealth {
            lag_secs: lags.iter().map(|l| l.as_secs_f64()).collect(),
            fraction_clear: clear_counts.into_iter().map(|c| c as f64 / n).collect(),
        }
    }

    /// The fraction of nodes viewing a clear stream at the largest lag of the
    /// grid — the run's headline health figure; 0.0 for an empty grid.
    pub fn final_clear(&self) -> f64 {
        self.fraction_clear.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The primary stream at one 1 000-byte chunk every 100 ms.
    fn clock() -> StreamClock {
        StreamClock::new(StreamId::PRIMARY, 80_000, 1_000)
    }

    /// Chunk `i`, emitted at `i` × 100 ms.
    fn chunk(i: u64) -> Chunk {
        clock().chunk(i)
    }

    #[test]
    fn records_only_first_reception() {
        let mut buf = PlayoutBuffer::new(clock());
        let c = chunk(1);
        assert!(buf.record(&c, SimTime::from_millis(150)));
        assert!(!buf.record(&c, SimTime::from_millis(900)));
        assert_eq!(
            buf.lag_of(ChunkId::primary(1)),
            Some(SimDuration::from_millis(50))
        );
        assert_eq!(buf.len(), 1);
        assert!(buf.contains(ChunkId::primary(1)));
    }

    #[test]
    fn a_slot_is_8_bytes() {
        // The per-chunk, per-plane cost of a run; O(run length x nodes).
        assert_eq!(std::mem::size_of::<Slot>(), 8);
    }

    #[test]
    fn a_reservation_blocks_until_it_expires_and_never_outlives_the_chunk() {
        let mut buf = PlayoutBuffer::new(clock());
        let (id, c) = (ChunkId::primary(1), chunk(1));
        let ms = SimTime::from_millis;
        assert!(buf.reserve(id, ms(0), ms(500)));
        assert!(!buf.reserve(id, ms(499), ms(999)), "still reserved");
        assert!(buf.reserve(id, ms(500), ms(1_000)), "expired at 500");
        assert!(!buf.contains(id) && buf.chunk(id).is_none() && buf.is_empty());
        // The reception time takes the reservation's place...
        assert!(buf.record(&c, ms(600)));
        assert!(!buf.reserve(id, ms(2_000), ms(2_500)), "held");
        assert_eq!(buf.chunk(id), Some(c));
        // ...and neither a duplicate nor a later proposal disturbs it.
        assert!(!buf.record(&c, ms(900)));
        assert_eq!(buf.lag_of(id), Some(SimDuration::from_millis(500)));
        assert!(buf.mark_proposed(id, Some(3)));
        assert!(!buf.mark_proposed(id, Some(4)), "infect-and-die");
        assert_eq!(buf.lag_of(id), Some(SimDuration::from_millis(500)));
    }

    #[test]
    fn a_slot_names_the_one_round_that_proposed_its_chunk() {
        let mut buf = PlayoutBuffer::new(clock());
        let last = SLOT_ROUNDS - 1;
        for (i, round) in [(1, Some(0)), (2, Some(last)), (3, None)] {
            assert!(buf.record(&chunk(i), SimTime::from_millis(900)));
            assert!(buf.mark_proposed(ChunkId::primary(i), round));
        }
        let rounds = [0, 1, last - 1, last];
        let proposed = |i| rounds.map(|r| buf.proposed_in(ChunkId::primary(i), r));
        assert_eq!(proposed(1), [true, false, false, false]);
        assert_eq!(proposed(2), [false, false, false, true]);
        assert_eq!(proposed(3), [false; 4], "a skipped chunk names no round");
        // The round leaves the reception time alone; another stream's chunk
        // at the same index is not this one.
        assert_eq!(
            buf.lag_of(ChunkId::primary(2)),
            Some(SimDuration::from_millis(700))
        );
        assert!(!buf.proposed_in(ChunkId::new(StreamId::new(1), 1), 0));
        // The latest time the field holds round-trips.
        let latest = SimTime::from_micros(SLOT_TIME_LIMIT.as_micros() - 1);
        assert!(buf.reserve(ChunkId::primary(5), SimTime::ZERO, latest));
        assert!(!buf.reserve(ChunkId::primary(5), SimTime::from_secs(3_600), latest));
    }

    #[test]
    fn delivery_ratio_counts_only_timely_chunks() {
        let mut buf = PlayoutBuffer::new(clock());
        let chunks: Vec<Chunk> = (0..4).map(chunk).collect();
        // Receive chunk 0 promptly, chunk 1 late, chunk 2 never, chunk 3 promptly.
        buf.record(&chunks[0], SimTime::from_millis(50));
        buf.record(&chunks[1], SimTime::from_millis(5_000));
        buf.record(&chunks[3], SimTime::from_millis(350));
        let ratio = buf.delivery_ratio_within(&chunks, SimDuration::from_millis(200));
        assert!((ratio - 0.5).abs() < 1e-12);
        assert!(ratio >= 0.5);
        assert!(ratio < 0.99);
        // With a huge lag allowance the late chunk also counts, but not the missing one.
        let ratio = buf.delivery_ratio_within(&chunks, SimDuration::from_secs(10));
        assert!((ratio - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_reference_set_counts_as_clear() {
        let buf = PlayoutBuffer::new(clock());
        assert_eq!(buf.delivery_ratio_within(&[], SimDuration::ZERO), 1.0);
        assert!(buf.is_empty());
    }

    #[test]
    fn zero_node_stream_health_is_vacuously_clear() {
        // Regression: an empty buffer slice used to divide by a phantom node
        // (`len().max(1)`) and report `fraction_clear = 0.0` — a vacuous run
        // masquerading as a total stream collapse.
        let chunks: Vec<Chunk> = (0..4).map(chunk).collect();
        let lags = vec![SimDuration::from_millis(500), SimDuration::from_secs(2)];
        let health = StreamHealth::compute(&[], &chunks, &lags, 0.99);
        assert_eq!(health.lag_secs, vec![0.5, 2.0]);
        assert_eq!(health.fraction_clear, vec![1.0, 1.0]);
        // And with no chunks either, still vacuously clear.
        let health = StreamHealth::compute(&[], &[], &lags, 0.99);
        assert_eq!(health.fraction_clear, vec![1.0, 1.0]);
    }

    #[test]
    fn per_stream_buffers_ignore_foreign_chunks() {
        let stream = StreamId::new(2);
        let mut buf = PlayoutBuffer::new(StreamClock { stream, ..clock() });
        assert_eq!(buf.stream(), stream);
        let c = buf.clock().chunk(4);
        assert!(buf.record(&c, SimTime::from_millis(10)));
        assert!(buf.contains(ChunkId::new(stream, 4)));
        // The same index on another stream is a different chunk.
        assert!(!buf.contains(ChunkId::primary(4)));
        assert_eq!(buf.lag_of(ChunkId::primary(4)), None);
    }

    #[test]
    fn stream_health_aggregates_across_nodes() {
        let chunks: Vec<Chunk> = (0..10).map(chunk).collect();
        // Node A receives everything immediately; node B receives everything 2 s late.
        let mut a = PlayoutBuffer::new(clock());
        let mut b = PlayoutBuffer::new(clock());
        for c in &chunks {
            a.record(c, c.emitted_at + SimDuration::from_millis(100));
            b.record(c, c.emitted_at + SimDuration::from_secs(2));
        }
        let lags = vec![
            SimDuration::from_millis(500),
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
        ];
        let health = StreamHealth::compute(&[&a, &b], &chunks, &lags, 0.99);
        assert_eq!(health.fraction_clear, vec![0.5, 0.5, 1.0]);
        assert_eq!(health.final_clear(), 1.0);
        let no_grid = StreamHealth::compute(&[&a], &chunks, &[], 0.99);
        assert_eq!(no_grid.final_clear(), 0.0);
    }
}

//! Blames in flight: the delivered copies of routed blames that have not
//! reached their manager yet.
//!
//! A manager only adds a blame to its score book, and the book is read at
//! barrier events (the period end, audits, membership transitions) and at
//! readout, never by a node-local handler. So a copy does not travel as a
//! queued `Deliver` event: the world keeps it here, keyed
//! `(arrival, stamp)`, where the stamp is the engine seq that `Deliver`
//! would have taken ([`lifting_sim::Context::stamp`]). Before the world
//! handles an event it lands every copy the queue would have popped first,
//! in that order, so every book reads exactly what it read when each copy
//! was an event. The buffer holds only what the network still carries.

use lifting_membership::Directory;
use lifting_reputation::ManagerState;
use lifting_sim::collections::BoundedGrowth;
use lifting_sim::{NodeId, SimDuration, SimTime};

/// One delivered blame copy on its way to a manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlightBlame {
    /// When the copy reaches the manager.
    pub arrival: SimTime,
    /// The engine seq its `Deliver` event would have taken.
    pub stamp: u64,
    /// The manager whose book it lands in.
    pub manager: NodeId,
    /// The blamed node.
    pub subject: NodeId,
    /// The blame value.
    pub value: f64,
}

impl InFlightBlame {
    /// The `(time, seq)` key the engine would have popped the copy by.
    pub fn key(&self) -> (SimTime, u64) {
        (self.arrival, self.stamp)
    }
}

/// Lands one copy in its manager's book — or drops it when the manager is
/// inactive, as the network drops traffic to a node that left. The one
/// apply function: settling and the readout's fold both call it.
pub(crate) fn land(directory: &Directory, book: &mut ManagerState, blame: &InFlightBlame) {
    if directory.is_active(blame.manager) {
        book.apply_blame(blame.subject, blame.value);
    }
}

/// How far past the settling instant the near tier reaches when it is
/// refilled: about 16 ms, under the 30 ms floor of a wide-area blame's
/// flight, so a fresh copy almost never lands inside the sorted tier and the
/// tier stays a few hundred cache-resident entries.
const WINDOW: SimDuration = SimDuration::from_micros(1 << 14);

/// Sorts `copies`, given in stamp order, descending by `(arrival, stamp)`: a
/// stable radix sort on arrival, a byte per pass over the span the arrivals
/// cover (two passes for a refill window), then a reversal. Stability keeps
/// equal arrivals in stamp order, so the result is the full key order.
fn sort_descending(copies: &mut Vec<InFlightBlame>, scratch: &mut Vec<InFlightBlame>) {
    let Some(first) = copies.first().copied() else {
        return;
    };
    let micros = |b: &InFlightBlame| b.arrival.as_micros();
    let lo = copies.iter().map(micros).min().unwrap_or(0);
    let span = copies.iter().map(micros).max().unwrap_or(0) - lo;
    let mut shift = 0;
    while shift < u64::BITS && span >> shift != 0 {
        let digit = |b: &InFlightBlame| ((micros(b) - lo) >> shift & 0xff) as usize;
        let mut next = [0usize; 256];
        for b in copies.iter() {
            next[digit(b)] += 1;
        }
        let mut start = 0;
        for slot in next.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
        scratch.clear();
        scratch.reserve_exact(copies.len());
        scratch.resize(copies.len(), first);
        for b in copies.iter() {
            let d = digit(b);
            scratch[next[d]] = *b;
            next[d] += 1;
        }
        std::mem::swap(copies, scratch);
        shift += 8;
    }
    copies.reverse();
}

/// The world's blame copies in flight, in two tiers split at `horizon`:
/// the copies arriving before it sorted descending by `(arrival, stamp)`,
/// so the next to land is the last, and the rest in push order, read once
/// per refill. Stamps are engine seqs, so keys are unique and the landing
/// order is total. The tiers hold every copy in flight, so they grow by the
/// bounded rule ([`BoundedGrowth`]), not by doubling.
#[derive(Debug, Default)]
pub struct BlamesInFlight {
    near: Vec<InFlightBlame>,
    far: Vec<InFlightBlame>,
    /// The radix sort's second buffer.
    scratch: Vec<InFlightBlame>,
    horizon: SimTime,
    peak: usize,
}

impl BlamesInFlight {
    pub(crate) fn push(&mut self, blame: InFlightBlame) {
        if blame.arrival < self.horizon {
            let at = self.near.partition_point(|b| b.key() > blame.key());
            self.near.reserve_bounded(1);
            self.near.insert(at, blame);
        } else {
            self.far.reserve_bounded(1);
            self.far.push(blame);
        }
        self.peak = self.peak.max(self.len());
    }

    /// Removes and returns the earliest copy if its key sorts before `key`.
    pub(crate) fn pop_before(&mut self, key: (SimTime, u64)) -> Option<InFlightBlame> {
        // Everything far arrives at or after the horizon, later than any near
        // copy: while the near tier holds copies its last is the minimum.
        if self.near.is_empty() && !self.far.is_empty() && key.0 >= self.horizon {
            self.refill(key.0.saturating_add(WINDOW));
        }
        if self.near.last()?.key() < key {
            self.near.pop()
        } else {
            None
        }
    }

    /// Moves the horizon to `horizon` and the far copies arriving before it
    /// into the (empty) near tier, sorted. The far list keeps push order,
    /// which is stamp order, as the radix sort requires.
    fn refill(&mut self, horizon: SimTime) {
        self.horizon = horizon;
        let near = &mut self.near;
        self.far.retain(|b| {
            let due = b.arrival < horizon;
            if due {
                near.reserve_bounded(1);
                near.push(*b);
            }
            !due
        });
        sort_descending(near, &mut self.scratch);
    }

    /// The copies arrived by `at`, in landing order, left in flight.
    pub(crate) fn due(&self, at: SimTime) -> Vec<InFlightBlame> {
        let mut due: Vec<InFlightBlame> =
            self.iter().filter(|b| b.arrival <= at).copied().collect();
        due.sort_unstable_by_key(InFlightBlame::key);
        due
    }

    /// Copies in flight.
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// True if no copy is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most copies ever in flight at once.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Copies the buffer holds room for: both tiers and the sort's buffer.
    pub fn capacity(&self) -> usize {
        self.near.capacity() + self.far.capacity() + self.scratch.capacity()
    }

    /// Heap bytes the buffer retains (capacity walk).
    pub fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<InFlightBlame>()
    }

    /// The copies in flight, in no order.
    pub fn iter(&self) -> impl Iterator<Item = &InFlightBlame> + '_ {
        self.near.iter().chain(&self.far)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy(arrival_us: u64, stamp: u64) -> InFlightBlame {
        InFlightBlame {
            arrival: SimTime::from_micros(arrival_us),
            stamp,
            manager: NodeId::new(1),
            subject: NodeId::new(2),
            value: 1.0,
        }
    }

    #[test]
    fn pop_before_is_strict() {
        let mut buffer = BlamesInFlight::default();
        buffer.push(copy(500, 5));
        let at = SimTime::from_micros(500);
        assert_eq!(
            buffer.pop_before((at, 5)),
            None,
            "a key never sorts before itself"
        );
        assert_eq!(buffer.pop_before((at, 6)), Some(copy(500, 5)));
        assert!(buffer.is_empty());
    }

    #[test]
    fn copies_land_in_key_order_across_both_tiers() {
        // Copies pushed as time advances, each arriving 1–200 ms later: some
        // land in the sorted tier after a refill, most wait in the far list.
        let mut buffer = BlamesInFlight::default();
        let (mut now, mut stamp, mut landed) = (0u64, 0u64, Vec::new());
        let mut x = 12345u64;
        while now < 2_000_000 {
            for _ in 0..3 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                stamp += 1;
                buffer.push(copy(now + 1_000 + (x >> 33) % 199_000, stamp));
            }
            stamp += 1;
            while let Some(b) = buffer.pop_before((SimTime::from_micros(now), stamp)) {
                landed.push(b.key());
            }
            now += 700;
        }
        let end = (SimTime::from_secs(3), 0);
        while let Some(b) = buffer.pop_before(end) {
            landed.push(b.key());
        }
        let mut sorted = landed.clone();
        sorted.sort_unstable();
        assert_eq!(landed, sorted);
        assert_eq!(landed.len() as u64, stamp - stamp / 4);
        assert!(buffer.peak() > 300, "both tiers hold copies");
    }
}

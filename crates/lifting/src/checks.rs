//! Pending verification checks: the evidence a verifier waits for between
//! arming a check and its timer's expiry.
//!
//! Each kind of check (serve, ack, confirm) lives in one [`CheckRing`]
//! indexed by its token. A kind's timeout is constant, so its checks expire
//! in the order they were armed: a settled check leaves an empty slot, and
//! the ring drops empty slots from its front only. Tokens are per kind,
//! issued from the verifier's session range.
//!
//! A check's evidence is a [`Bits`] over the check's own list (requested
//! chunks, polled witnesses): one inline word for lists of up to 64 entries,
//! a heap array past that.
//!
//! Witness answers do not wait in the event queue: the runtime lands each
//! delivered answer in its confirm check when the witness sends it, keyed
//! `(arrival, stamp)` — the stamp being the engine seq its delivery event
//! would have taken. An answer arriving before the check's deadline is
//! certain to precede the expiry and sets its bit at once; any other answer
//! waits in the late list, and counts at an expiry only if its key sorts
//! before that timer event's `(time, seq)`, exactly as a queued delivery
//! would have been handled before or after the timer.

use std::mem::size_of;
use std::sync::Arc;

use lifting_gossip::chunk::shared_list_heap_bytes;
use lifting_gossip::ChunkId;
use lifting_sim::collections::{grown_capacity, BoundedGrowth};
use lifting_sim::{NodeId, SimTime};

/// A `(time, seq)` event key: the order the engine pops events in.
pub(crate) type EventKey = (SimTime, u64);

/// A set of positions in one check's own list.
#[derive(Debug)]
pub(crate) enum Bits {
    /// Lists of up to 64 entries: bit `i` is position `i`.
    Word(u64),
    /// Longer lists: position `i` is bit `i % 64` of word `i / 64`.
    Words(Box<[u64]>),
}

impl Bits {
    /// The empty set over a list of `len` entries.
    pub(crate) fn over(len: usize) -> Self {
        if len <= 64 {
            Bits::Word(0)
        } else {
            Bits::Words(vec![0; len.div_ceil(64)].into_boxed_slice())
        }
    }

    pub(crate) fn insert(&mut self, i: usize) {
        match self {
            Bits::Word(word) => *word |= 1 << i,
            Bits::Words(words) => words[i / 64] |= 1 << (i % 64),
        }
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        match self {
            Bits::Word(word) => word >> i & 1 == 1,
            Bits::Words(words) => words[i / 64] >> (i % 64) & 1 == 1,
        }
    }

    pub(crate) fn count(&self) -> usize {
        match self {
            Bits::Word(word) => word.count_ones() as usize,
            Bits::Words(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Bits::Word(_) => 0,
            Bits::Words(words) => words.len() * size_of::<u64>(),
        }
    }
}

/// One kind's pending checks, indexed by token: a circular buffer of one
/// slot per token from `front` on, `None` once its check settled. Its header
/// is the size of a `VecDeque`'s, without the separate front token beside it.
#[derive(Debug)]
pub(crate) struct CheckRing<C> {
    slots: Box<[Option<C>]>,
    /// The token of the slot at `head`.
    front: u64,
    head: u32,
    /// Slots in use from `head` on, settled ones included.
    len: u32,
}

impl<C> CheckRing<C> {
    /// An empty ring whose first check takes token `first`.
    pub(crate) fn starting_at(first: u64) -> Self {
        CheckRing {
            slots: Box::default(),
            front: first,
            head: 0,
            len: 0,
        }
    }

    fn slot(&self, i: u32) -> usize {
        (self.head as usize + i as usize) % self.slots.len()
    }

    /// Arms `check` and returns its token.
    pub(crate) fn push(&mut self, check: C) -> u64 {
        if self.len as usize == self.slots.len() {
            // Full: grow by the per-node rule, unrolling the ring to its
            // start.
            let grown = grown_capacity(self.slots.len());
            let mut slots: Vec<Option<C>> = Vec::with_capacity(grown);
            for i in 0..self.len {
                let at = self.slot(i);
                slots.push(self.slots[at].take());
            }
            slots.resize_with(grown, || None);
            self.slots = slots.into_boxed_slice();
            self.head = 0;
        }
        let at = self.slot(self.len);
        self.slots[at] = Some(check);
        self.len += 1;
        self.front + u64::from(self.len) - 1
    }

    /// The slot of `token`, if the ring spans it (a token of another
    /// session, or one dropped from the front, has none).
    fn slot_of(&self, token: u64) -> Option<usize> {
        let i = token.checked_sub(self.front)?;
        (i < u64::from(self.len)).then(|| self.slot(i as u32))
    }

    /// The live check of `token`, if any.
    pub(crate) fn get_mut(&mut self, token: u64) -> Option<&mut C> {
        let at = self.slot_of(token)?;
        self.slots[at].as_mut()
    }

    /// Settles the check of `token` and returns it.
    pub(crate) fn remove(&mut self, token: u64) -> Option<C> {
        let at = self.slot_of(token)?;
        let check = self.slots[at].take()?;
        self.drop_settled_front();
        Some(check)
    }

    /// Settles every live check that `settles` accepts.
    pub(crate) fn remove_where(&mut self, mut settles: impl FnMut(&C) -> bool) {
        for i in 0..self.len {
            let at = self.slot(i);
            if self.slots[at].as_ref().is_some_and(&mut settles) {
                self.slots[at] = None;
            }
        }
        self.drop_settled_front();
    }

    /// Advances the front past settled slots.
    fn drop_settled_front(&mut self) {
        while self.len > 0 && self.slots[self.head as usize].is_none() {
            self.head = (self.head + 1) % self.slots.len() as u32;
            self.front += 1;
            self.len -= 1;
        }
    }

    /// The live checks with their tokens, in arming order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut C)> + '_ {
        let (front, head, len) = (self.front, self.head as usize, self.len as usize);
        let (wrapped, straight) = self.slots.split_at_mut(head);
        let straight_len = straight.len().min(len);
        straight[..straight_len]
            .iter_mut()
            .chain(wrapped[..len - straight_len].iter_mut())
            .enumerate()
            .filter_map(move |(i, slot)| Some((front + i as u64, slot.as_mut()?)))
    }

    fn iter(&self) -> impl Iterator<Item = &C> + '_ {
        (0..self.len).filter_map(|i| self.slots[self.slot(i)].as_ref())
    }

    /// Live checks.
    pub(crate) fn len(&self) -> usize {
        self.iter().count()
    }

    /// Heap bytes of the slots and of what each live check holds
    /// (`check_bytes`), a capacity walk.
    pub(crate) fn heap_bytes(&self, check_bytes: impl Fn(&C) -> usize) -> usize {
        self.slots.len() * size_of::<Option<C>>() + self.iter().map(check_bytes).sum::<usize>()
    }
}

/// Direct verification: the chunks requested from a proposer, and which of
/// them it served.
#[derive(Debug)]
pub(crate) struct ServeCheck {
    pub(crate) proposer: NodeId,
    /// Shared with the request message that armed this check.
    pub(crate) requested: Arc<[ChunkId]>,
    /// Positions of `requested` served so far (each chunk at its first
    /// position, so the count is the distinct chunks served).
    pub(crate) received: Bits,
}

impl ServeCheck {
    pub(crate) fn new(proposer: NodeId, requested: Arc<[ChunkId]>) -> Self {
        let received = Bits::over(requested.len());
        ServeCheck {
            proposer,
            requested,
            received,
        }
    }

    /// Counts a serve of `chunk`, if it was requested.
    pub(crate) fn record(&mut self, chunk: ChunkId) {
        if let Some(i) = self.requested.iter().position(|c| *c == chunk) {
            self.received.insert(i);
        }
    }

    /// The requested list's share and spilled evidence.
    pub(crate) fn heap_bytes(&self) -> usize {
        shared_list_heap_bytes(&self.requested) + self.received.heap_bytes()
    }
}

/// Cross-checking: the chunks served to a receiver, which owes an ack.
#[derive(Debug)]
pub(crate) struct AckCheck {
    pub(crate) receiver: NodeId,
    pub(crate) chunks: Box<[ChunkId]>,
}

impl AckCheck {
    /// The owned chunk list.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.chunks.len() * size_of::<ChunkId>()
    }
}

/// Cross-checking: the witnesses polled about a subject's proposal, and what
/// they answered.
#[derive(Debug)]
pub(crate) struct ConfirmCheck {
    pub(crate) subject: NodeId,
    /// Re-send attempts made so far (hardened path only).
    pub(crate) attempt: u32,
    /// When the check's timer fires next.
    pub(crate) deadline: SimTime,
    /// Shared with the acknowledgment the check was derived from.
    pub(crate) witnesses: Arc<[NodeId]>,
    /// The chunk list of the acknowledgment, kept so a retry can re-send the
    /// identical confirm payload (shared refcount, no copy).
    pub(crate) chunks: Arc<[ChunkId]>,
    /// Positions of `witnesses` that confirmed.
    pub(crate) confirmed: Bits,
    /// Positions of `witnesses` that explicitly denied. Only the hardened
    /// path (`confirm_retries > 0`) reads it: there silence is retried but a
    /// recorded denial is contradiction evidence.
    pub(crate) denied: Bits,
}

impl ConfirmCheck {
    pub(crate) fn new(
        subject: NodeId,
        witnesses: Arc<[NodeId]>,
        chunks: Arc<[ChunkId]>,
        deadline: SimTime,
    ) -> Self {
        let (confirmed, denied) = (Bits::over(witnesses.len()), Bits::over(witnesses.len()));
        ConfirmCheck {
            subject,
            attempt: 0,
            deadline,
            witnesses,
            chunks,
            confirmed,
            denied,
        }
    }

    /// Records `from`'s answer at every position it holds in the list.
    fn record(&mut self, from: NodeId, confirmed: bool) {
        let bits = if confirmed {
            &mut self.confirmed
        } else {
            &mut self.denied
        };
        for (i, w) in self.witnesses.iter().enumerate() {
            if *w == from {
                bits.insert(i);
            }
        }
    }

    /// Positions whose witness has not confirmed (the paper's single-shot
    /// contradictions: silent or denying).
    pub(crate) fn unconfirmed(&self) -> usize {
        self.witnesses.len() - self.confirmed.count()
    }

    /// The witnesses that neither confirmed nor denied, one per position.
    pub(crate) fn silent(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.witnesses
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.confirmed.contains(*i) && !self.denied.contains(*i))
            .map(|(_, w)| *w)
    }

    /// Distinct witnesses that denied.
    pub(crate) fn denials(&self) -> usize {
        let first = |i: usize| !self.witnesses[..i].contains(&self.witnesses[i]);
        (0..self.witnesses.len())
            .filter(|i| self.denied.contains(*i) && first(*i))
            .count()
    }

    /// The shared lists' shares and spilled evidence.
    fn heap_bytes(&self) -> usize {
        shared_list_heap_bytes(&self.witnesses)
            + shared_list_heap_bytes(&self.chunks)
            + self.confirmed.heap_bytes()
            + self.denied.heap_bytes()
    }
}

/// An answer landed at or after its check's deadline.
#[derive(Debug, Clone, Copy)]
struct LateAnswer {
    key: EventKey,
    token: u64,
    from: NodeId,
    confirmed: bool,
}

/// Answers landed at or after their check's deadline.
#[derive(Debug, Default)]
struct LateAnswers(Vec<LateAnswer>);

/// The confirm checks and the answers that may count at a later expiry.
#[derive(Debug)]
pub(crate) struct ConfirmChecks {
    pub(crate) ring: CheckRing<ConfirmCheck>,
    /// Boxed when first needed: a late answer can only count at an expiry
    /// that re-arms or ties its arrival, which the paper's single-shot path
    /// all but never sees, and a plane's inline size stays one word.
    late: Option<Box<LateAnswers>>,
}

impl ConfirmChecks {
    pub(crate) fn starting_at(first: u64) -> Self {
        ConfirmChecks {
            ring: CheckRing::starting_at(first),
            late: None,
        }
    }

    /// Lands `from`'s answer to the check of `token`, arriving at `key`.
    /// An answer to no live check, or from a node the check did not poll,
    /// counts nowhere.
    pub(crate) fn land(&mut self, from: NodeId, token: u64, confirmed: bool, key: EventKey) {
        let Some(check) = self.ring.get_mut(token) else {
            return;
        };
        if !check.witnesses.contains(&from) {
            return;
        }
        if key.0 < check.deadline {
            check.record(from, confirmed);
        } else {
            let late = self.late.get_or_insert_with(Box::default);
            late.0.reserve_bounded(1);
            late.0.push(LateAnswer {
                key,
                token,
                from,
                confirmed,
            });
        }
    }

    /// The check of `token` as its timer fires at `expiry`, with every late
    /// answer that arrived before `expiry` counted.
    pub(crate) fn expire(&mut self, token: u64, expiry: EventKey) -> Option<&mut ConfirmCheck> {
        let check = self.ring.get_mut(token)?;
        if let Some(late) = &mut self.late {
            late.0.retain(|a| {
                let due = a.token == token && a.key < expiry;
                if due {
                    check.record(a.from, a.confirmed);
                }
                !due
            });
        }
        Some(check)
    }

    /// Settles the check of `token`; its late answers count nowhere.
    pub(crate) fn remove(&mut self, token: u64) -> Option<ConfirmCheck> {
        if let Some(late) = &mut self.late {
            late.0.retain(|a| a.token != token);
        }
        self.ring.remove(token)
    }

    /// Heap bytes of the ring, its checks and the late answers.
    pub(crate) fn heap_bytes(&self) -> usize {
        let late = self.late.as_ref().map_or(0, |late| {
            size_of::<LateAnswers>() + late.0.capacity() * size_of::<LateAnswer>()
        });
        self.ring.heap_bytes(ConfirmCheck::heap_bytes) + late
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_stay_in_one_word_up_to_64_positions() {
        let mut bits = Bits::over(64);
        assert!(matches!(bits, Bits::Word(_)));
        bits.insert(0);
        bits.insert(63);
        bits.insert(63);
        assert_eq!(bits.count(), 2);
        assert!(bits.contains(63) && !bits.contains(62));
        let mut wide = Bits::over(65);
        wide.insert(64);
        wide.insert(3);
        assert_eq!((wide.count(), wide.heap_bytes()), (2, 16));
        assert!(wide.contains(64) && !wide.contains(0));
    }

    #[test]
    fn the_ring_drops_settled_checks_from_its_front_only() {
        let mut ring = CheckRing::starting_at(100);
        let tokens: Vec<u64> = (0..4).map(|i| ring.push(i)).collect();
        assert_eq!(tokens, [100, 101, 102, 103]);
        assert_eq!(ring.remove(102), Some(2));
        assert_eq!(ring.remove(102), None, "settled once");
        assert_eq!((ring.len(), ring.len), (3, 4));
        ring.remove(100);
        ring.remove(101);
        assert_eq!((ring.front, ring.len), (103, 1));
        assert_eq!(ring.get_mut(99), None, "a token before the ring");
        assert_eq!(ring.get_mut(1 << 40), None, "a token of a later session");
        assert_eq!(ring.push(4), 104);
    }

    #[test]
    fn the_ring_wraps_and_grows_in_token_order() {
        let mut ring = CheckRing::starting_at(0);
        let mut live = std::collections::VecDeque::new();
        for round in 0..50u64 {
            // Arm three, settle the two oldest: the ring keeps wrapping and
            // grows while wrapped.
            for _ in 0..3 {
                let token = ring.push(round);
                live.push_back(token);
            }
            for _ in 0..2 {
                let token = live.pop_front().unwrap();
                assert_eq!(ring.remove(token), Some(token / 3));
            }
            let tokens: Vec<u64> = ring.iter_mut().map(|(t, _)| t).collect();
            assert_eq!(tokens, Vec::from(live.clone()));
        }
        assert_eq!(ring.len(), 50);
    }

    #[test]
    fn a_late_answer_counts_only_at_an_expiry_it_precedes() {
        let (w, deadline) = (NodeId::new(7), SimTime::from_millis(10));
        let mut checks = ConfirmChecks::starting_at(0);
        let witnesses: Arc<[NodeId]> = vec![NodeId::new(6), w].into();
        let chunks: Arc<[ChunkId]> = vec![ChunkId::primary(1)].into();
        let token = checks.ring.push(ConfirmCheck::new(
            NodeId::new(1),
            witnesses,
            chunks,
            deadline,
        ));
        // At the deadline's µs but stamped after the timer: too late.
        checks.land(w, token, true, (deadline, 9));
        assert_eq!(
            checks.expire(token, (deadline, 5)).unwrap().unconfirmed(),
            2
        );
        // Stamped before the (re-armed) timer's seq: counts there.
        let later = SimTime::from_millis(30);
        checks.land(w, token, false, (later, 11));
        let check = checks.expire(token, (later, 12)).unwrap();
        assert_eq!((check.unconfirmed(), check.denials()), (1, 1));
        assert_eq!(check.silent().collect::<Vec<_>>(), [NodeId::new(6)]);
        assert!(checks.remove(token).is_some());
        assert!(checks.late.unwrap().0.is_empty());
    }
}

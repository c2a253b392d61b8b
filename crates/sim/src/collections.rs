//! Deterministic hash maps for the hot paths, and the one growth rule of
//! per-node buffers.
//!
//! # Deterministic hashing
//!
//! `std`'s default `RandomState` seeds every map differently, so iteration
//! order varies between processes (and between two maps in one process).
//! Protocol state machines in this workspace iterate their maps while
//! emitting messages, so that randomness would leak into event order and
//! break the reproducibility contract of the simulator — every run must be
//! bit-identical for a fixed scenario seed, sequential or parallel.
//!
//! [`DetHashMap`] keeps O(1) operations but hashes with
//! [`DefaultHasher`]'s fixed keys: iteration order becomes a pure function of
//! the insertion sequence, identical across runs, threads and processes.
//! (Simulation inputs are not attacker-controlled, so hash-flooding
//! resistance is irrelevant here.)
//!
//! A word of caution when *replacing* one of these maps with a flat
//! `Vec`-indexed structure (the preferred hot-path layout): the change is
//! only output-preserving when nothing observes the map's iteration order.
//! Several golden digests pin protocol wire order bit-for-bit, and a
//! hash-ordered walk that feeds message emission (e.g. the gossip layer's
//! fresh-chunk grouping) is load-bearing; flatten only order-blind state.
//!
//! # Bounded growth
//!
//! Per-node state (history logs, chunk tables, offers, check rings, score
//! books, blames in flight) is held by every node at once and never shrinks,
//! so the slack its buffers keep is multiplied by the population. A `Vec`
//! or `VecDeque` doubles when full and can retain twice what it ever held;
//! [`BoundedGrowth::reserve_bounded`] grows a full buffer by an eighth of
//! its length instead, never by fewer than four entries
//! ([`grown_capacity`]), so past its first few steps a buffer retains at
//! most an eighth more than its peak.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` whose iteration order is reproducible across runs.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// A fast multiply-rotate hasher (FxHash-style) with a fixed initial state.
///
/// Deterministic like [`DefaultHasher`]-with-fixed-keys but several times
/// cheaper per operation — `DefaultHasher` is SipHash, whose per-lookup cost
/// shows up when a map sits on the per-message hot path. Use [`FastHashMap`]
/// for bookkeeping maps whose iteration order is never observable in
/// outputs; maps whose (deterministic) walk order feeds message emission are
/// pinned by golden digests to `DetHashMap` and must stay there.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        // Firefox's hash-combining step: rotate, xor, multiply by a constant
        // derived from the golden ratio.
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A deterministic, fast `HashMap` for hot-path bookkeeping whose iteration
/// order never reaches any output (see [`FxHasher`]).
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A full buffer grows by its length over this divisor, an eighth...
const GROWTH_DIVISOR: usize = 8;
/// ...and by no fewer entries than this.
const MIN_GROWTH: usize = 4;

/// The capacity a full buffer of `len` entries grows to: an eighth more,
/// and at least four entries more.
pub fn grown_capacity(len: usize) -> usize {
    len + (len / GROWTH_DIVISOR).max(MIN_GROWTH)
}

/// The bounded growth rule for a per-node buffer (see the module docs).
pub trait BoundedGrowth {
    /// Makes room for `additional` more entries: nothing when they fit,
    /// otherwise grows the capacity to exactly the larger of the length
    /// plus `additional` and [`grown_capacity`] of the length. Call it
    /// before the push, extend, insert or resize it makes room for.
    fn reserve_bounded(&mut self, additional: usize);
}

/// The entries to reserve past `len` for `additional` more, if `capacity`
/// lacks room.
fn bounded_room(len: usize, capacity: usize, additional: usize) -> Option<usize> {
    (len + additional > capacity).then(|| additional.max(grown_capacity(len) - len))
}

impl<T> BoundedGrowth for Vec<T> {
    fn reserve_bounded(&mut self, additional: usize) {
        if let Some(room) = bounded_room(self.len(), self.capacity(), additional) {
            self.reserve_exact(room);
        }
    }
}

impl<T> BoundedGrowth for VecDeque<T> {
    fn reserve_bounded(&mut self, additional: usize) {
        if let Some(room) = bounded_room(self.len(), self.capacity(), additional) {
            self.reserve_exact(room);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Fails unless a buffer that just grew holds at most the rule's room
    /// past its length.
    fn assert_grew_within_rule(len: usize, capacity: usize, step: usize) {
        let bound = len + (len / 8).max(MIN_GROWTH);
        assert!(
            capacity <= bound,
            "step {step}: grew to {capacity} for {len} entries (bound {bound})"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn bounded_growth_keeps_contents_and_its_bound(
            seed in 0u64..1_000_000,
            steps in 50usize..800,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut deque, mut plain_deque) = (VecDeque::new(), VecDeque::new());
            let (mut vec, mut plain_vec) = (Vec::new(), Vec::new());
            let mut wrapped = false;
            for step in 0..steps {
                let (deque_cap, vec_cap) = (deque.capacity(), vec.capacity());
                let x: u32 = rng.gen();
                // Pushes outweigh removals, so buffers keep growing.
                match rng.gen_range(0..10) {
                    0..=3 => {
                        deque.reserve_bounded(1);
                        deque.push_back(x);
                        plain_deque.push_back(x);
                        vec.reserve_bounded(1);
                        vec.push(x);
                        plain_vec.push(x);
                    }
                    4 | 5 => {
                        let k = rng.gen_range(0..40);
                        let items: Vec<u32> = (0..k).map(|i| x.wrapping_add(i)).collect();
                        deque.reserve_bounded(k as usize);
                        deque.extend(&items);
                        plain_deque.extend(&items);
                        vec.reserve_bounded(k as usize);
                        vec.extend(&items);
                        plain_vec.extend(&items);
                    }
                    6 => {
                        let at = rng.gen_range(0..=deque.len());
                        deque.reserve_bounded(1);
                        deque.insert(at, x);
                        plain_deque.insert(at, x);
                        let at = rng.gen_range(0..=vec.len());
                        vec.reserve_bounded(1);
                        vec.insert(at, x);
                        plain_vec.insert(at, x);
                    }
                    7 | 8 => {
                        assert_eq!(deque.pop_front(), plain_deque.pop_front());
                        if !vec.is_empty() {
                            assert_eq!(vec.remove(0), plain_vec.remove(0));
                        }
                    }
                    _ => {
                        let k = rng.gen_range(0..=deque.len().min(30));
                        assert!(deque.drain(..k).eq(plain_deque.drain(..k)));
                        let k = rng.gen_range(0..=vec.len().min(30));
                        assert!(vec.drain(..k).eq(plain_vec.drain(..k)));
                    }
                }
                prop_assert!(deque == plain_deque, "step {step}: deques differ");
                prop_assert!(vec == plain_vec, "step {step}: vectors differ");
                if deque.capacity() != deque_cap {
                    assert_grew_within_rule(deque.len(), deque.capacity(), step);
                }
                if vec.capacity() != vec_cap {
                    assert_grew_within_rule(vec.len(), vec.capacity(), step);
                }
                wrapped |= !deque.as_slices().1.is_empty();
            }
            prop_assert!(wrapped || steps < 200, "the deque never wrapped in {steps} steps");
        }
    }

    #[test]
    fn growth_steps_by_an_eighth_and_at_least_four() {
        assert_eq!(grown_capacity(0), 4);
        assert_eq!(grown_capacity(31), 35);
        assert_eq!(grown_capacity(63), 70);
        assert_eq!(grown_capacity(64), 72);
        assert_eq!(grown_capacity(1_000), 1_125);
        let mut log: VecDeque<u64> = VecDeque::new();
        let mut seen = Vec::new();
        for i in 0..200 {
            log.reserve_bounded(1);
            log.push_back(i);
            if seen.last() != Some(&log.capacity()) {
                seen.push(log.capacity());
            }
        }
        assert_eq!(
            seen,
            [
                4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 45, 50, 56, 63, 70, 78, 87, 97, 109, 122,
                137, 154, 173, 194, 218
            ]
        );
    }

    #[test]
    fn fast_map_is_deterministic_and_correct() {
        let build = || {
            let mut m: FastHashMap<(u32, u64), u32> = FastHashMap::default();
            for i in 0..1_000u64 {
                m.insert((i as u32, i.wrapping_mul(0x9E37_79B9)), i as u32);
            }
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
        let mut m: FastHashMap<u64, u64> = FastHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&40), Some(&80));
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn iteration_order_is_a_function_of_insertions() {
        let build = || {
            let mut m = DetHashMap::default();
            for i in 0..1_000u64 {
                m.insert(i.wrapping_mul(0x9E37_79B9), i);
            }
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}

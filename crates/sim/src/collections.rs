//! Deterministic and allocation-light collections for the hot paths.
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
//! # Inline small vectors
//!
//! [`InlineVec`] is a bounded-inline vector for the short lists the
//! protocols shuffle around constantly — partner sets (fanout ≈ 7), chunk
//! batches, witness sets. Up to `N` elements live inside the struct with no
//! heap allocation; longer contents spill to an ordinary `Vec`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize, Value};

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

/// A vector that stores up to `N` elements inline (no heap allocation) and
/// spills to a heap `Vec` beyond that.
///
/// Restricted to `T: Copy + Default` so the whole type stays safe code (the
/// inline buffer is a plain array, not uninitialized memory) — exactly the
/// id-sized element types the hot paths use.
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    len: usize,
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }

    /// Creates a vector holding a copy of `items`.
    pub fn from_slice(items: &[T]) -> Self {
        let mut v = InlineVec::new();
        v.extend_from_slice(items);
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Appends one element.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = value;
        } else {
            if self.len == N {
                // First spill: move the inline prefix to the heap.
                self.spill.reserve(N + 1);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Appends every element of `items`.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        for &item in items {
            self.push(item);
        }
    }

    /// Appends `value` unless it is already present; returns true if it was
    /// inserted (set semantics, linear scan — meant for the short witness /
    /// receipt sets of the verification plane).
    pub fn insert_unique(&mut self, value: T) -> bool
    where
        T: PartialEq,
    {
        if self.as_slice().contains(&value) {
            return false;
        }
        self.push(value);
        true
    }

    /// Removes every element, keeping any spilled capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize, O: AsRef<[T]>> PartialEq<O>
    for InlineVec<T, N>
{
    fn eq(&self, other: &O) -> bool {
        self.as_slice() == other.as_ref()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default, const N: usize> AsRef<[T]> for InlineVec<T, N> {
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + Serialize, const N: usize> Serialize for InlineVec<T, N> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Copy + Default, const N: usize> Deserialize for InlineVec<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_vec_stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(v.len(), 4);
        // Up to N the spill vector is never touched (no heap allocation).
        assert_eq!(v.spill.capacity(), 0);
    }

    #[test]
    fn inline_vec_spills_transparently() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        assert_eq!(v.as_slice(), (0..10).collect::<Vec<_>>().as_slice());
        let from = InlineVec::<u32, 4>::from_slice(&(0..10).collect::<Vec<_>>());
        assert_eq!(v, from);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[u32]);
    }

    #[test]
    fn inline_vec_set_semantics() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        assert!(v.insert_unique(7));
        assert!(!v.insert_unique(7));
        assert!(v.insert_unique(8));
        assert!(v.insert_unique(9)); // spills
        assert!(!v.insert_unique(9));
        assert_eq!(v.len(), 3);
        assert!(v.contains(&8), "deref gives slice methods");
    }

    #[test]
    fn inline_vec_collects_and_compares() {
        let v: InlineVec<u32, 8> = (0..5).collect();
        assert_eq!(v, [0, 1, 2, 3, 4]);
        assert_eq!(v.iter().copied().sum::<u32>(), 10);
        assert_eq!(format!("{v:?}"), "[0, 1, 2, 3, 4]");
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

//! Deterministic hash maps for the hot paths.
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

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
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

#[cfg(test)]
mod tests {
    use super::*;

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

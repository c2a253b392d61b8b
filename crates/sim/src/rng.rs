//! Seed management for reproducible randomness.
//!
//! Every source of randomness in the reproduction (per-node protocol RNG,
//! per-link loss RNG, workload generators, …) is derived from a single master
//! seed through a splitmix-style mixing function, so that experiments are
//! reproducible and independent random streams do not accidentally correlate.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Mixes a master seed with a stream label into an independent 64-bit seed.
///
/// Uses the splitmix64 finalizer, which is the standard way to expand a single
/// seed into decorrelated streams.
pub fn split_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates a small, fast RNG for the given `(master, stream)` pair.
pub fn derive_rng(master: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(split_seed(master, stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn split_seed_is_deterministic() {
        assert_eq!(split_seed(1, 2), split_seed(1, 2));
        assert_ne!(split_seed(1, 2), split_seed(1, 3));
        assert_ne!(split_seed(1, 2), split_seed(2, 2));
    }

    #[test]
    fn derived_rngs_are_reproducible() {
        let mut a = derive_rng(7, 3);
        let mut b = derive_rng(7, 3);
        let xs: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn derived_rngs_differ_across_streams() {
        let mut a = derive_rng(7, 0);
        let mut b = derive_rng(7, 1);
        let xs: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }
}

//! One-way latency models.

use lifting_sim::{NodeId, SimDuration};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One-way propagation-delay model between two nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// PlanetLab-like model: each node has a deterministic "region offset"
    /// derived from its identifier; the pairwise base latency is the sum of
    /// the two offsets plus a per-message jitter. This produces the broad,
    /// heterogeneous RTT spread typical of wide-area testbeds while remaining
    /// fully reproducible.
    PlanetLab {
        /// Minimum one-way base latency.
        base: SimDuration,
        /// Maximum extra per-node offset (each endpoint contributes up to this).
        spread: SimDuration,
        /// Maximum per-message jitter.
        jitter: SimDuration,
    },
}

impl LatencyModel {
    /// A reasonable wide-area default: 30 ms base, up to 60 ms per-endpoint
    /// spread, 10 ms jitter — one-way delays between 30 and 160 ms.
    pub fn planetlab_default() -> Self {
        LatencyModel::PlanetLab {
            base: SimDuration::from_millis(30),
            spread: SimDuration::from_millis(60),
            jitter: SimDuration::from_millis(10),
        }
    }

    /// Deterministic per-node latency offset used by the PlanetLab model.
    fn node_offset(node: NodeId, spread: SimDuration) -> SimDuration {
        if spread.is_zero() {
            return SimDuration::ZERO;
        }
        // Spread node offsets deterministically over [0, spread) using a
        // multiplicative hash of the identifier.
        let h = (u64::from(u32::from(node)).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32;
        let frac = h as f64 / u32::MAX as f64;
        spread.mul_f64(frac / 2.0)
    }

    /// Samples the one-way latency for a message from `from` to `to`.
    pub fn sample<R: Rng + ?Sized>(&self, from: NodeId, to: NodeId, rng: &mut R) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::PlanetLab {
                base,
                spread,
                jitter,
            } => {
                let mut d =
                    *base + Self::node_offset(from, *spread) + Self::node_offset(to, *spread);
                if !jitter.is_zero() {
                    d += SimDuration::from_micros(rng.gen_range(0..=jitter.as_micros()));
                }
                d
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Constant(SimDuration::from_millis(50))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::derive_rng;

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant(SimDuration::from_millis(80));
        let mut rng = derive_rng(0, 0);
        for _ in 0..10 {
            assert_eq!(
                m.sample(NodeId::new(1), NodeId::new(2), &mut rng),
                SimDuration::from_millis(80)
            );
        }
    }

    #[test]
    fn planetlab_is_heterogeneous_but_bounded() {
        let m = LatencyModel::planetlab_default();
        let mut rng = derive_rng(2, 0);
        let mut seen = Vec::new();
        for i in 0..50u32 {
            for j in 0..5u32 {
                let d = m.sample(NodeId::new(i), NodeId::new(1000 + j), &mut rng);
                assert!(d >= SimDuration::from_millis(30));
                assert!(d <= SimDuration::from_millis(30 + 60 + 10));
                seen.push(d.as_micros());
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() > 20, "latencies should vary across pairs");
    }

    #[test]
    fn planetlab_pair_base_is_stable() {
        // Without jitter the pairwise latency must be a pure function of the pair.
        let m = LatencyModel::PlanetLab {
            base: SimDuration::from_millis(30),
            spread: SimDuration::from_millis(60),
            jitter: SimDuration::ZERO,
        };
        let mut rng = derive_rng(3, 0);
        let a = m.sample(NodeId::new(7), NodeId::new(9), &mut rng);
        let b = m.sample(NodeId::new(7), NodeId::new(9), &mut rng);
        assert_eq!(a, b);
    }
}

//! Per-node capability *classes*: the scenario's heterogeneity policy.
//!
//! The capability axis is *per node*, not per category: a [`Capability`]
//! maps every node to a [`NodeCapability`] (uplink rate, access-link loss,
//! latency class) from one shared RNG stream. The `poor-fraction` class
//! replicates, draw for draw, the historical builder loop — the
//! bit-compatibility anchor for every scenario written before classes
//! existed. (Transport and loss are plain values of
//! [`crate::NetworkConfig`].)

use lifting_sim::ComponentError;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::bandwidth::NodeCapability;

/// How the scenario assigns every node its [`NodeCapability`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Capability {
    /// Everyone gets the scenario's default attachment (no heterogeneity).
    #[default]
    Uniform,
    /// The historical heterogeneity model: a `fraction` of the *honest*
    /// population is poorly connected (`poor_upload_bps`, plus
    /// `poor_extra_loss` on its access link).
    PoorFraction {
        /// Fraction of the honest non-source nodes that are poor.
        fraction: f64,
        /// A poor node's uplink, bits per second (≥ 1).
        poor_upload_bps: u64,
        /// A poor node's extra access-link loss probability.
        poor_extra_loss: f64,
    },
    /// Access-technology tiers: every non-source node draws fiber, cable,
    /// DSL or — the remainder — mobile, each with its uplink rate, access
    /// loss and latency scale.
    Tiered {
        /// Fraction of fiber nodes.
        fiber: f64,
        /// Fraction of cable nodes.
        cable: f64,
        /// Fraction of DSL nodes (the fractions sum to at most 1).
        dsl: f64,
    },
}

const FIBER: NodeCapability = NodeCapability {
    upload_bps: Some(50_000_000),
    extra_loss: 0.0,
    latency_scale: 0.8,
};
const CABLE: NodeCapability = NodeCapability {
    upload_bps: Some(10_000_000),
    extra_loss: 0.0,
    latency_scale: 1.0,
};
const DSL: NodeCapability = NodeCapability {
    upload_bps: Some(2_000_000),
    extra_loss: 0.01,
    latency_scale: 1.3,
};
const MOBILE: NodeCapability = NodeCapability {
    upload_bps: Some(1_000_000),
    extra_loss: 0.03,
    latency_scale: 2.0,
};

impl Capability {
    /// `poor-fraction` at its defaults: 10 % of the honest nodes behind an
    /// 800 kbps uplink with 3 % extra loss.
    pub const POOR_FRACTION: Capability = Capability::PoorFraction {
        fraction: 0.1,
        poor_upload_bps: 800_000,
        poor_extra_loss: 0.03,
    };

    /// `tiered` at its defaults: 15 % fiber, 45 % cable, 30 % DSL, 10 %
    /// mobile.
    pub const TIERED: Capability = Capability::Tiered {
        fiber: 0.15,
        cable: 0.45,
        dsl: 0.3,
    };

    /// The class's name, as errors and listings print it.
    pub fn name(&self) -> &'static str {
        match self {
            Capability::Uniform => "uniform",
            Capability::PoorFraction { .. } => "poor-fraction",
            Capability::Tiered { .. } => "tiered",
        }
    }

    /// Checks every parameter's range, naming the first one out of it.
    pub fn validate(&self) -> Result<(), ComponentError> {
        let name = self.name();
        match *self {
            Capability::Uniform => Ok(()),
            Capability::PoorFraction {
                fraction,
                poor_upload_bps,
                poor_extra_loss,
            } => {
                ComponentError::require_fraction(name, "fraction", fraction)?;
                ComponentError::require_at_least_one(name, "poor_upload_bps", poor_upload_bps)?;
                ComponentError::require_fraction(name, "poor_extra_loss", poor_extra_loss)
            }
            Capability::Tiered { fiber, cable, dsl } => {
                ComponentError::require_fraction(name, "fiber", fiber)?;
                ComponentError::require_fraction(name, "cable", cable)?;
                ComponentError::require_fraction(name, "dsl", dsl)?;
                let sum = fiber + cable + dsl;
                ComponentError::require(
                    sum <= 1.0,
                    name,
                    "dsl",
                    format!("class fractions sum to {sum} > 1 (the remainder is the mobile class)"),
                )
            }
        }
    }

    /// The capability of node `index`. `default` is the scenario's baseline
    /// attachment (derived from its `default_upload_bps`); node 0 — the
    /// broadcast source — always gets it.
    ///
    /// The builder walks nodes in ascending order with the *same* RNG; the
    /// draw order is a pure function of `(index, is_freerider)`:
    /// `poor-fraction` draws once per honest non-source node when its
    /// fraction is positive (the short-circuit is part of the RNG contract),
    /// `tiered` once per non-source node, freeriders included.
    pub fn assign(
        &self,
        index: usize,
        is_freerider: bool,
        default: NodeCapability,
        rng: &mut SmallRng,
    ) -> NodeCapability {
        if index == 0 {
            return default; // the source is always well provisioned
        }
        match *self {
            Capability::Uniform => default,
            Capability::PoorFraction {
                fraction,
                poor_upload_bps,
                poor_extra_loss,
            } => {
                if !is_freerider && fraction > 0.0 && rng.gen_bool(fraction) {
                    NodeCapability::poor(poor_upload_bps, poor_extra_loss)
                } else {
                    default
                }
            }
            Capability::Tiered { fiber, cable, dsl } => {
                let draw: f64 = rng.gen_range(0.0..1.0);
                if draw < fiber {
                    FIBER
                } else if draw < fiber + cable {
                    CABLE
                } else if draw < fiber + cable + dsl {
                    DSL
                } else {
                    MOBILE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::derive_rng;

    #[test]
    fn poor_fraction_assigner_replays_the_legacy_draw_order() {
        // The class must consume the RNG exactly like the historical
        // builder loop: one draw per honest non-source node when the
        // fraction is positive, none otherwise.
        let assigner = Capability::PoorFraction {
            fraction: 0.5,
            poor_upload_bps: 700_000,
            poor_extra_loss: 0.02,
        };
        let default = NodeCapability::broadband(5_000_000);

        let mut expected_rng = derive_rng(42, 2);
        let mut actual_rng = derive_rng(42, 2);
        for i in 0..50 {
            let is_freerider = i >= 40;
            let expected = if i == 0 {
                default
            } else if !is_freerider && expected_rng.gen_bool(0.5) {
                NodeCapability::poor(700_000, 0.02)
            } else {
                default
            };
            let actual = assigner.assign(i, is_freerider, default, &mut actual_rng);
            assert_eq!(actual, expected, "node {i}");
        }
    }

    #[test]
    fn poor_fraction_rejects_a_non_positive_uplink() {
        let capability = Capability::PoorFraction {
            fraction: 0.1,
            poor_upload_bps: 0,
            poor_extra_loss: 0.03,
        };
        let Err(err) = capability.validate() else {
            panic!("an uplink of 0 bps must be rejected, not clamped");
        };
        assert!(
            matches!(&err, ComponentError::InvalidParam { component, key, .. }
                if component == "poor-fraction" && key == "poor_upload_bps"),
            "{err}"
        );
    }

    #[test]
    fn tiered_assigner_is_deterministic_and_covers_all_classes() {
        let assigner = Capability::TIERED;
        assert_eq!(assigner.validate(), Ok(()));
        let default = NodeCapability::unconstrained();
        let assign_all = || {
            let mut rng = derive_rng(7, 2);
            (0..200)
                .map(|i| assigner.assign(i, false, default, &mut rng))
                .collect::<Vec<_>>()
        };
        let a = assign_all();
        assert_eq!(a, assign_all());
        assert_eq!(a[0], default, "the source keeps the default");
        for class in [FIBER, CABLE, DSL, MOBILE] {
            assert!(a.contains(&class), "missing {class:?}");
        }
    }

    #[test]
    fn tiered_fractions_over_one_are_rejected() {
        let capability = Capability::Tiered {
            fiber: 0.6,
            cable: 0.6,
            dsl: 0.3,
        };
        let Err(err) = capability.validate() else {
            panic!("fractions summing over 1 must be rejected");
        };
        assert!(matches!(err, ComponentError::InvalidParam { .. }));
    }
}

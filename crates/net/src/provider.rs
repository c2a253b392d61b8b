//! Registered per-node capability *classes*.
//!
//! Scenario construction used to hard-code node heterogeneity as one "poor
//! fraction" loop in the runtime's world builder. This module turns it into
//! rows of a [`lifting_sim::ComponentRegistry`], so scenarios declare
//! `capability:tiered` and new classes slot in without touching the builder.
//! (Transport and loss are plain values of [`crate::NetworkConfig`].)
//!
//! The capability axis is *per node*, not per category: a
//! [`CapabilityClassAssigner`] maps every node to a [`NodeCapability`]
//! (uplink rate, access-link loss, latency class) from one shared RNG
//! stream. The `poor-fraction` assigner replicates, draw for draw, the
//! historical builder loop — the bit-compatibility anchor for every
//! pre-registry scenario.

use lifting_sim::{Component, ComponentError, ComponentRegistry, ParamSpec};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::bandwidth::NodeCapability;

/// Assigns every node its [`NodeCapability`] — the per-node heterogeneity
/// provider.
///
/// The builder walks nodes in ascending order and calls `assign` once per
/// node with the *same* RNG; implementations must keep their draw order a
/// pure function of `(index, is_freerider)` so the assignment is
/// deterministic and insertion-order independent.
pub trait CapabilityClassAssigner: Send + Sync {
    /// The capability of node `index`. `default` is the scenario's baseline
    /// attachment (derived from its `default_upload_bps`); node 0 — the
    /// broadcast source — must always get `default`.
    fn assign(
        &self,
        index: usize,
        is_freerider: bool,
        default: NodeCapability,
        rng: &mut SmallRng,
    ) -> NodeCapability;
}

// ---------------------------------------------------------------------------
// Capability-class components.
// ---------------------------------------------------------------------------

/// Everyone gets the scenario's default attachment (no heterogeneity).
struct UniformAssigner;

impl CapabilityClassAssigner for UniformAssigner {
    fn assign(
        &self,
        _index: usize,
        _is_freerider: bool,
        default: NodeCapability,
        _rng: &mut SmallRng,
    ) -> NodeCapability {
        default
    }
}

/// The historical heterogeneity model: a fraction of the *honest* population
/// is poorly connected. Draw-for-draw identical to the pre-registry builder
/// loop: the source never draws, freeriders never draw (the short-circuit is
/// part of the RNG contract), and a zero fraction consumes nothing.
struct PoorFractionAssigner {
    fraction: f64,
    poor_upload_bps: u64,
    poor_extra_loss: f64,
}

impl CapabilityClassAssigner for PoorFractionAssigner {
    fn assign(
        &self,
        index: usize,
        is_freerider: bool,
        default: NodeCapability,
        rng: &mut SmallRng,
    ) -> NodeCapability {
        if index == 0 {
            // The source is always well provisioned.
            default
        } else if !is_freerider && self.fraction > 0.0 && rng.gen_bool(self.fraction) {
            NodeCapability::poor(self.poor_upload_bps, self.poor_extra_loss)
        } else {
            default
        }
    }
}

/// Heterogeneous access-technology tiers: every non-source node draws one of
/// four classes — fiber, cable, DSL, mobile — with per-class uplink rate,
/// access loss and latency scale. The per-node draw happens unconditionally
/// (freeriders included) so the class stream is a pure function of the node
/// order.
struct TieredAssigner {
    fiber: f64,
    cable: f64,
    dsl: f64,
}

impl TieredAssigner {
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
}

impl CapabilityClassAssigner for TieredAssigner {
    fn assign(
        &self,
        index: usize,
        _is_freerider: bool,
        default: NodeCapability,
        rng: &mut SmallRng,
    ) -> NodeCapability {
        if index == 0 {
            return default; // the source is always well provisioned
        }
        let draw: f64 = rng.gen_range(0.0..1.0);
        if draw < self.fiber {
            TieredAssigner::FIBER
        } else if draw < self.fiber + self.cable {
            TieredAssigner::CABLE
        } else if draw < self.fiber + self.cable + self.dsl {
            TieredAssigner::DSL
        } else {
            TieredAssigner::MOBILE
        }
    }
}

/// The registry of capability-class components: `uniform`, `poor-fraction`,
/// `tiered`.
pub fn capability_components() -> &'static ComponentRegistry<Box<dyn CapabilityClassAssigner>> {
    static REGISTRY: ComponentRegistry<Box<dyn CapabilityClassAssigner>> = ComponentRegistry::new(
        "capability",
        &[
            Component {
                name: "uniform",
                params: &[],
                build: |_, _| Ok(Box::new(UniformAssigner)),
            },
            Component {
                name: "poor-fraction",
                params: &[
                    ParamSpec::float("fraction", 0.1),
                    ParamSpec::int("poor_upload_bps", 800_000),
                    ParamSpec::float("poor_extra_loss", 0.03),
                ],
                build: |name, params| {
                    Ok(Box::new(PoorFractionAssigner {
                        fraction: params.fraction(name, "fraction")?,
                        poor_upload_bps: params.positive_int(name, "poor_upload_bps")? as u64,
                        poor_extra_loss: params.fraction(name, "poor_extra_loss")?,
                    }))
                },
            },
            Component {
                name: "tiered",
                params: &[
                    ParamSpec::float("fiber", 0.15),
                    ParamSpec::float("cable", 0.45),
                    ParamSpec::float("dsl", 0.3),
                ],
                build: |name, params| {
                    let fiber = params.fraction(name, "fiber")?;
                    let cable = params.fraction(name, "cable")?;
                    let dsl = params.fraction(name, "dsl")?;
                    let sum = fiber + cable + dsl;
                    ComponentError::require(
                        sum <= 1.0,
                        name,
                        "dsl",
                        format!(
                            "class fractions sum to {sum} > 1 (the remainder is the mobile class)"
                        ),
                    )?;
                    Ok(Box::new(TieredAssigner { fiber, cable, dsl }))
                },
            },
        ],
    );
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::{derive_rng, ParamMap, ParamValue, SeedSplitter};

    #[test]
    fn poor_fraction_assigner_replays_the_legacy_draw_order() {
        // The assigner must consume the RNG exactly like the historical
        // builder loop: one draw per honest non-source node when the
        // fraction is positive, none otherwise.
        let registry = capability_components();
        let mut seeds = SeedSplitter::new(9);
        let params = ParamMap::new()
            .with("fraction", ParamValue::Float(0.5))
            .with("poor_upload_bps", ParamValue::Int(700_000))
            .with("poor_extra_loss", ParamValue::Float(0.02));
        let assigner = registry
            .build("poor-fraction", &params, &mut seeds)
            .unwrap();
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
        let mut seeds = SeedSplitter::new(1);
        for bps in [0, -5] {
            let params = ParamMap::new().with("poor_upload_bps", ParamValue::Int(bps));
            let Err(err) = capability_components().build("poor-fraction", &params, &mut seeds)
            else {
                panic!("an uplink of {bps} bps must be rejected, not clamped");
            };
            assert!(
                matches!(&err, ComponentError::InvalidParam { component, key, .. }
                    if component == "poor-fraction" && key == "poor_upload_bps"),
                "{err}"
            );
        }
    }

    #[test]
    fn tiered_assigner_is_deterministic_and_covers_all_classes() {
        let registry = capability_components();
        let mut seeds = SeedSplitter::new(9);
        let assigner = registry
            .build("tiered", &ParamMap::new(), &mut seeds)
            .unwrap();
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
        for class in [
            TieredAssigner::FIBER,
            TieredAssigner::CABLE,
            TieredAssigner::DSL,
            TieredAssigner::MOBILE,
        ] {
            assert!(a.contains(&class), "missing {class:?}");
        }
    }

    #[test]
    fn tiered_fractions_over_one_are_rejected() {
        let registry = capability_components();
        let mut seeds = SeedSplitter::new(1);
        let params = ParamMap::new()
            .with("fiber", ParamValue::Float(0.6))
            .with("cable", ParamValue::Float(0.6));
        let Err(err) = registry.build("tiered", &params, &mut seeds) else {
            panic!("fractions summing over 1 must be rejected");
        };
        assert!(matches!(err, ComponentError::InvalidParam { .. }));
    }
}

//! Runtime-level component registries: workload generators, adversaries and
//! outcome exporters, plus the one function that turns a [`ScenarioConfig`]'s
//! declarative `components` section into live providers.
//!
//! Together with the capability registry of [`lifting_net::provider`],
//! these registries make scenario construction compositional: a scenario
//! picks named components and parameter maps, and every axis is extended by
//! adding a row — no builder surgery. The rule is **one axis, one encoding**:
//! adding an adversary family is one row of [`adversary_components`]
//! (parameters, range checks, cross-field rule and the constructor of the
//! [`Adversary`] itself), and nothing else in the crate names the family —
//! the paper's collusion included, which is parameters of `baseline`.
//! Likewise every disturbance — steady churn and its waves, partition waves,
//! the trace-driven audiences — is one row of [`workload_components`].
//!
//! [`resolve_components`] runs once per world, in
//! [`crate::builder::build_world`]; everything a component resolves to is
//! derived from the scenario's fixed RNG streams, so the same declaration
//! always yields the same run.

use std::sync::Arc;

use lifting_gossip::FreeriderConfig;
use lifting_membership::{
    Churn, DiurnalCycle, PartitionWaves, RegionalFailureWaves, Wave, WorkloadGenerator,
    ZapSwitching,
};
use lifting_net::provider::{capability_components, CapabilityClassAssigner};
use lifting_net::LossModel;
use lifting_sim::{
    Component, ComponentError, ComponentRegistry, NodeId, ParamMap, ParamSpec, SeedSplitter,
    SimDuration,
};

use crate::layers::{
    AdaptiveColluder, Adversary, BlameSpammer, Colluder, Freerider, GradientFreerider, Honest,
    OnOffFreerider, SelectiveFreerider, Whitewasher,
};
use crate::metrics::RunOutcome;
use crate::scenario::{ComponentSpec, ScenarioConfig};

fn positive_secs(
    component: &str,
    params: &ParamMap,
    key: &str,
) -> Result<SimDuration, ComponentError> {
    params
        .float_where(component, key, |x| x > 0.0, "seconds is not positive")
        .map(SimDuration::from_secs_f64)
}

/// The fraction of the population one wave may take: a wave must leave
/// enough of it standing for gossip to mean anything.
fn wave_fraction(component: &str, params: &ParamMap, key: &str) -> Result<f64, ComponentError> {
    let at_most_90 = |x| (0.0..=0.9).contains(&x);
    params.float_where(component, key, at_most_90, "is not in [0, 0.9]")
}

// ---------------------------------------------------------------------------
// Workload components: every disturbance of a run.
// ---------------------------------------------------------------------------

type Generator = Box<dyn WorkloadGenerator>;

/// Every disturbance generator. Adding one is one row here: parameters, range
/// checks and constructor (the expansion lives in `lifting_membership`).
static WORKLOADS: [Component<Generator>; 5] = [
    Component {
        name: "diurnal",
        params: &[
            ParamSpec::float("participation", 0.6),
            ParamSpec::float("cycle_secs", 12.0),
            ParamSpec::float("offline_fraction", 0.35),
            ParamSpec::float("warmup_secs", 4.0),
        ],
        build: |name, params| {
            Ok(Box::new(DiurnalCycle {
                participation: params.fraction(name, "participation")?,
                cycle: positive_secs(name, params, "cycle_secs")?,
                offline_fraction: params.fraction(name, "offline_fraction")?,
                warmup: positive_secs(name, params, "warmup_secs")?,
            }))
        },
    },
    Component {
        name: "regional-failure",
        params: &[
            ParamSpec::int("regions", 4),
            ParamSpec::int("waves", 2),
            ParamSpec::float("outage_secs", 4.0),
            ParamSpec::float("warmup_secs", 5.0),
        ],
        build: |name, params| {
            Ok(Box::new(RegionalFailureWaves {
                regions: params.positive_int(name, "regions")? as usize,
                waves: params.positive_int(name, "waves")? as usize,
                outage: positive_secs(name, params, "outage_secs")?,
                warmup: positive_secs(name, params, "warmup_secs")?,
            }))
        },
    },
    Component {
        name: "zap",
        params: &[
            ParamSpec::float("zappers", 0.4),
            ParamSpec::float("mean_dwell_secs", 6.0),
            ParamSpec::float("warmup_secs", 3.0),
        ],
        build: |name, params| {
            Ok(Box::new(ZapSwitching {
                zappers: params.fraction(name, "zappers")?,
                mean_dwell: positive_secs(name, params, "mean_dwell_secs")?,
                warmup: positive_secs(name, params, "warmup_secs")?,
            }))
        },
    },
    Component {
        name: "churn",
        // A wave fraction of 0 is no wave.
        params: &[
            ParamSpec::float("fraction", 0.25),
            ParamSpec::float("mean_session_secs", 12.0),
            ParamSpec::float("mean_offline_secs", 3.0),
            ParamSpec::float("warmup_secs", 3.0),
            ParamSpec::float("catastrophe_at_secs", 10.0),
            ParamSpec::float("catastrophe_fraction", 0.0),
            ParamSpec::float("flash_crowd_at_secs", 10.0),
            ParamSpec::float("flash_crowd_fraction", 0.0),
        ],
        build: |name, params| {
            let wave = |at: &str, fraction: &str| -> Result<Wave, ComponentError> {
                Ok(Wave {
                    at: positive_secs(name, params, at)?,
                    fraction: wave_fraction(name, params, fraction)?,
                })
            };
            Ok(Box::new(Churn {
                fraction: params.fraction(name, "fraction")?,
                mean_session: positive_secs(name, params, "mean_session_secs")?,
                mean_offline: positive_secs(name, params, "mean_offline_secs")?,
                warmup: params
                    .float_where(name, "warmup_secs", |x| x >= 0.0, "seconds is negative")
                    .map(SimDuration::from_secs_f64)?,
                catastrophe: wave("catastrophe_at_secs", "catastrophe_fraction")?,
                flash_crowd: wave("flash_crowd_at_secs", "flash_crowd_fraction")?,
            }))
        },
    },
    Component {
        name: "partition-waves",
        params: &[
            ParamSpec::int("waves", 2),
            ParamSpec::float("outage_secs", 4.0),
            ParamSpec::float("fraction", 0.25),
        ],
        build: |name, params| {
            // A node's overlapping partitions are counted in a `u8`.
            let waves =
                params.int_where(name, "waves", |x| (1..=255).contains(&x), "not in [1, 255]");
            Ok(Box::new(PartitionWaves {
                waves: waves? as usize,
                outage: positive_secs(name, params, "outage_secs")?,
                fraction: wave_fraction(name, params, "fraction")?,
            }))
        },
    },
];

/// The registry of workload-generator components: `diurnal`,
/// `regional-failure`, `zap`, `churn`, `partition-waves`.
pub fn workload_components() -> &'static ComponentRegistry<Generator> {
    static REGISTRY: ComponentRegistry<Generator> = ComponentRegistry::new("workload", &WORKLOADS);
    &REGISTRY
}

// ---------------------------------------------------------------------------
// Adversary components.
// ---------------------------------------------------------------------------

type SpawnFn = Box<dyn Fn(&ScenarioConfig, &Arc<Vec<NodeId>>) -> Box<dyn Adversary> + Send + Sync>;
type CheckFn = Box<dyn Fn(&ScenarioConfig) -> Result<(), ComponentError> + Send + Sync>;

/// What the adversary registry builds: the value that makes the freerider
/// population's [`Adversary`] instances — at world construction and again
/// whenever a rejoin rebuilds a stack — together with what the runtime has
/// to know about the family.
pub struct AdversarySpawner {
    family: &'static str,
    closed_loop: bool,
    /// 0 for `baseline` (composes with an empty population); otherwise the
    /// family replaces the freeriders' behaviour and needs at least this many
    /// of them.
    min_freeriders: usize,
    check: Option<CheckFn>,
    spawn: SpawnFn,
}

impl AdversarySpawner {
    /// True if the family reacts to runtime feedback (scores, audit
    /// observations) — i.e. the runtime must run the closed-loop upcalls.
    pub fn closed_loop(&self) -> bool {
        self.closed_loop
    }

    /// The family's cross-field rules against the scenario it is declared in.
    /// A family that replaces the freeriders' behaviour needs a population to
    /// replace.
    fn check(&self, config: &ScenarioConfig) -> Result<(), ComponentError> {
        let count = config.freerider_count();
        if count < self.min_freeriders {
            return Err(ComponentError::invalid(
                self.family,
                "freeriders",
                format!(
                    "{count} freeriders configured, the family needs at least {}",
                    self.min_freeriders
                ),
            ));
        }
        self.check.as_ref().map_or(Ok(()), |check| check(config))
    }

    /// The adversary node `index` plays: node 0 (the source) and the honest
    /// population play [`Honest`], the freerider suffix plays the family.
    pub fn spawn(
        &self,
        config: &ScenarioConfig,
        index: usize,
        coalition: &Arc<Vec<NodeId>>,
    ) -> Box<dyn Adversary> {
        if config.is_freerider(index) {
            (self.spawn)(config, coalition)
        } else {
            Box::new(Honest)
        }
    }
}

/// The open-loop spawner of `family`: it needs `min_freeriders` freeriders
/// and has no cross-field rule of its own.
fn spawner(
    family: &'static str,
    min_freeriders: usize,
    spawn: impl Fn(&ScenarioConfig, &Arc<Vec<NodeId>>) -> Box<dyn Adversary> + Send + Sync + 'static,
) -> AdversarySpawner {
    AdversarySpawner {
        family,
        closed_loop: false,
        min_freeriders,
        check: None,
        spawn: Box::new(spawn),
    }
}

/// The dissemination-level degree the population freerides with (families
/// are only spawned for freeriders, so the population is configured).
fn degree(config: &ScenarioConfig) -> FreeriderConfig {
    config
        .freeriders
        .expect("adversaries are spawned for freeriders only")
        .degree
}

/// Every family the freerider population can play. Adding one is one row
/// here: parameters, range checks, cross-field rule and constructor.
static ADVERSARIES: [Component<AdversarySpawner>; 7] = [
    // The paper's adversary: freeriders, independent unless told to collude
    // (Section 5.2, Figure 8).
    Component {
        name: "baseline",
        params: &[
            ParamSpec::float("partner_bias", 0.0),
            ParamSpec::flag("cover_up"),
            ParamSpec::flag("man_in_the_middle"),
        ],
        build: |name, params| {
            let partner_bias = params.fraction(name, "partner_bias")?;
            let cover_up = params.bool("cover_up");
            let man_in_the_middle = params.bool("man_in_the_middle");
            let colludes = partner_bias > 0.0 || cover_up || man_in_the_middle;
            Ok(spawner(name, 0, move |config, coalition| {
                let degree = degree(config);
                if !colludes {
                    return Box::new(Freerider { degree });
                }
                Box::new(Colluder {
                    degree,
                    coalition: coalition.clone(),
                    partner_bias,
                    cover_up,
                    man_in_the_middle,
                })
            }))
        },
    },
    Component {
        name: "on-off",
        params: &[
            ParamSpec::int("on_periods", 2),
            ParamSpec::int("off_periods", 2),
        ],
        build: |name, params| {
            let on_periods = params.positive_int(name, "on_periods")? as u64;
            let off_periods = params.positive_int(name, "off_periods")? as u64;
            Ok(spawner(name, 1, move |config, _| {
                Box::new(OnOffFreerider {
                    degree: degree(config),
                    on_periods,
                    off_periods,
                })
            }))
        },
    },
    Component {
        name: "blame-spam",
        params: &[
            ParamSpec::int("blames_per_period", 5),
            ParamSpec::float("blame_value", 5.0),
        ],
        build: |name, params| {
            let blames_per_period = params.positive_int(name, "blames_per_period")? as u32;
            let blame_value =
                params.float_where(name, "blame_value", |x| x >= 0.0, "is negative")?;
            Ok(spawner(name, 1, move |_, _| {
                Box::new(BlameSpammer {
                    blames_per_period,
                    blame_value,
                })
            }))
        },
    },
    Component {
        name: "selective-freerider",
        // Bit s of the mask silences stream s.
        params: &[ParamSpec::int("silent_mask", 0b10)],
        build: |name, params| {
            let mask =
                params.int_where(name, "silent_mask", |m| m != 0, "silences no stream")? as u64;
            let reject = move |reason: String| ComponentError::invalid(name, "silent_mask", reason);
            let check = move |config: &ScenarioConfig| match config.stream_count() {
                1 => Err(reject(
                    "needs at least two streams to select between".into(),
                )),
                // With 64 streams every bit names one (and `>> 64` overflows).
                streams if streams < 64 && mask >> streams != 0 => Err(reject(format!(
                    "{mask:#b} names streams beyond the {streams} the scenario runs"
                ))),
                _ => Ok(()),
            };
            Ok(AdversarySpawner {
                check: Some(Box::new(check)),
                ..spawner(name, 1, move |_, _| {
                    Box::new(SelectiveFreerider { silent_mask: mask })
                })
            })
        },
    },
    Component {
        name: "gradient-freerider",
        params: &[
            ParamSpec::float("margin", 2.0),
            ParamSpec::float("step", 0.25),
        ],
        build: |name, params| {
            let margin = params.float_where(name, "margin", |x| x >= 0.0, "is negative")?;
            let in_unit = |x| x > 0.0 && x <= 1.0;
            let step = params.float_where(name, "step", in_unit, "is not in (0, 1]")?;
            Ok(AdversarySpawner {
                closed_loop: true,
                ..spawner(name, 1, move |config, _| {
                    Box::new(GradientFreerider::new(degree(config), margin, step))
                })
            })
        },
    },
    Component {
        name: "whitewasher",
        params: &[
            ParamSpec::float("margin", 0.5),
            ParamSpec::float("offline_secs", 2.0),
        ],
        build: |name, params| {
            let margin = params.float_where(name, "margin", |x| x >= 0.0, "is negative")?;
            let offline = positive_secs(name, params, "offline_secs")?;
            Ok(AdversarySpawner {
                closed_loop: true,
                ..spawner(name, 1, move |config, _| {
                    Box::new(Whitewasher::new(degree(config), margin, offline))
                })
            })
        },
    },
    Component {
        name: "adaptive-colluders",
        params: &[
            ParamSpec::float("partner_bias", 0.6),
            ParamSpec::int("cooldown_periods", 6),
        ],
        build: |name, params| {
            let partner_bias = params.fraction(name, "partner_bias")?;
            let cooldown = params.positive_int(name, "cooldown_periods")? as u64;
            Ok(AdversarySpawner {
                closed_loop: true,
                ..spawner(name, 2, move |config, coalition| {
                    let coalition = coalition.clone();
                    Box::new(AdaptiveColluder::new(
                        degree(config),
                        coalition,
                        partner_bias,
                        cooldown,
                    ))
                })
            })
        },
    },
];

/// The registry of adversary components: `baseline`, `on-off`, `blame-spam`,
/// `selective-freerider`, `gradient-freerider`, `whitewasher`,
/// `adaptive-colluders`.
pub fn adversary_components() -> &'static ComponentRegistry<AdversarySpawner> {
    static REGISTRY: ComponentRegistry<AdversarySpawner> =
        ComponentRegistry::new("adversary", &ADVERSARIES);
    &REGISTRY
}

// ---------------------------------------------------------------------------
// Outcome exporters.
// ---------------------------------------------------------------------------

/// Renders a finished run's [`RunOutcome`] for a consumer: full JSON, a
/// one-line summary, or a content digest.
pub trait OutcomeExporter: Send + Sync {
    /// Renders the outcome of `scenario` as a string (the binaries decide
    /// where it goes: stdout, a file, a report).
    fn export(&self, scenario: &str, eta: f64, outcome: &RunOutcome) -> String;
}

struct JsonExporter;

impl OutcomeExporter for JsonExporter {
    fn export(&self, _scenario: &str, _eta: f64, outcome: &RunOutcome) -> String {
        serde_json::to_string_pretty(outcome).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

struct SummaryLineExporter;

impl OutcomeExporter for SummaryLineExporter {
    fn export(&self, scenario: &str, eta: f64, outcome: &RunOutcome) -> String {
        format!(
            "{scenario}: detection {:.1}% fp {:.2}% expelled {} health {:.3} chunks {} msgs {}",
            outcome.detection_rate(eta) * 100.0,
            outcome.false_positive_rate(eta) * 100.0,
            outcome.expelled_count,
            outcome
                .stream_health
                .fraction_clear
                .iter()
                .copied()
                .sum::<f64>()
                / outcome.stream_health.fraction_clear.len().max(1) as f64,
            outcome.emitted_chunks.len(),
            outcome.traffic.total_messages_sent,
        )
    }
}

struct DigestExporter;

impl OutcomeExporter for DigestExporter {
    fn export(&self, scenario: &str, _eta: f64, outcome: &RunOutcome) -> String {
        // Column 1 is behaviour: FNV-1a over the canonical JSON rendering
        // with the memory metric zeroed (the golden-digest tests pin the same
        // idea over the raw fields). Column 2 is memory: the one field a
        // layout change of per-node state moves.
        let behaviour = RunOutcome {
            memory_per_node_bytes: 0.0,
            ..outcome.clone()
        };
        let rendered = serde_json::to_string(&behaviour).unwrap_or_default();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in rendered.as_bytes() {
            hash ^= *byte as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        let mem = outcome.memory_per_node_bytes;
        format!("{scenario}: 0x{hash:016x} mem={mem}")
    }
}

type Exporter = Box<dyn OutcomeExporter>;

/// The registry of outcome exporters: `json` (the full outcome, pretty
/// printed), `summary-line` (detection, false positives, expulsions, stream
/// health) and `digest` (a content hash, then `mem=<bytes/node>`).
pub fn exporter_components() -> &'static ComponentRegistry<Exporter> {
    static REGISTRY: ComponentRegistry<Exporter> = ComponentRegistry::new(
        "exporter",
        &[
            Component {
                name: "json",
                params: &[],
                build: |_, _| Ok(Box::new(JsonExporter)),
            },
            Component {
                name: "summary-line",
                params: &[],
                build: |_, _| Ok(Box::new(SummaryLineExporter)),
            },
            Component {
                name: "digest",
                params: &[],
                build: |_, _| Ok(Box::new(DigestExporter)),
            },
        ],
    );
    &REGISTRY
}

// ---------------------------------------------------------------------------
// Resolution.
// ---------------------------------------------------------------------------

/// The live providers a scenario's `components` section resolves to — what
/// [`crate::builder::build_world`] consumes.
pub struct ResolvedComponents {
    /// The capability-class assigner (`uniform` when undeclared).
    pub capability: Box<dyn CapabilityClassAssigner>,
    /// The workload generator, when one is declared.
    pub workload: Option<Box<dyn WorkloadGenerator>>,
    /// The adversary family (`baseline` when undeclared), already checked
    /// against the scenario's other fields.
    pub adversary: AdversarySpawner,
}

/// Resolves the config's declarative `components` section into live
/// providers: every declared component is looked up, schema-validated,
/// range-checked and built exactly once. Returns a structured error naming
/// the offending component or key; no registry path panics.
pub fn resolve_components(config: &ScenarioConfig) -> Result<ResolvedComponents, ComponentError> {
    fn build<P>(
        registry: &ComponentRegistry<P>,
        spec: &ComponentSpec,
        seeds: &mut SeedSplitter,
    ) -> Result<P, ComponentError> {
        registry.build(&spec.name, &spec.params, seeds)
    }
    let seeds = &mut SeedSplitter::new(config.seed);
    let declared = &config.components;
    let uniform = ComponentSpec::new("uniform");
    let baseline = ComponentSpec::new("baseline");
    let resolved = ResolvedComponents {
        capability: build(
            capability_components(),
            declared.capability.as_ref().unwrap_or(&uniform),
            seeds,
        )?,
        workload: declared
            .workload
            .as_ref()
            .map(|spec| build(workload_components(), spec, seeds))
            .transpose()?,
        adversary: build(
            adversary_components(),
            declared.adversary.as_ref().unwrap_or(&baseline),
            seeds,
        )?,
    };
    resolved.adversary.check(config)?;
    Ok(resolved)
}

/// The scenario's composition across every component axis, as
/// `run_scenario --list` prints it: declared specs verbatim, an undeclared
/// capability, workload or adversary by its default component's name, and
/// the loss of its `NetworkConfig`.
pub fn component_summary(config: &ScenarioConfig) -> Vec<(&'static str, String)> {
    let spec_of = |spec: &ComponentSpec| {
        if spec.params.is_empty() {
            spec.name.clone()
        } else {
            format!("{}{{{}}}", spec.name, spec.params.render())
        }
    };
    let declared = &config.components;
    let or_default = |spec: &Option<ComponentSpec>, default: &str| {
        spec.as_ref().map_or(default.to_string(), spec_of)
    };
    let loss = match config.network.loss {
        LossModel::None => "none".to_string(),
        LossModel::Bernoulli { pl } => format!("bernoulli{{pl={pl}}}"),
        LossModel::GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
        } => format!(
            "gilbert-elliott{{p_gb={p_gb},p_bg={p_bg},loss_good={loss_good},loss_bad={loss_bad}}}"
        ),
    };
    let adversary = if config.freerider_count() == 0 {
        "none".to_string()
    } else {
        or_default(&declared.adversary, "baseline")
    };
    vec![
        ("loss", loss),
        ("capability", or_default(&declared.capability, "uniform")),
        ("workload", or_default(&declared.workload, "static")),
        ("adversary", adversary),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::ParamValue;

    #[test]
    fn adversary_components_cover_every_family() {
        // What each family spawns and declares is pinned by
        // `tests/component_registry.rs`; this is the list itself.
        assert_eq!(
            adversary_components().names().collect::<Vec<_>>(),
            vec![
                "baseline",
                "on-off",
                "blame-spam",
                "selective-freerider",
                "gradient-freerider",
                "whitewasher",
                "adaptive-colluders",
            ]
        );
    }

    #[test]
    fn bad_adversary_params_are_structured_errors() {
        let registry = adversary_components();
        let mut seeds = SeedSplitter::new(1);
        for (family, key, value) in [
            ("gradient-freerider", "step", ParamValue::Float(0.0)),
            ("gradient-freerider", "margin", ParamValue::Float(-1.0)),
            ("selective-freerider", "silent_mask", ParamValue::Int(0)),
            ("on-off", "off_periods", ParamValue::Int(0)),
            ("blame-spam", "blame_value", ParamValue::Float(-0.5)),
            ("whitewasher", "offline_secs", ParamValue::Float(0.0)),
            ("adaptive-colluders", "partner_bias", ParamValue::Float(1.5)),
            ("baseline", "partner_bias", ParamValue::Float(1.5)),
        ] {
            let params = ParamMap::new().with(key, value);
            let err = registry
                .build(family, &params, &mut seeds)
                .err()
                .unwrap_or_else(|| panic!("{family}: bad `{key}` must not build"));
            assert!(
                matches!(&err, ComponentError::InvalidParam { component, key: k, .. }
                    if component == family && k == key),
                "{err}"
            );
        }
    }

    #[test]
    fn workload_components_build_their_generators() {
        let registry = workload_components();
        let mut seeds = SeedSplitter::new(1);
        for name in [
            "diurnal",
            "regional-failure",
            "zap",
            "churn",
            "partition-waves",
        ] {
            assert!(registry.build(name, &ParamMap::new(), &mut seeds).is_ok());
        }
        let params = ParamMap::new().with("cycle_secs", ParamValue::Float(-1.0));
        assert!(registry.build("diurnal", &params, &mut seeds).is_err());
    }

    #[test]
    fn resolution_rejects_unknown_components_cleanly() {
        let mut config = ScenarioConfig::small_test(10, 3);
        config.components.workload = Some(ComponentSpec::new("tidal"));
        let err = resolve_components(&config).err().expect("must not resolve");
        assert!(matches!(err, ComponentError::UnknownComponent { .. }));
        assert!(err.to_string().contains("tidal"), "{err}");
    }

    #[test]
    fn summary_covers_every_axis() {
        let mut config = ScenarioConfig::planetlab_baseline(1).with_planetlab_freeriders(0.1);
        config.components.capability =
            Some(ComponentSpec::new("tiered").with("fiber", ParamValue::Float(0.2)));
        let summary: Vec<String> = component_summary(&config)
            .into_iter()
            .map(|(axis, value)| format!("{axis}={value}"))
            .collect();
        assert_eq!(
            summary,
            vec![
                "loss=bernoulli{pl=0.04}",
                "capability=tiered{fiber=0.2}",
                "workload=static",
                "adversary=baseline",
            ]
        );
        config.freeriders = None;
        assert_eq!(component_summary(&config)[3].1, "none");
    }
}

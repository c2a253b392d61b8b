//! Runtime-level component registries: workload generators, adversaries and
//! outcome exporters, plus the one function that turns a [`ScenarioConfig`]'s
//! declarative `components` section into live providers.
//!
//! Together with the capability registry of [`lifting_net::provider`],
//! these registries make scenario construction compositional: a scenario
//! picks named components and parameter maps, and every axis is extended by
//! registering a new component — no builder surgery. The rule is **one axis, one encoding**:
//! adding an adversary family is one entry in [`adversary_components`]
//! (schema, range checks, cross-field rule and the constructor of the
//! [`Adversary`] itself), and nothing else in the crate names the family —
//! the paper's collusion included, which is parameters of `baseline`.
//! Likewise every disturbance — steady churn and its waves, partition waves,
//! the trace-driven audiences — is one entry in [`workload_components`].
//!
//! [`resolve_components`] runs once per world, in
//! [`crate::builder::build_world`]; everything a component resolves to is
//! derived from the scenario's fixed RNG streams, so the same declaration
//! always yields the same run.

use std::sync::{Arc, OnceLock};

use lifting_gossip::FreeriderConfig;
use lifting_membership::{
    Churn, DiurnalCycle, PartitionWaves, RegionalFailureWaves, Wave, WorkloadGenerator,
    ZapSwitching,
};
use lifting_net::provider::{capability_components, CapabilityClassAssigner};
use lifting_net::LossModel;
use lifting_sim::{
    Component, ComponentError, ComponentRegistry, NodeId, ParamKind, ParamMap, ParamSpec,
    ParamValue, ParamsSchema, SeedSplitter, SimDuration,
};

use crate::layers::{
    AdaptiveColluder, Adversary, BlameSpammer, Colluder, Freerider, GradientFreerider, Honest,
    OnOffFreerider, SelectiveFreerider, Whitewasher,
};
use crate::metrics::RunOutcome;
use crate::scenario::{ComponentSpec, ScenarioConfig};

/// An optional float parameter of a schema.
fn float(key: &'static str, default: f64, doc: &'static str) -> ParamSpec {
    ParamSpec::optional(key, ParamKind::Float, ParamValue::Float(default), doc)
}

/// An optional integer parameter of a schema.
fn int(key: &'static str, default: i64, doc: &'static str) -> ParamSpec {
    ParamSpec::optional(key, ParamKind::Int, ParamValue::Int(default), doc)
}

/// An optional boolean parameter of a schema, off by default.
fn flag(key: &'static str, doc: &'static str) -> ParamSpec {
    ParamSpec::optional(key, ParamKind::Bool, ParamValue::Bool(false), doc)
}

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

/// A component described by one table row: its name, description, schema
/// and the constructor that range-checks its parameters.
struct Row<P> {
    name: &'static str,
    description: &'static str,
    schema: fn() -> Vec<ParamSpec>,
    build: fn(name: &'static str, &ParamMap) -> Result<P, ComponentError>,
}

impl<P> Component<P> for Row<P> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn params_schema(&self) -> ParamsSchema {
        ParamsSchema::of((self.schema)())
    }
    fn build(&self, params: &ParamMap, _: &mut SeedSplitter) -> Result<P, ComponentError> {
        (self.build)(self.name, params)
    }
}

/// The registry of `kind` holding `rows`, in order.
fn registry_of<P, C: Component<P> + 'static>(
    kind: &'static str,
    rows: impl IntoIterator<Item = C>,
) -> ComponentRegistry<P> {
    let mut registry = ComponentRegistry::new(kind);
    for row in rows {
        registry.register(Box::new(row)).expect("unique component");
    }
    registry
}

// ---------------------------------------------------------------------------
// Workload components: every disturbance of a run.
// ---------------------------------------------------------------------------

type Generator = Box<dyn WorkloadGenerator>;

/// Every disturbance generator. Adding one is one entry here: schema, range
/// checks and constructor (the expansion lives in `lifting_membership`).
fn workload_generators() -> [Row<Generator>; 5] {
    [
        Row {
            name: "diurnal",
            description:
                "Diurnal audience cycles: a fraction of the viewers departs and returns each cycle",
            schema: || {
                vec![
                    float(
                        "participation",
                        0.6,
                        "fraction of the viewers subject to the cycle",
                    ),
                    float("cycle_secs", 12.0, "length of one audience cycle, seconds"),
                    float(
                        "offline_fraction",
                        0.35,
                        "fraction of each cycle a participating viewer spends offline",
                    ),
                    float(
                        "warmup_secs",
                        4.0,
                        "quiet start before the first departure, seconds",
                    ),
                ]
            },
            build: |name, params| {
                Ok(Box::new(DiurnalCycle {
                    participation: params.fraction(name, "participation")?,
                    cycle: positive_secs(name, params, "cycle_secs")?,
                    offline_fraction: params.fraction(name, "offline_fraction")?,
                    warmup: positive_secs(name, params, "warmup_secs")?,
                }))
            },
        },
        Row {
            name: "regional-failure",
            description:
                "Correlated regional failures: whole geographic regions crash together and return",
            schema: || {
                vec![
                    int(
                        "regions",
                        4,
                        "number of equal-size regions the viewers are split into",
                    ),
                    int("waves", 2, "number of failure waves over the run"),
                    float(
                        "outage_secs",
                        4.0,
                        "how long each failed region stays dark, seconds",
                    ),
                    float(
                        "warmup_secs",
                        5.0,
                        "quiet start before the first wave may hit, seconds",
                    ),
                ]
            },
            build: |name, params| {
                Ok(Box::new(RegionalFailureWaves {
                    regions: params.positive_int(name, "regions")? as usize,
                    waves: params.positive_int(name, "waves")? as usize,
                    outage: positive_secs(name, params, "outage_secs")?,
                    warmup: positive_secs(name, params, "warmup_secs")?,
                }))
            },
        },
        Row {
            name: "zap",
            description:
                "Zap-style channel switching: viewers hop between channels with exponential dwells",
            schema: || {
                vec![
                    float(
                        "zappers",
                        0.4,
                        "fraction of the viewers that zap between channels",
                    ),
                    float(
                        "mean_dwell_secs",
                        6.0,
                        "mean time a zapper stays on one channel, seconds",
                    ),
                    float(
                        "warmup_secs",
                        3.0,
                        "quiet start before the first switch, seconds",
                    ),
                ]
            },
            build: |name, params| {
                Ok(Box::new(ZapSwitching {
                    zappers: params.fraction(name, "zappers")?,
                    mean_dwell: positive_secs(name, params, "mean_dwell_secs")?,
                    warmup: positive_secs(name, params, "warmup_secs")?,
                }))
            },
        },
        Row {
            name: "churn",
            description: "Steady churn: a fraction of the viewers cycles exponential sessions and \
                          offline spells; optional catastrophe (crash for good) and flash-crowd \
                          (start offline, join at once) waves",
            schema: || {
                let wave = "fraction of the viewers in the wave, at most 0.9 (0 = no wave)";
                vec![
                    float("fraction", 0.25, "fraction of the viewers that cycle"),
                    float("mean_session_secs", 12.0, "mean online session, seconds"),
                    float("mean_offline_secs", 3.0, "mean offline spell, seconds"),
                    float("warmup_secs", 3.0, "no session ends before this, seconds"),
                    float(
                        "catastrophe_at_secs",
                        10.0,
                        "instant of the catastrophe, seconds",
                    ),
                    float("catastrophe_fraction", 0.0, wave),
                    float(
                        "flash_crowd_at_secs",
                        10.0,
                        "instant of the flash crowd, seconds",
                    ),
                    float("flash_crowd_fraction", 0.0, wave),
                ]
            },
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
        Row {
            name: "partition-waves",
            description: "Partition waves: evenly spaced waves cut a fraction of the viewers off \
                          the network (both transports) for an outage, then heal",
            schema: || {
                vec![
                    int(
                        "waves",
                        2,
                        "number of waves (at most 255), the k-th at k/(waves+1) of the run",
                    ),
                    float("outage_secs", 4.0, "how long each partition lasts, seconds"),
                    float(
                        "fraction",
                        0.25,
                        "fraction of the viewers each wave cuts, at most 0.9",
                    ),
                ]
            },
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
    ]
}

/// The registry of workload-generator components: `diurnal`,
/// `regional-failure`, `zap`, `churn`, `partition-waves`.
pub fn workload_components() -> &'static ComponentRegistry<Generator> {
    static REGISTRY: OnceLock<ComponentRegistry<Generator>> = OnceLock::new();
    REGISTRY.get_or_init(|| registry_of("workload", workload_generators()))
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

/// The dissemination-level degree the population freerides with (families
/// are only spawned for freeriders, so the population is configured).
fn degree(config: &ScenarioConfig) -> FreeriderConfig {
    config
        .freeriders
        .expect("adversaries are spawned for freeriders only")
        .degree
}

type Family = (SpawnFn, Option<CheckFn>);

/// A family with no cross-field rule of its own.
fn spawns(
    spawn: impl Fn(&ScenarioConfig, &Arc<Vec<NodeId>>) -> Box<dyn Adversary> + Send + Sync + 'static,
) -> Result<Family, ComponentError> {
    Ok((Box::new(spawn), None))
}

/// One adversary family: the single place the family is described.
struct AdversaryComponent {
    name: &'static str,
    description: &'static str,
    closed_loop: bool,
    /// 0 for `baseline` (composes with an empty population); otherwise the
    /// family replaces the freeriders' behaviour and needs at least this many
    /// of them.
    min_freeriders: usize,
    schema: fn() -> Vec<ParamSpec>,
    /// Range-checks the parameters of the family called `name` and returns
    /// its constructor, plus its own cross-field rule if it has one.
    build: fn(name: &'static str, &ParamMap) -> Result<Family, ComponentError>,
}

impl Component<AdversarySpawner> for AdversaryComponent {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn params_schema(&self) -> ParamsSchema {
        ParamsSchema::of((self.schema)())
    }
    fn build(
        &self,
        params: &ParamMap,
        _: &mut SeedSplitter,
    ) -> Result<AdversarySpawner, ComponentError> {
        let (spawn, check) = (self.build)(self.name, params)?;
        Ok(AdversarySpawner {
            family: self.name,
            closed_loop: self.closed_loop,
            min_freeriders: self.min_freeriders,
            check,
            spawn,
        })
    }
}

/// Every family the freerider population can play. Adding one is one entry
/// here: schema, range checks, cross-field rule and constructor.
fn adversary_families() -> [AdversaryComponent; 7] {
    [
        AdversaryComponent {
            name: "baseline",
            description: "The paper's adversary: freeriders, independent unless told to collude \
                          (Section 5.2, Figure 8)",
            closed_loop: false,
            min_freeriders: 0,
            schema: || {
                let bias = "probability of picking a coalition member as partner (pm)";
                vec![
                    float("partner_bias", 0.0, bias),
                    flag("cover_up", "vouch for accomplices, never blame them"),
                    flag("man_in_the_middle", "mount the attack of Figure 8b"),
                ]
            },
            build: |name, params| {
                let partner_bias = params.fraction(name, "partner_bias")?;
                let cover_up = params.bool("cover_up");
                let man_in_the_middle = params.bool("man_in_the_middle");
                let colludes = partner_bias > 0.0 || cover_up || man_in_the_middle;
                spawns(move |config, coalition| {
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
                })
            },
        },
        AdversaryComponent {
            name: "on-off",
            description: "Freeride for `on_periods`, behave for `off_periods`: dilutes the blame \
                          through the 1/r normalization of Equation 6",
            closed_loop: false,
            min_freeriders: 1,
            schema: || {
                vec![
                    int(
                        "on_periods",
                        2,
                        "length of each freeriding window, gossip periods",
                    ),
                    int(
                        "off_periods",
                        2,
                        "length of each honest window, gossip periods",
                    ),
                ]
            },
            build: |name, params| {
                let on_periods = params.positive_int(name, "on_periods")? as u64;
                let off_periods = params.positive_int(name, "off_periods")? as u64;
                spawns(move |config, _| {
                    Box::new(OnOffFreerider {
                        degree: degree(config),
                        on_periods,
                        off_periods,
                    })
                })
            },
        },
        AdversaryComponent {
            name: "blame-spam",
            description: "Disseminate honestly but flood the managers with fabricated blames",
            closed_loop: false,
            min_freeriders: 1,
            schema: || {
                vec![
                    int(
                        "blames_per_period",
                        5,
                        "fabricated blames per gossip tick per spammer",
                    ),
                    float(
                        "blame_value",
                        5.0,
                        "value of each fabricated blame (non-negative)",
                    ),
                ]
            },
            build: |name, params| {
                let blames_per_period = params.positive_int(name, "blames_per_period")? as u32;
                let blame_value =
                    params.float_where(name, "blame_value", |x| x >= 0.0, "is negative")?;
                spawns(move |_, _| {
                    Box::new(BlameSpammer {
                        blames_per_period,
                        blame_value,
                    })
                })
            },
        },
        AdversaryComponent {
            name: "selective-freerider",
            description: "Honest on some channels, fully silent (proposes to nobody, serves \
                          nothing) on the masked ones: probes whether reputation is per-channel",
            closed_loop: false,
            min_freeriders: 1,
            schema: || {
                let doc = "bitmask of silenced streams (bit s = stream s, nonzero)";
                vec![int("silent_mask", 0b10, doc)]
            },
            build: |name, params| {
                let mask =
                    params.int_where(name, "silent_mask", |m| m != 0, "silences no stream")? as u64;
                let reject =
                    move |reason: String| ComponentError::invalid(name, "silent_mask", reason);
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
                let spawn = move |_: &ScenarioConfig, _: &Arc<Vec<NodeId>>| {
                    Box::new(SelectiveFreerider { silent_mask: mask }) as Box<dyn Adversary>
                };
                Ok((Box::new(spawn), Some(Box::new(check))))
            },
        },
        AdversaryComponent {
            name: "gradient-freerider",
            description: "Closed loop: read the own manager scores each period and throttle the \
                          freeriding to ride just above the public η (countered by the online \
                          recalibration)",
            closed_loop: true,
            min_freeriders: 1,
            schema: || {
                vec![
                    float("margin", 2.0, "safety margin above η the adversary keeps"),
                    float(
                        "step",
                        0.25,
                        "intensity decrement when the score nears η, in (0, 1]",
                    ),
                ]
            },
            build: |name, params| {
                let margin = params.float_where(name, "margin", |x| x >= 0.0, "is negative")?;
                let in_unit = |x| x > 0.0 && x <= 1.0;
                let step = params.float_where(name, "step", in_unit, "is not in (0, 1]")?;
                spawns(move |config, _| {
                    Box::new(GradientFreerider::new(degree(config), margin, step))
                })
            },
        },
        AdversaryComponent {
            name: "whitewasher",
            description: "Closed loop: freeride greedily, depart once blame drags the score \
                          `margin` below its observed peak, rejoin hoping for a clean slate \
                          (countered by the frozen-score carryover)",
            closed_loop: true,
            min_freeriders: 1,
            schema: || {
                vec![
                    float(
                        "margin",
                        0.5,
                        "drawdown below the observed peak that triggers departure",
                    ),
                    float(
                        "offline_secs",
                        2.0,
                        "offline time before each rejoin, seconds",
                    ),
                ]
            },
            build: |name, params| {
                let margin = params.float_where(name, "margin", |x| x >= 0.0, "is negative")?;
                let offline = positive_secs(name, params, "offline_secs")?;
                spawns(move |config, _| Box::new(Whitewasher::new(degree(config), margin, offline)))
            },
        },
        AdversaryComponent {
            name: "adaptive-colluders",
            description: "Closed loop: a cover-up coalition that re-aims its partner bias away \
                          from recently audited accomplices, dodging the entropy check",
            closed_loop: true,
            min_freeriders: 2,
            schema: || {
                let bias = "probability of picking an unscrutinized accomplice as partner";
                let cooldown = "periods an audited accomplice stays off the bias list";
                vec![
                    float("partner_bias", 0.6, bias),
                    int("cooldown_periods", 6, cooldown),
                ]
            },
            build: |name, params| {
                let partner_bias = params.fraction(name, "partner_bias")?;
                let cooldown = params.positive_int(name, "cooldown_periods")? as u64;
                spawns(move |config, coalition| {
                    let coalition = coalition.clone();
                    Box::new(AdaptiveColluder::new(
                        degree(config),
                        coalition,
                        partner_bias,
                        cooldown,
                    ))
                })
            },
        },
    ]
}

/// The registry of adversary components: `baseline`, `on-off`, `blame-spam`,
/// `selective-freerider`, `gradient-freerider`, `whitewasher`,
/// `adaptive-colluders`.
pub fn adversary_components() -> &'static ComponentRegistry<AdversarySpawner> {
    static REGISTRY: OnceLock<ComponentRegistry<AdversarySpawner>> = OnceLock::new();
    REGISTRY.get_or_init(|| registry_of("adversary", adversary_families()))
}

// ---------------------------------------------------------------------------
// Outcome exporters.
// ---------------------------------------------------------------------------

/// Renders a finished run's [`RunOutcome`] for a consumer: full JSON, a
/// one-line summary, or a content digest.
pub trait OutcomeExporter: Send + Sync {
    /// The registered name.
    fn name(&self) -> &'static str;
    /// Renders the outcome of `scenario` as a string (the binaries decide
    /// where it goes: stdout, a file, a report).
    fn export(&self, scenario: &str, eta: f64, outcome: &RunOutcome) -> String;
}

struct JsonExporter;

impl OutcomeExporter for JsonExporter {
    fn name(&self) -> &'static str {
        "json"
    }
    fn export(&self, _scenario: &str, _eta: f64, outcome: &RunOutcome) -> String {
        serde_json::to_string_pretty(outcome).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

struct SummaryLineExporter;

impl OutcomeExporter for SummaryLineExporter {
    fn name(&self) -> &'static str {
        "summary-line"
    }
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
    fn name(&self) -> &'static str {
        "digest"
    }
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

/// The registry of outcome exporters: `json`, `summary-line`, `digest`.
pub fn exporter_components() -> &'static ComponentRegistry<Box<dyn OutcomeExporter>> {
    static REGISTRY: OnceLock<ComponentRegistry<Box<dyn OutcomeExporter>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let rows: [Row<Box<dyn OutcomeExporter>>; 3] = [
            Row {
                name: "json",
                description: "Full RunOutcome as pretty-printed JSON",
                schema: Vec::new,
                build: |_, _| Ok(Box::new(JsonExporter)),
            },
            Row {
                name: "summary-line",
                description: "One line: detection, false positives, expulsions, stream health",
                schema: Vec::new,
                build: |_, _| Ok(Box::new(SummaryLineExporter)),
            },
            Row {
                name: "digest",
                description: "FNV-1a content hash of the outcome, then mem=<bytes/node> \
                                  (regression pinning)",
                schema: Vec::new,
                build: |_, _| Ok(Box::new(DigestExporter)),
            },
        ];
        registry_of("exporter", rows)
    })
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
            let generator = registry.build(name, &ParamMap::new(), &mut seeds).unwrap();
            assert_eq!(generator.name(), name);
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

//! The scenario registry: one named builder per experiment configuration.
//!
//! Every figure and table of the paper used to hand-roll its own
//! `ScenarioConfig` block inside the bench binaries; the registry is the
//! single source of truth instead. A scenario is a *named builder*
//! `(Scale, seed) -> ScenarioConfig`, so callers (the experiment functions
//! of `lifting-bench`, the CLIs, tests) ask for `"fig01/no-freeriders"`
//! rather than re-assembling the configuration.

use std::sync::OnceLock;

use lifting_gossip::FreeriderConfig;
use lifting_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::scenario::{ComponentSpec, ScenarioConfig, StreamAudience, StreamSpec};
use lifting_sim::ParamValue;

/// The family prefix of a scenario name: the part before the first `/`
/// (`"fig01"`, `"churn"`, `"workload"`, …). Scenario names are
/// `family/variant` by convention; a name without a slash is its own family.
pub fn scenario_family(name: &str) -> &str {
    name.split('/').next().unwrap_or(name)
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// The paper's population sizes and durations.
    Paper,
    /// A reduced scale for smoke runs, tests and CI.
    Quick,
}

impl Scale {
    /// Picks the paper-scale or quick-scale value.
    pub fn pick(self, paper: usize, quick: usize) -> usize {
        match self {
            Scale::Paper => paper,
            Scale::Quick => quick,
        }
    }

    /// Picks the paper-scale or quick-scale duration, in seconds.
    pub fn secs(self, paper: u64, quick: u64) -> SimDuration {
        SimDuration::from_secs(match self {
            Scale::Paper => paper,
            Scale::Quick => quick,
        })
    }
}

/// The pdcc sweep of Table 3 (analytical vs measured verification messages).
pub const TABLE03_PDCCS: [f64; 4] = [0.0, 1.0 / 7.0, 0.5, 1.0];
/// The stream rates of Table 5, in kbps.
pub const TABLE05_STREAM_KBPS: [u64; 3] = [674, 1082, 2036];
/// The pdcc values of Table 5.
pub const TABLE05_PDCCS: [f64; 3] = [0.0, 0.5, 1.0];
/// The pdcc values of Figure 14.
pub const FIG14_PDCCS: [f64; 2] = [1.0, 0.5];

/// The registered name of the Table 3 scenario for `pdcc`.
pub fn table03_scenario_name(pdcc: f64) -> String {
    format!("table03/pdcc-{pdcc:.3}")
}

/// The registered name of the Table 5 scenario for `(stream_kbps, pdcc)`.
pub fn table05_scenario_name(stream_kbps: u64, pdcc: f64) -> String {
    format!("table05/{stream_kbps}kbps-pdcc-{pdcc}")
}

/// The registered name of the Figure 14 scenario for `pdcc`.
pub fn fig14_scenario_name(pdcc: f64) -> String {
    format!("fig14/planetlab-pdcc-{pdcc}")
}

type BuilderFn = Box<dyn Fn(Scale, u64) -> ScenarioConfig + Send + Sync>;

struct ScenarioEntry {
    name: String,
    description: String,
    builder: BuilderFn,
}

/// Name → scenario builder map.
///
/// [`ScenarioRegistry::builtin`] returns the registry of every scenario the
/// experiment suite uses; [`ScenarioRegistry::register`] adds custom ones.
#[derive(Default)]
pub struct ScenarioRegistry {
    entries: Vec<ScenarioEntry>,
}

impl ScenarioRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// Registers a scenario builder under `name` (replacing any previous
    /// entry with the same name).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
        builder: impl Fn(Scale, u64) -> ScenarioConfig + Send + Sync + 'static,
    ) {
        let name = name.into();
        self.entries.retain(|e| e.name != name);
        self.entries.push(ScenarioEntry {
            name,
            description: description.into(),
            builder: Box::new(builder),
        });
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// The registered scenario names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// The registry grouped by family prefix (see [`scenario_family`]), in
    /// first-appearance order — what `run_scenario --list` prints.
    pub fn families(&self) -> Vec<(&str, Vec<&str>)> {
        let mut grouped: Vec<(&str, Vec<&str>)> = Vec::new();
        for entry in &self.entries {
            let family = scenario_family(&entry.name);
            match grouped.iter_mut().find(|(f, _)| *f == family) {
                Some((_, members)) => members.push(entry.name.as_str()),
                None => grouped.push((family, vec![entry.name.as_str()])),
            }
        }
        grouped
    }

    /// The description of one scenario, if registered.
    pub fn description(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.description.as_str())
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds the scenario registered under `name`, if any.
    pub fn try_build(&self, name: &str, scale: Scale, seed: u64) -> Option<ScenarioConfig> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| (e.builder)(scale, seed))
    }

    /// Builds the scenario registered under `name`.
    ///
    /// # Panics
    ///
    /// Panics (listing the known names) if `name` is not registered.
    pub fn build(&self, name: &str, scale: Scale, seed: u64) -> ScenarioConfig {
        self.try_build(name, scale, seed).unwrap_or_else(|| {
            panic!(
                "unknown scenario {name:?}; registered scenarios: {:?}",
                self.names()
            )
        })
    }

    /// The shared registry of every built-in scenario (figures, tables, the
    /// headline run and the adversary showcases).
    pub fn builtin() -> &'static ScenarioRegistry {
        static BUILTIN: OnceLock<ScenarioRegistry> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            let mut registry = ScenarioRegistry::new();
            register_builtin(&mut registry);
            registry
        })
    }
}

impl std::fmt::Debug for ScenarioRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRegistry")
            .field("scenarios", &self.names())
            .finish()
    }
}

/// Shrinks a paper-scale PlanetLab configuration the way every experiment
/// does when run below 300 nodes: fewer managers, lighter stream.
fn shrink_below_planetlab(config: &mut ScenarioConfig) {
    if config.nodes < 300 {
        config.lifting.managers = 10;
        config.streams[0].rate_bps = 400_000;
    }
}

/// The shape every beyond-the-paper family shares: the PlanetLab baseline at
/// 300 (quick: 80) nodes, shrunk below paper scale, with `freeriders` of the
/// population freeriding (0 = none) for `paper_secs` (quick: `quick_secs`).
fn planetlab_family(
    paper_secs: u64,
    quick_secs: u64,
    freeriders: f64,
) -> impl Fn(Scale, u64) -> ScenarioConfig + Send + Sync + Copy {
    move |scale: Scale, seed: u64| {
        let mut config = ScenarioConfig::planetlab_baseline(seed);
        config.nodes = scale.pick(300, 80);
        shrink_below_planetlab(&mut config);
        if freeriders > 0.0 {
            config = config.with_planetlab_freeriders(freeriders);
        }
        config.duration = scale.secs(paper_secs, quick_secs);
        config
    }
}

fn register_builtin(registry: &mut ScenarioRegistry) {
    // ------------------------------------------------------------------
    // Figure 1 — stream health with/without freeriders and LiFTinG.
    // ------------------------------------------------------------------
    let fig01 = |freeriders: bool, lifting: bool| {
        move |scale: Scale, seed: u64| {
            let mut config = ScenarioConfig::planetlab_baseline(seed);
            config.nodes = scale.pick(300, 80);
            config.duration = scale.secs(40, 20);
            config.lifting_enabled = lifting;
            shrink_below_planetlab(&mut config);
            if freeriders {
                config = config.with_planetlab_freeriders(0.25);
                if let Some(f) = &mut config.freeriders {
                    // "Wise" freeriders of the introduction: they shave ~45 %
                    // of their upload duty, enough to visibly hurt the stream.
                    f.degree = FreeriderConfig {
                        delta1: 2.0 / 7.0,
                        delta2: 0.15,
                        delta3: 0.15,
                        period_stretch: 1,
                    };
                }
            }
            config
        }
    };
    registry.register(
        "fig01/no-freeriders",
        "Figure 1 baseline: fully honest population, LiFTinG on",
        fig01(false, true),
    );
    registry.register(
        "fig01/freeriders-no-lifting",
        "Figure 1: 25% wise freeriders, LiFTinG off",
        fig01(true, false),
    );
    registry.register(
        "fig01/freeriders-lifting",
        "Figure 1: 25% wise freeriders, LiFTinG expelling them",
        fig01(true, true),
    );

    // ------------------------------------------------------------------
    // Figure 14 — the PlanetLab deployment at pdcc = 1 and 0.5.
    // ------------------------------------------------------------------
    for pdcc in FIG14_PDCCS {
        registry.register(
            fig14_scenario_name(pdcc),
            format!("Figure 14: PlanetLab run with 10% freeriders, pdcc = {pdcc}"),
            move |scale: Scale, seed: u64| {
                let mut config =
                    ScenarioConfig::planetlab_baseline(seed).with_planetlab_freeriders(0.1);
                config.lifting.pdcc = pdcc;
                config.nodes = scale.pick(300, 100);
                shrink_below_planetlab(&mut config);
                config.duration = scale.secs(36, 36);
                config
            },
        );
    }

    // ------------------------------------------------------------------
    // Table 3 — verification message overhead per pdcc.
    // ------------------------------------------------------------------
    for pdcc in TABLE03_PDCCS {
        registry.register(
            table03_scenario_name(pdcc),
            format!("Table 3: honest run measuring verification messages at pdcc = {pdcc:.3}"),
            move |scale: Scale, seed: u64| {
                let mut config = ScenarioConfig::planetlab_baseline(seed);
                config.nodes = scale.pick(150, 60);
                config.lifting.managers = 10;
                config.lifting.pdcc = pdcc;
                config.duration = scale.secs(20, 10);
                config.streams[0].rate_bps = 400_000;
                config
            },
        );
    }

    // ------------------------------------------------------------------
    // Table 5 — practical overhead per stream rate and pdcc.
    // ------------------------------------------------------------------
    for stream_kbps in TABLE05_STREAM_KBPS {
        for pdcc in TABLE05_PDCCS {
            registry.register(
                table05_scenario_name(stream_kbps, pdcc),
                format!("Table 5: overhead at {stream_kbps} kbps, pdcc = {pdcc}"),
                move |scale: Scale, seed: u64| {
                    let mut config = ScenarioConfig::planetlab_baseline(seed);
                    config.nodes = scale.pick(150, 60);
                    config.lifting.managers = if config.nodes >= 300 { 25 } else { 10 };
                    config.lifting.pdcc = pdcc;
                    config.streams[0].rate_bps = stream_kbps * 1_000;
                    config.duration = scale.secs(20, 10);
                    config.default_upload_bps = Some(10_000_000);
                    config
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // The headline PlanetLab run (detection / false positives / overhead).
    // ------------------------------------------------------------------
    registry.register(
        "headline/planetlab",
        "The headline PlanetLab run: 10% freeriders, scores read after 30 s",
        |scale: Scale, seed: u64| {
            let mut config =
                ScenarioConfig::planetlab_baseline(seed).with_planetlab_freeriders(0.1);
            config.nodes = scale.pick(300, 100);
            shrink_below_planetlab(&mut config);
            config.duration = scale.secs(30, 20);
            config
        },
    );

    // ------------------------------------------------------------------
    // Adversary showcases: attacks the pre-refactor wiring could not express.
    // ------------------------------------------------------------------
    registry.register(
        "adversary/on-off-freeriders",
        "20% on-off freeriders (2 periods on, 2 off) dodging the score normalization",
        |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.2)(scale, seed);
            config.components.adversary = Some(
                ComponentSpec::new("on-off")
                    .with("on_periods", ParamValue::Int(2))
                    .with("off_periods", ParamValue::Int(2)),
            );
            config
        },
    );
    registry.register(
        "adversary/blame-spam",
        "10% blame spammers flooding the reputation plane with fabricated blames",
        |scale: Scale, seed: u64| {
            let mut config = planetlab_family(30, 15, 0.1)(scale, seed);
            config.components.adversary = Some(
                ComponentSpec::new("blame-spam")
                    .with("blames_per_period", ParamValue::Int(5))
                    .with("blame_value", ParamValue::Float(5.0)),
            );
            config
        },
    );

    // ------------------------------------------------------------------
    // Churn: dynamic membership under the PlanetLab deployment. The paper's
    // evaluation runs on PlanetLab, where nodes join, crash and rejoin
    // mid-stream; these scenarios exercise blame propagation, audit
    // timeouts and score-based expulsion under that dynamism.
    // ------------------------------------------------------------------
    // The `churn` workload component: `fraction` of the viewers cycle
    // `session`-mean sessions and `offline`-mean spells after `warmup`
    // seconds, or — with a fraction of 0 — only the declared waves happen.
    let steady = |fraction: f64, session: f64, offline: f64, warmup: f64| {
        ComponentSpec::new("churn")
            .with("fraction", ParamValue::Float(fraction))
            .with("mean_session_secs", ParamValue::Float(session))
            .with("mean_offline_secs", ParamValue::Float(offline))
            .with("warmup_secs", ParamValue::Float(warmup))
    };
    let wave = |wave: &str, at: SimDuration, fraction: f64| {
        ComponentSpec::new("churn")
            .with("fraction", ParamValue::Float(0.0))
            .with(
                &format!("{wave}_at_secs"),
                ParamValue::Float(at.as_secs_f64()),
            )
            .with(&format!("{wave}_fraction"), ParamValue::Float(fraction))
    };
    registry.register(
        "churn/steady-slow",
        "Steady churn, honest population: 25% of the nodes cycle 12s-mean sessions with 3s offline spells",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.0)(scale, seed);
            config.components.workload = Some(steady(0.25, 12.0, 3.0, 3.0));
            config
        },
    );
    registry.register(
        "churn/steady-fast",
        "Aggressive churn with 10% freeriders and audits on: 40% of the nodes cycle 5s-mean sessions with 2s offline spells",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.1)(scale, seed);
            config.components.workload = Some(steady(0.4, 5.0, 2.0, 2.0));
            // A-posteriori audits run here so the departed-witness timeout
            // path (audits aborted, not wedged into wrongful blame) is
            // exercised at system scale.
            config.audits_enabled = true;
            config.audit_interval = SimDuration::from_secs(4);
            config
        },
    );
    registry.register(
        "churn/catastrophe",
        "Catastrophic failure: 30% of the nodes (10% freeriders present) crash at mid-run and never return",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.1)(scale, seed);
            let mid_run = SimDuration::from_micros(config.duration.as_micros() / 2);
            config.components.workload = Some(wave("catastrophe", mid_run, 0.3));
            config
        },
    );
    registry.register(
        "churn/flash-crowd",
        "Flash crowd: 30% of the nodes start offline and all join a quarter into the stream",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.0)(scale, seed);
            let quarter = SimDuration::from_micros(config.duration.as_micros() / 4);
            config.components.workload = Some(wave("flash_crowd", quarter, 0.3));
            config
        },
    );
    registry.register(
        "churn/freeriders",
        "Churn x freeriders with audits on: 20% freeriders while 35% of the nodes cycle 8s-mean sessions",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.2)(scale, seed);
            config.components.workload = Some(steady(0.35, 8.0, 2.0, 2.0));
            config.audits_enabled = true;
            config.audit_interval = SimDuration::from_secs(5);
            config
        },
    );

    // ------------------------------------------------------------------
    // Multi-channel streaming: several concurrent broadcasts over one
    // membership and reputation plane. Data planes are per-stream, blames
    // aggregate across streams into one score per node — the setting where
    // manager-based accountability pays off (a freerider on channel B is
    // expelled from channel A too).
    // ------------------------------------------------------------------
    registry.register(
        "multistream/disjoint-audiences",
        "Two channels with disjoint audiences (first vs second half of the population) over one membership plane",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(30, 15, 0.0)(scale, seed);
            let primary = config.streams[0];
            config.streams[0] = primary.with_audience(StreamAudience::Slice { from: 0.0, to: 0.5 });
            config.streams.push(
                primary.with_audience(StreamAudience::Slice { from: 0.5, to: 1.0 }),
            );
            config
        },
    );
    registry.register(
        "multistream/overlapping-audiences",
        "Two full-audience channels with 10% freeriders shirking on both; their blames aggregate into one score",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(30, 15, 0.1)(scale, seed);
            let chunk = config.streams[0].chunk_size;
            config.streams.push(StreamSpec::new(300_000, chunk));
            config
        },
    );
    registry.register(
        "multistream/selective-freeriders",
        "15% selective freeriders: honest on channel 0, fully silent on channel 1 — cross-stream scoring expels them from both",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(30, 15, 0.15)(scale, seed);
            let chunk = config.streams[0].chunk_size;
            config.streams.push(StreamSpec::new(300_000, chunk));
            config.components.adversary = Some(
                ComponentSpec::new("selective-freerider")
                    .with("silent_mask", ParamValue::Int(0b10)),
            );
            config
        },
    );
    registry.register(
        "multistream/rate-asymmetry",
        "Three channels at 400/200/100 kbps; the slow ones start mid-run and serve three-quarters of the population",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(30, 15, 0.0)(scale, seed);
            let chunk = config.streams[0].chunk_size;
            config.streams.push(
                StreamSpec::new(200_000, chunk)
                    .with_audience(StreamAudience::Slice {
                        from: 0.25,
                        to: 1.0,
                    })
                    .starting_after(SimDuration::from_secs(4)),
            );
            config.streams.push(
                StreamSpec::new(100_000, chunk)
                    .with_audience(StreamAudience::Slice {
                        from: 0.25,
                        to: 1.0,
                    })
                    .starting_after(SimDuration::from_secs(8)),
            );
            config
        },
    );

    // ------------------------------------------------------------------
    // Resilience: closed-loop adversaries that react to the system's own
    // feedback, injected network faults, and the online defenses that have
    // to reconverge after each disturbance. These scenarios populate
    // `RunOutcome::recovery` with per-period precision/recall traces and
    // per-wave reconvergence times.
    // ------------------------------------------------------------------
    let gradient_freerider = || {
        ComponentSpec::new("gradient-freerider")
            .with("margin", ParamValue::Float(2.0))
            .with("step", ParamValue::Float(0.25))
    };
    registry.register(
        "resilience/gradient-freerider",
        "15% closed-loop freeriders throttle their shirking to ride just above the static η — the evasion baseline",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.15)(scale, seed);
            config.components.adversary = Some(gradient_freerider());
            config
        },
    );
    registry.register(
        "resilience/gradient-freerider-online",
        "The same gradient freeriders against the online η recalibration (median/MAD outlier cut of the trimmed live scores, EWMA-smoothed)",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.15)(scale, seed);
            config.components.adversary = Some(gradient_freerider());
            config.online_recalibration = true;
            config
        },
    );
    registry.register(
        "resilience/whitewasher",
        "10% whitewashers depart once blame drags their score 0.5 below its peak and rejoin under a rebuilt stack; frozen-score carryover catches them",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.1)(scale, seed);
            config.components.adversary = Some(
                ComponentSpec::new("whitewasher")
                    .with("margin", ParamValue::Float(0.5))
                    .with("offline_secs", ParamValue::Float(2.0)),
            );
            config
        },
    );
    registry.register(
        "resilience/partition-waves",
        "Two partition waves hit 25% of the population mid-run; hardened audit and confirm RPCs abort instead of blaming the unreachable",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.1)(scale, seed);
            config.audits_enabled = true;
            config.audit_interval = SimDuration::from_secs(4);
            config.lifting = config.lifting.with_confirm_retries(2);
            config.components.workload = Some(
                ComponentSpec::new("partition-waves")
                    .with("waves", ParamValue::Int(2))
                    .with("outage_secs", ParamValue::Float(4.0))
                    .with("fraction", ParamValue::Float(0.25)),
            );
            config
        },
    );
    registry.register(
        "resilience/bursty-loss",
        "Gilbert-Elliott bursty loss (≈7% stationary) plus delay spikes and duplication, with 10% freeriders and hardened confirms",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.1)(scale, seed);
            config.network.loss = lifting_net::LossModel::gilbert_elliott(0.05, 0.45, 0.02, 0.5);
            config.network.faults.delay_spike_probability = 0.05;
            config.network.faults.delay_spike = SimDuration::from_millis(300);
            config.network.faults.duplicate_probability = 0.02;
            config.lifting = config.lifting.with_confirm_retries(2);
            config
        },
    );
    registry.register(
        "resilience/adaptive-colluders",
        "15% colluders re-aim their cover-traffic bias away from recently audited accomplices; audits on",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.15)(scale, seed);
            config.audits_enabled = true;
            config.audit_interval = SimDuration::from_secs(4);
            config.components.adversary = Some(
                ComponentSpec::new("adaptive-colluders")
                    .with("partner_bias", ParamValue::Float(0.6))
                    .with("cooldown_periods", ParamValue::Int(6)),
            );
            config
        },
    );

    // ------------------------------------------------------------------
    // scale/ — beyond-paper populations. Figure 14's detection readout
    // (10% freeriders, pdcc = 1) pushed to 1k, 10k and 100k nodes, with a
    // lighter stream than PlanetLab's and durations that shrink as the
    // population grows so the whole sweep stays tractable on one machine.
    // ------------------------------------------------------------------
    let scale_family =
        |paper_nodes: usize, quick_nodes: usize, paper_secs: u64, quick_secs: u64| {
            move |scale: Scale, seed: u64| {
                let mut config =
                    ScenarioConfig::planetlab_baseline(seed).with_planetlab_freeriders(0.1);
                config.lifting.pdcc = 1.0;
                config.nodes = scale.pick(paper_nodes, quick_nodes);
                config.duration = scale.secs(paper_secs, quick_secs);
                // The paper's 674 kbps stream is not the point here; a lighter
                // stream keeps the 100k-node run inside laptop memory while the
                // detection statistics still have enough chunks to bite.
                config.streams[0].rate_bps = 400_000;
                shrink_below_planetlab(&mut config);
                config
            }
        };
    registry.register(
        "scale/1k",
        "Scale sweep: 1 000 nodes (3.3x the paper), 10% freeriders, pdcc = 1",
        scale_family(1_000, 200, 24, 6),
    );
    registry.register(
        "scale/10k",
        "Scale sweep: 10 000 nodes (33x the paper), 10% freeriders, pdcc = 1",
        scale_family(10_000, 400, 8, 4),
    );
    registry.register(
        "scale/100k",
        "Scale sweep: 100 000 nodes (333x the paper), 10% freeriders, pdcc = 1",
        scale_family(100_000, 800, 4, 3),
    );

    // ------------------------------------------------------------------
    // workload/ — trace-driven membership workloads expanded from registered
    // generator components (see `lifting_membership::workload` and the
    // component registry in `crate::components`). Where the churn/ family's
    // `churn` generator draws sessions from exponential distributions, these
    // replay shaped audience behaviour: diurnal participation swings, correlated regional
    // outages, and zap-style channel surfing.
    // ------------------------------------------------------------------
    registry.register(
        "workload/diurnal",
        "Diurnal audience: participation swings around 60% over a sinusoidal cycle, tiered access classes (fiber/cable/DSL/mobile), 10% freeriders",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.1)(scale, seed);
            // The tiered capability component replaces the flat poor-node draw.
            config.components.capability = Some(ComponentSpec::new("tiered"));
            config.components.workload = Some(
                ComponentSpec::new("diurnal")
                    .with("participation", ParamValue::Float(0.6))
                    .with("cycle_secs", ParamValue::Float(12.0)),
            );
            config
        },
    );
    registry.register(
        "workload/regional-failure",
        "Regional-failure waves: the population splits into 4 regions and 2 correlated outages knock whole regions offline before they rejoin",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.1)(scale, seed);
            config.components.workload = Some(
                ComponentSpec::new("regional-failure")
                    .with("regions", ParamValue::Int(4))
                    .with("waves", ParamValue::Int(2)),
            );
            config
        },
    );
    registry.register(
        "workload/zap",
        "Channel zapping: three channels, half the viewers surf between them with exponentially distributed dwell times",
        move |scale: Scale, seed: u64| {
            let mut config = planetlab_family(40, 20, 0.1)(scale, seed);
            config.duration = scale.secs(30, 15);
            let chunk = config.streams[0].chunk_size;
            config.streams.push(StreamSpec::new(300_000, chunk));
            config.streams.push(StreamSpec::new(200_000, chunk));
            config.components.workload = Some(
                ComponentSpec::new("zap").with("zappers", ParamValue::Float(0.5)),
            );
            config
        },
    );

    // ------------------------------------------------------------------
    // A small smoke scenario for tests and quick sanity checks.
    // ------------------------------------------------------------------
    registry.register(
        "smoke/small",
        "A 30-node ideal-network run with 20% planetlab freeriders",
        |scale: Scale, seed: u64| {
            let mut config =
                ScenarioConfig::small_test(scale.pick(60, 30), seed).with_planetlab_freeriders(0.2);
            config.duration = scale.secs(15, 8);
            config
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_contains_every_figure_and_table() {
        let registry = ScenarioRegistry::builtin();
        for name in [
            "fig01/no-freeriders",
            "fig01/freeriders-no-lifting",
            "fig01/freeriders-lifting",
            "fig14/planetlab-pdcc-1",
            "fig14/planetlab-pdcc-0.5",
            "table03/pdcc-0.000",
            "table03/pdcc-0.143",
            "table03/pdcc-0.500",
            "table03/pdcc-1.000",
            "table05/674kbps-pdcc-0",
            "table05/2036kbps-pdcc-1",
            "headline/planetlab",
            "adversary/on-off-freeriders",
            "adversary/blame-spam",
            "churn/steady-slow",
            "churn/steady-fast",
            "churn/catastrophe",
            "churn/flash-crowd",
            "churn/freeriders",
            "multistream/disjoint-audiences",
            "multistream/overlapping-audiences",
            "multistream/selective-freeriders",
            "multistream/rate-asymmetry",
            "resilience/gradient-freerider",
            "resilience/gradient-freerider-online",
            "resilience/whitewasher",
            "resilience/partition-waves",
            "resilience/bursty-loss",
            "resilience/adaptive-colluders",
            "scale/1k",
            "scale/10k",
            "scale/100k",
            "workload/diurnal",
            "workload/regional-failure",
            "workload/zap",
            "smoke/small",
        ] {
            assert!(registry.contains(name), "missing scenario {name}");
            assert!(registry.description(name).is_some());
        }
        assert_eq!(registry.len(), 43);
    }

    #[test]
    fn families_group_names_in_first_appearance_order() {
        let registry = ScenarioRegistry::builtin();
        let families = registry.families();
        let family_names: Vec<&str> = families.iter().map(|(f, _)| *f).collect();
        assert_eq!(family_names.first(), Some(&"fig01"));
        assert_eq!(family_names.last(), Some(&"smoke"));
        let total: usize = families.iter().map(|(_, members)| members.len()).sum();
        assert_eq!(total, registry.len());
        let (_, workload) = families
            .iter()
            .find(|(f, _)| *f == "workload")
            .expect("workload family registered");
        assert_eq!(
            workload,
            &vec![
                "workload/diurnal",
                "workload/regional-failure",
                "workload/zap"
            ]
        );
        assert_eq!(scenario_family("smoke/small"), "smoke");
        assert_eq!(scenario_family("bare"), "bare");
    }

    #[test]
    fn every_builtin_scenario_validates_at_both_scales() {
        let registry = ScenarioRegistry::builtin();
        for name in registry.names() {
            for scale in [Scale::Paper, Scale::Quick] {
                let config = registry.build(name, scale, 7);
                config.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(config.seed, 7, "{name} must thread the seed through");
            }
        }
    }

    #[test]
    fn registration_replaces_same_name() {
        let mut registry = ScenarioRegistry::new();
        registry.register("x", "first", |_, seed| ScenarioConfig::small_test(10, seed));
        registry.register("x", "second", |_, seed| {
            ScenarioConfig::small_test(12, seed)
        });
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.description("x"), Some("second"));
        assert_eq!(registry.build("x", Scale::Quick, 1).nodes, 12);
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_panics_with_the_known_names() {
        ScenarioRegistry::builtin().build("no/such", Scale::Quick, 1);
    }
}

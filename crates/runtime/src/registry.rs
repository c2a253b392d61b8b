//! The scenario registry: one row per experiment configuration.
//!
//! Every figure and table of the paper used to hand-roll its own
//! `ScenarioConfig` block inside the bench binaries; the registry is the
//! single source of truth instead. It is a static table of rows, each a
//! name, a description and a builder `fn(Scale, seed) -> ScenarioConfig`,
//! so callers (the experiment functions of `lifting-bench`, the CLIs, tests)
//! ask for `"fig01/no-freeriders"` rather than re-assembling the
//! configuration. Adding a scenario is adding a row.

use lifting_gossip::FreeriderConfig;
use lifting_membership::{Churn, DiurnalCycle, PartitionWaves, RegionalFailureWaves, Wave};
use lifting_membership::{Workload, ZapSwitching};
use lifting_net::Capability;
use lifting_sim::SimDuration;

use crate::layers::AdversaryFamily;
use crate::scenario::{ScenarioConfig, StreamAudience, StreamSpec};

/// The family prefix of a scenario name: the part before the first `/`
/// (`"fig01"`, `"churn"`, `"workload"`, …). Scenario names are
/// `family/variant` by convention; a name without a slash is its own family.
pub fn scenario_family(name: &str) -> &str {
    name.split('/').next().unwrap_or(name)
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The pdcc values of Figure 14.
pub const FIG14_PDCCS: [f64; 2] = [1.0, 0.5];

/// The registered name of the Figure 14 scenario for `pdcc`.
pub fn fig14_scenario_name(pdcc: f64) -> String {
    format!("fig14/planetlab-pdcc-{pdcc}")
}

/// One row of the registry: a named scenario and its builder.
#[derive(Debug)]
struct Scenario {
    /// Registry-unique name, `family/variant` (see [`scenario_family`]).
    name: &'static str,
    /// One line on what the scenario shows; `run_scenario --list` prints it.
    description: &'static str,
    /// Builds the scenario's configuration at `scale` for `seed`.
    build: fn(Scale, u64) -> ScenarioConfig,
}

/// The table of every scenario the experiment suite uses.
///
/// [`ScenarioRegistry::builtin`] returns it; its rows are listed in
/// `run_scenario --list` order.
#[derive(Debug)]
pub struct ScenarioRegistry {
    rows: &'static [Scenario],
}

impl ScenarioRegistry {
    /// The registry of every built-in scenario (figures, tables, the
    /// headline run and the beyond-the-paper families).
    pub fn builtin() -> &'static ScenarioRegistry {
        static BUILTIN: ScenarioRegistry = ScenarioRegistry { rows: &SCENARIOS };
        &BUILTIN
    }

    fn row(&self, name: &str) -> Option<&Scenario> {
        self.rows.iter().find(|row| row.name == name)
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.row(name).is_some()
    }

    /// The registered scenario names, in table order.
    pub fn names(&self) -> Vec<&str> {
        self.rows.iter().map(|row| row.name).collect()
    }

    /// The registry grouped by family prefix (see [`scenario_family`]), in
    /// first-appearance order — what `run_scenario --list` prints.
    pub fn families(&self) -> Vec<(&str, Vec<&str>)> {
        let mut grouped: Vec<(&str, Vec<&str>)> = Vec::new();
        for row in self.rows {
            let family = scenario_family(row.name);
            match grouped.iter_mut().find(|(f, _)| *f == family) {
                Some((_, members)) => members.push(row.name),
                None => grouped.push((family, vec![row.name])),
            }
        }
        grouped
    }

    /// The description of one scenario, if registered.
    pub fn description(&self, name: &str) -> Option<&str> {
        self.row(name).map(|row| row.description)
    }

    /// Builds the scenario registered under `name`, if any.
    pub fn try_build(&self, name: &str, scale: Scale, seed: u64) -> Option<ScenarioConfig> {
        self.row(name).map(|row| (row.build)(scale, seed))
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
}

/// Shrinks a paper-scale PlanetLab configuration the way every experiment
/// does when run below 300 nodes: fewer managers, lighter stream.
fn shrink_below_planetlab(config: &mut ScenarioConfig) {
    if config.nodes < 300 {
        config.lifting.managers = 10;
        config.streams[0].rate_bps = 400_000;
    }
}

/// Figure 1 — stream health with/without freeriders and LiFTinG.
fn fig01(scale: Scale, seed: u64, freeriders: bool, lifting: bool) -> ScenarioConfig {
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

/// Figure 14 — the PlanetLab deployment at `pdcc`.
fn fig14(scale: Scale, seed: u64, pdcc: f64) -> ScenarioConfig {
    let mut config = ScenarioConfig::planetlab_baseline(seed).with_planetlab_freeriders(0.1);
    config.lifting.pdcc = pdcc;
    config.nodes = scale.pick(300, 100);
    shrink_below_planetlab(&mut config);
    config.duration = scale.secs(36, 36);
    config
}

/// Table 3 — verification message overhead at `pdcc`.
fn table03(scale: Scale, seed: u64, pdcc: f64) -> ScenarioConfig {
    let mut config = ScenarioConfig::planetlab_baseline(seed);
    config.nodes = scale.pick(150, 60);
    config.lifting.managers = 10;
    config.lifting.pdcc = pdcc;
    config.duration = scale.secs(20, 10);
    config.streams[0].rate_bps = 400_000;
    config
}

/// Table 5 — practical overhead at `stream_kbps` and `pdcc`.
fn table05(scale: Scale, seed: u64, stream_kbps: u64, pdcc: f64) -> ScenarioConfig {
    let mut config = ScenarioConfig::planetlab_baseline(seed);
    config.nodes = scale.pick(150, 60);
    config.lifting.managers = if config.nodes >= 300 { 25 } else { 10 };
    config.lifting.pdcc = pdcc;
    config.streams[0].rate_bps = stream_kbps * 1_000;
    config.duration = scale.secs(20, 10);
    config.default_upload_bps = Some(10_000_000);
    config
}

/// The shape every beyond-the-paper family shares: the PlanetLab baseline at
/// 300 (quick: 80) nodes, shrunk below paper scale, with `freeriders` of the
/// population freeriding (0 = none) for `paper_secs` (quick: `quick_secs`).
fn planetlab_family(
    scale: Scale,
    seed: u64,
    paper_secs: u64,
    quick_secs: u64,
    freeriders: f64,
) -> ScenarioConfig {
    let mut config = ScenarioConfig::planetlab_baseline(seed);
    config.nodes = scale.pick(300, 80);
    shrink_below_planetlab(&mut config);
    if freeriders > 0.0 {
        config = config.with_planetlab_freeriders(freeriders);
    }
    config.duration = scale.secs(paper_secs, quick_secs);
    config
}

/// The scale/ family: Figure 14's detection readout (10% freeriders,
/// pdcc = 1) at `paper_nodes` (quick: `quick_nodes`) for `paper_secs`
/// (quick: `quick_secs`).
fn scale_family(
    scale: Scale,
    seed: u64,
    paper_nodes: usize,
    quick_nodes: usize,
    paper_secs: u64,
    quick_secs: u64,
) -> ScenarioConfig {
    let mut config = ScenarioConfig::planetlab_baseline(seed).with_planetlab_freeriders(0.1);
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

/// Steady churn: `fraction` of the viewers cycle `session`-mean sessions
/// and `offline`-mean spells after `warmup` seconds.
fn steady(fraction: f64, session: u64, offline: u64, warmup: u64) -> Option<Workload> {
    Some(Workload::Churn(Churn {
        fraction,
        mean_session: SimDuration::from_secs(session),
        mean_offline: SimDuration::from_secs(offline),
        warmup: SimDuration::from_secs(warmup),
        ..Churn::default()
    }))
}

/// Churn with a fraction of 0 and no waves, for one wave to be set.
fn no_steady_churn() -> Churn {
    Churn {
        fraction: 0.0,
        ..Churn::default()
    }
}

const GRADIENT_FREERIDER: AdversaryFamily = AdversaryFamily::GradientFreerider {
    margin: 2.0,
    step: 0.25,
};

/// Every built-in scenario, in listing order. The name of each fig14 row is
/// what `fig14_scenario_name` prints for the row's pdcc, which the Figure 14
/// experiment looks it up by.
static SCENARIOS: [Scenario; 43] = [
    // ------------------------------------------------------------------
    // Figure 1 — stream health with/without freeriders and LiFTinG.
    // ------------------------------------------------------------------
    Scenario {
        name: "fig01/no-freeriders",
        description: "Figure 1 baseline: fully honest population, LiFTinG on",
        build: |scale, seed| fig01(scale, seed, false, true),
    },
    Scenario {
        name: "fig01/freeriders-no-lifting",
        description: "Figure 1: 25% wise freeriders, LiFTinG off",
        build: |scale, seed| fig01(scale, seed, true, false),
    },
    Scenario {
        name: "fig01/freeriders-lifting",
        description: "Figure 1: 25% wise freeriders, LiFTinG expelling them",
        build: |scale, seed| fig01(scale, seed, true, true),
    },

    // ------------------------------------------------------------------
    // Figure 14 — the PlanetLab deployment at pdcc = 1 and 0.5.
    // ------------------------------------------------------------------
    Scenario {
        name: "fig14/planetlab-pdcc-1",
        description: "Figure 14: PlanetLab run with 10% freeriders, pdcc = 1",
        build: |scale, seed| fig14(scale, seed, 1.0),
    },
    Scenario {
        name: "fig14/planetlab-pdcc-0.5",
        description: "Figure 14: PlanetLab run with 10% freeriders, pdcc = 0.5",
        build: |scale, seed| fig14(scale, seed, 0.5),
    },

    // ------------------------------------------------------------------
    // Table 3 — verification message overhead per pdcc.
    // ------------------------------------------------------------------
    Scenario {
        name: "table03/pdcc-0.000",
        description: "Table 3: honest run measuring verification messages at pdcc = 0.000",
        build: |scale, seed| table03(scale, seed, 0.0),
    },
    Scenario {
        name: "table03/pdcc-0.143",
        description: "Table 3: honest run measuring verification messages at pdcc = 0.143",
        build: |scale, seed| table03(scale, seed, 1.0 / 7.0),
    },
    Scenario {
        name: "table03/pdcc-0.500",
        description: "Table 3: honest run measuring verification messages at pdcc = 0.500",
        build: |scale, seed| table03(scale, seed, 0.5),
    },
    Scenario {
        name: "table03/pdcc-1.000",
        description: "Table 3: honest run measuring verification messages at pdcc = 1.000",
        build: |scale, seed| table03(scale, seed, 1.0),
    },

    // ------------------------------------------------------------------
    // Table 5 — practical overhead per stream rate and pdcc.
    // ------------------------------------------------------------------
    Scenario {
        name: "table05/674kbps-pdcc-0",
        description: "Table 5: overhead at 674 kbps, pdcc = 0",
        build: |scale, seed| table05(scale, seed, 674, 0.0),
    },
    Scenario {
        name: "table05/674kbps-pdcc-0.5",
        description: "Table 5: overhead at 674 kbps, pdcc = 0.5",
        build: |scale, seed| table05(scale, seed, 674, 0.5),
    },
    Scenario {
        name: "table05/674kbps-pdcc-1",
        description: "Table 5: overhead at 674 kbps, pdcc = 1",
        build: |scale, seed| table05(scale, seed, 674, 1.0),
    },
    Scenario {
        name: "table05/1082kbps-pdcc-0",
        description: "Table 5: overhead at 1082 kbps, pdcc = 0",
        build: |scale, seed| table05(scale, seed, 1082, 0.0),
    },
    Scenario {
        name: "table05/1082kbps-pdcc-0.5",
        description: "Table 5: overhead at 1082 kbps, pdcc = 0.5",
        build: |scale, seed| table05(scale, seed, 1082, 0.5),
    },
    Scenario {
        name: "table05/1082kbps-pdcc-1",
        description: "Table 5: overhead at 1082 kbps, pdcc = 1",
        build: |scale, seed| table05(scale, seed, 1082, 1.0),
    },
    Scenario {
        name: "table05/2036kbps-pdcc-0",
        description: "Table 5: overhead at 2036 kbps, pdcc = 0",
        build: |scale, seed| table05(scale, seed, 2036, 0.0),
    },
    Scenario {
        name: "table05/2036kbps-pdcc-0.5",
        description: "Table 5: overhead at 2036 kbps, pdcc = 0.5",
        build: |scale, seed| table05(scale, seed, 2036, 0.5),
    },
    Scenario {
        name: "table05/2036kbps-pdcc-1",
        description: "Table 5: overhead at 2036 kbps, pdcc = 1",
        build: |scale, seed| table05(scale, seed, 2036, 1.0),
    },

    // ------------------------------------------------------------------
    // The headline PlanetLab run (detection / false positives / overhead).
    // ------------------------------------------------------------------
    Scenario {
        name: "headline/planetlab",
        description: "The headline PlanetLab run: 10% freeriders, scores read after 30 s",
        build: |scale, seed| {
            let mut config =
                ScenarioConfig::planetlab_baseline(seed).with_planetlab_freeriders(0.1);
            config.nodes = scale.pick(300, 100);
            shrink_below_planetlab(&mut config);
            config.duration = scale.secs(30, 20);
            config
        },
    },

    // ------------------------------------------------------------------
    // Adversary showcases: attacks the pre-refactor wiring could not express.
    // ------------------------------------------------------------------
    Scenario {
        name: "adversary/on-off-freeriders",
        description: "20% on-off freeriders (2 periods on, 2 off) dodging the score normalization",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.2);
            config.adversary = AdversaryFamily::OnOff {
                on_periods: 2,
                off_periods: 2,
            };
            config
        },
    },
    Scenario {
        name: "adversary/blame-spam",
        description: "10% blame spammers flooding the reputation plane with fabricated blames",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 30, 15, 0.1);
            config.adversary = AdversaryFamily::BlameSpam {
                blames_per_period: 5,
                blame_value: 5.0,
            };
            config
        },
    },

    // ------------------------------------------------------------------
    // Churn: dynamic membership under the PlanetLab deployment. The paper's
    // evaluation runs on PlanetLab, where nodes join, crash and rejoin
    // mid-stream; these scenarios exercise blame propagation, audit
    // timeouts and score-based expulsion under that dynamism.
    // ------------------------------------------------------------------
    Scenario {
        name: "churn/steady-slow",
        description: "Steady churn, honest population: 25% of the nodes cycle 12s-mean sessions with 3s offline spells",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.0);
            config.workload = steady(0.25, 12, 3, 3);
            config
        },
    },
    Scenario {
        name: "churn/steady-fast",
        description: "Aggressive churn with 10% freeriders and audits on: 40% of the nodes cycle 5s-mean sessions with 2s offline spells",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.1);
            config.workload = steady(0.4, 5, 2, 2);
            // A-posteriori audits run here so the departed-witness timeout
            // path (audits aborted, not wedged into wrongful blame) is
            // exercised at system scale.
            config.audits_enabled = true;
            config.audit_interval = SimDuration::from_secs(4);
            config
        },
    },
    Scenario {
        name: "churn/catastrophe",
        description: "Catastrophic failure: 30% of the nodes (10% freeriders present) crash at mid-run and never return",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.1);
            let mid_run = SimDuration::from_micros(config.duration.as_micros() / 2);
            config.workload = Some(Workload::Churn(Churn {
                catastrophe: Wave {
                    at: mid_run,
                    fraction: 0.3,
                },
                ..no_steady_churn()
            }));
            config
        },
    },
    Scenario {
        name: "churn/flash-crowd",
        description: "Flash crowd: 30% of the nodes start offline and all join a quarter into the stream",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.0);
            let quarter = SimDuration::from_micros(config.duration.as_micros() / 4);
            config.workload = Some(Workload::Churn(Churn {
                flash_crowd: Wave {
                    at: quarter,
                    fraction: 0.3,
                },
                ..no_steady_churn()
            }));
            config
        },
    },
    Scenario {
        name: "churn/freeriders",
        description: "Churn x freeriders with audits on: 20% freeriders while 35% of the nodes cycle 8s-mean sessions",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.2);
            config.workload = steady(0.35, 8, 2, 2);
            config.audits_enabled = true;
            config.audit_interval = SimDuration::from_secs(5);
            config
        },
    },

    // ------------------------------------------------------------------
    // Multi-channel streaming: several concurrent broadcasts over one
    // membership and reputation plane. Data planes are per-stream, blames
    // aggregate across streams into one score per node — the setting where
    // manager-based accountability pays off (a freerider on channel B is
    // expelled from channel A too).
    // ------------------------------------------------------------------
    Scenario {
        name: "multistream/disjoint-audiences",
        description: "Two channels with disjoint audiences (first vs second half of the population) over one membership plane",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 30, 15, 0.0);
            let primary = config.streams[0];
            config.streams[0] = primary.with_audience(StreamAudience::Slice { from: 0.0, to: 0.5 });
            config.streams.push(
                primary.with_audience(StreamAudience::Slice { from: 0.5, to: 1.0 }),
            );
            config
        },
    },
    Scenario {
        name: "multistream/overlapping-audiences",
        description: "Two full-audience channels with 10% freeriders shirking on both; their blames aggregate into one score",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 30, 15, 0.1);
            let chunk = config.streams[0].chunk_size;
            config.streams.push(StreamSpec::new(300_000, chunk));
            config
        },
    },
    Scenario {
        name: "multistream/selective-freeriders",
        description: "15% selective freeriders: honest on channel 0, fully silent on channel 1 — cross-stream scoring expels them from both",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 30, 15, 0.15);
            let chunk = config.streams[0].chunk_size;
            config.streams.push(StreamSpec::new(300_000, chunk));
            config.adversary = AdversaryFamily::SelectiveFreerider { silent_mask: 0b10 };
            config
        },
    },
    Scenario {
        name: "multistream/rate-asymmetry",
        description: "Three channels at 400/200/100 kbps; the slow ones start mid-run and serve three-quarters of the population",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 30, 15, 0.0);
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
    },

    // ------------------------------------------------------------------
    // Resilience: closed-loop adversaries that react to the system's own
    // feedback, injected network faults, and the online defenses that have
    // to reconverge after each disturbance. These scenarios populate
    // `RunOutcome::recovery` with per-period precision/recall traces and
    // per-wave reconvergence times.
    // ------------------------------------------------------------------
    Scenario {
        name: "resilience/gradient-freerider",
        description: "15% closed-loop freeriders throttle their shirking to ride just above the static η — the evasion baseline",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.15);
            config.adversary = GRADIENT_FREERIDER;
            config
        },
    },
    Scenario {
        name: "resilience/gradient-freerider-online",
        description: "The same gradient freeriders against the online η recalibration (median/MAD outlier cut of the trimmed live scores, EWMA-smoothed)",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.15);
            config.adversary = GRADIENT_FREERIDER;
            config.online_recalibration = true;
            config
        },
    },
    Scenario {
        name: "resilience/whitewasher",
        description: "10% whitewashers depart once blame drags their score 0.5 below its peak and rejoin under a rebuilt stack; frozen-score carryover catches them",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.1);
            config.adversary = AdversaryFamily::Whitewasher {
                margin: 0.5,
                offline: SimDuration::from_secs(2),
            };
            config
        },
    },
    Scenario {
        name: "resilience/partition-waves",
        description: "Two partition waves hit 25% of the population mid-run; hardened audit and confirm RPCs abort instead of blaming the unreachable",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.1);
            config.audits_enabled = true;
            config.audit_interval = SimDuration::from_secs(4);
            config.lifting = config.lifting.with_confirm_retries(2);
            config.workload = Some(Workload::PartitionWaves(PartitionWaves {
                waves: 2,
                outage: SimDuration::from_secs(4),
                fraction: 0.25,
            }));
            config
        },
    },
    Scenario {
        name: "resilience/bursty-loss",
        description: "Gilbert-Elliott bursty loss (≈7% stationary) plus delay spikes and duplication, with 10% freeriders and hardened confirms",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.1);
            config.network.loss = lifting_net::LossModel::gilbert_elliott(0.05, 0.45, 0.02, 0.5);
            config.network.faults.delay_spike_probability = 0.05;
            config.network.faults.delay_spike = SimDuration::from_millis(300);
            config.network.faults.duplicate_probability = 0.02;
            config.lifting = config.lifting.with_confirm_retries(2);
            config
        },
    },
    Scenario {
        name: "resilience/adaptive-colluders",
        description: "15% colluders re-aim their cover-traffic bias away from recently audited accomplices; audits on",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.15);
            config.audits_enabled = true;
            config.audit_interval = SimDuration::from_secs(4);
            config.adversary = AdversaryFamily::AdaptiveColluders {
                partner_bias: 0.6,
                cooldown_periods: 6,
            };
            config
        },
    },

    // ------------------------------------------------------------------
    // scale/ — beyond-paper populations. Figure 14's detection readout
    // (10% freeriders, pdcc = 1) pushed to 1k, 10k and 100k nodes, with a
    // lighter stream than PlanetLab's and durations that shrink as the
    // population grows so the whole sweep stays tractable on one machine.
    // ------------------------------------------------------------------
    Scenario {
        name: "scale/1k",
        description: "Scale sweep: 1 000 nodes (3.3x the paper), 10% freeriders, pdcc = 1",
        build: |scale, seed| scale_family(scale, seed, 1_000, 200, 24, 6),
    },
    Scenario {
        name: "scale/10k",
        description: "Scale sweep: 10 000 nodes (33x the paper), 10% freeriders, pdcc = 1",
        build: |scale, seed| scale_family(scale, seed, 10_000, 400, 8, 4),
    },
    Scenario {
        name: "scale/100k",
        description: "Scale sweep: 100 000 nodes (333x the paper), 10% freeriders, pdcc = 1",
        build: |scale, seed| scale_family(scale, seed, 100_000, 800, 4, 3),
    },

    // ------------------------------------------------------------------
    // workload/ — trace-driven membership workloads expanded from typed
    // generators (see `lifting_membership::workload`). Where the churn/ family's
    // `churn` generator draws sessions from exponential distributions, these
    // replay shaped audience behaviour: diurnal participation swings, correlated regional
    // outages, and zap-style channel surfing.
    // ------------------------------------------------------------------
    Scenario {
        name: "workload/diurnal",
        description: "Diurnal audience: participation swings around 60% over a sinusoidal cycle, tiered access classes (fiber/cable/DSL/mobile), 10% freeriders",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.1);
            // The tiered capability classes replace the flat poor-node draw.
            config.capability = Capability::TIERED;
            config.workload = Some(Workload::DiurnalCycle(DiurnalCycle {
                participation: 0.6,
                cycle: SimDuration::from_secs(12),
                ..DiurnalCycle::default()
            }));
            config
        },
    },
    Scenario {
        name: "workload/regional-failure",
        description: "Regional-failure waves: the population splits into 4 regions and 2 correlated outages knock whole regions offline before they rejoin",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.1);
            config.workload = Some(Workload::RegionalFailureWaves(RegionalFailureWaves {
                regions: 4,
                waves: 2,
                ..RegionalFailureWaves::default()
            }));
            config
        },
    },
    Scenario {
        name: "workload/zap",
        description: "Channel zapping: three channels, half the viewers surf between them with exponentially distributed dwell times",
        build: |scale, seed| {
            let mut config = planetlab_family(scale, seed, 40, 20, 0.1);
            config.duration = scale.secs(30, 15);
            let chunk = config.streams[0].chunk_size;
            config.streams.push(StreamSpec::new(300_000, chunk));
            config.streams.push(StreamSpec::new(200_000, chunk));
            config.workload = Some(Workload::ZapSwitching(ZapSwitching {
                zappers: 0.5,
                ..ZapSwitching::default()
            }));
            config
        },
    },

    // ------------------------------------------------------------------
    // A small smoke scenario for tests and quick sanity checks.
    // ------------------------------------------------------------------
    Scenario {
        name: "smoke/small",
        description: "A 30-node ideal-network run with 20% planetlab freeriders",
        build: |scale, seed| {
            let mut config =
                ScenarioConfig::small_test(scale.pick(60, 30), seed).with_planetlab_freeriders(0.2);
            config.duration = scale.secs(15, 8);
            config
        },
    },
];

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
        assert_eq!(registry.names().len(), 43);
    }

    #[test]
    fn families_group_names_in_first_appearance_order() {
        let registry = ScenarioRegistry::builtin();
        let families = registry.families();
        let family_names: Vec<&str> = families.iter().map(|(f, _)| *f).collect();
        assert_eq!(family_names.first(), Some(&"fig01"));
        assert_eq!(family_names.last(), Some(&"smoke"));
        let total: usize = families.iter().map(|(_, members)| members.len()).sum();
        assert_eq!(total, registry.names().len());
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
    fn names_are_unique_and_every_grid_point_is_a_row() {
        let registry = ScenarioRegistry::builtin();
        let mut names = registry.names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            registry.names().len(),
            "duplicate scenario name"
        );

        // Each fig14 row must carry the name the Figure 14 experiment asks
        // for, and build the pdcc that name promises.
        for pdcc in FIG14_PDCCS {
            let name = fig14_scenario_name(pdcc);
            let config = registry
                .try_build(&name, Scale::Quick, 1)
                .unwrap_or_else(|| panic!("missing grid row {name}"));
            assert_eq!(config.lifting.pdcc, pdcc);
        }
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_panics_with_the_known_names() {
        ScenarioRegistry::builtin().build("no/such", Scale::Quick, 1);
    }
}

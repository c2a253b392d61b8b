//! The outcome exporters, and the composition summary `run_scenario --list`
//! prints.
//!
//! A scenario's capability classes ([`lifting_net::Capability`]), workload
//! ([`lifting_membership::Workload`]) and adversary family
//! ([`AdversaryFamily`], declared with the adversary it makes in
//! [`crate::layers::adversary`]) are typed values of its [`ScenarioConfig`],
//! checked by their `validate` methods from [`ScenarioConfig::validate`];
//! the summary prints each with every parameter.
//!
//! Only the exporter is chosen by a name from outside the program
//! (`run_scenario --exporter NAME`), so it alone is a registry
//! ([`exporter_components`]).

use lifting_membership::Workload;
use lifting_net::{Capability, LossModel};
use lifting_sim::{Component, ComponentRegistry, SimDuration};

pub use crate::layers::AdversaryFamily;
use crate::metrics::RunOutcome;
use crate::scenario::ScenarioConfig;

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
        serde_json::to_string_pretty(outcome).expect("an outcome repeats no object key")
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
        let rendered = serde_json::to_string(&behaviour).expect("an outcome repeats no object key");
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
                build: || Box::new(JsonExporter),
            },
            Component {
                name: "summary-line",
                build: || Box::new(SummaryLineExporter),
            },
            Component {
                name: "digest",
                build: || Box::new(DigestExporter),
            },
        ],
    );
    &REGISTRY
}

// ---------------------------------------------------------------------------
// The composition listing.
// ---------------------------------------------------------------------------

fn capability_spec(capability: &Capability) -> String {
    let name = capability.name();
    match *capability {
        Capability::Uniform => name.to_string(),
        Capability::PoorFraction {
            fraction: f,
            poor_upload_bps: bps,
            poor_extra_loss: loss,
        } => format!("{name}{{fraction={f},poor_upload_bps={bps},poor_extra_loss={loss}}}"),
        Capability::Tiered { fiber, cable, dsl } => {
            format!("{name}{{fiber={fiber},cable={cable},dsl={dsl}}}")
        }
    }
}

fn workload_spec(workload: &Workload) -> String {
    let (name, secs) = (workload.name(), SimDuration::as_secs_f64);
    match *workload {
        Workload::Churn(c) => format!(
            "{name}{{fraction={},mean_session_secs={},mean_offline_secs={},warmup_secs={},\
             catastrophe_at_secs={},catastrophe_fraction={},\
             flash_crowd_at_secs={},flash_crowd_fraction={}}}",
            c.fraction,
            secs(c.mean_session),
            secs(c.mean_offline),
            secs(c.warmup),
            secs(c.catastrophe.at),
            c.catastrophe.fraction,
            secs(c.flash_crowd.at),
            c.flash_crowd.fraction,
        ),
        Workload::PartitionWaves(p) => format!(
            "{name}{{waves={},outage_secs={},fraction={}}}",
            p.waves,
            secs(p.outage),
            p.fraction
        ),
        Workload::DiurnalCycle(d) => format!(
            "{name}{{participation={},cycle_secs={},offline_fraction={},warmup_secs={}}}",
            d.participation,
            secs(d.cycle),
            d.offline_fraction,
            secs(d.warmup)
        ),
        Workload::RegionalFailureWaves(r) => format!(
            "{name}{{regions={},waves={},outage_secs={},warmup_secs={}}}",
            r.regions,
            r.waves,
            secs(r.outage),
            secs(r.warmup)
        ),
        Workload::ZapSwitching(z) => format!(
            "{name}{{zappers={},mean_dwell_secs={},warmup_secs={}}}",
            z.zappers,
            secs(z.mean_dwell),
            secs(z.warmup)
        ),
    }
}

fn adversary_spec(adversary: &AdversaryFamily) -> String {
    let name = adversary.name();
    match *adversary {
        AdversaryFamily::Baseline {
            partner_bias: bias,
            cover_up,
            man_in_the_middle: mitm,
        } => {
            format!("{name}{{partner_bias={bias},cover_up={cover_up},man_in_the_middle={mitm}}}")
        }
        AdversaryFamily::OnOff {
            on_periods: on,
            off_periods: off,
        } => format!("{name}{{on_periods={on},off_periods={off}}}"),
        AdversaryFamily::BlameSpam {
            blames_per_period: blames,
            blame_value: value,
        } => format!("{name}{{blames_per_period={blames},blame_value={value}}}"),
        AdversaryFamily::SelectiveFreerider { silent_mask } => {
            format!("{name}{{silent_mask={silent_mask}}}")
        }
        AdversaryFamily::GradientFreerider { margin, step } => {
            format!("{name}{{margin={margin},step={step}}}")
        }
        AdversaryFamily::Whitewasher { margin, offline } => format!(
            "{name}{{margin={margin},offline_secs={}}}",
            offline.as_secs_f64()
        ),
        AdversaryFamily::AdaptiveColluders {
            partner_bias: bias,
            cooldown_periods: cooldown,
        } => format!("{name}{{partner_bias={bias},cooldown_periods={cooldown}}}"),
    }
}

/// The scenario's composition across every axis, as `run_scenario --list`
/// prints it: the loss of its `NetworkConfig`, then its capability class,
/// workload (`static` when none) and adversary family (`none` without
/// freeriders), each with every parameter.
pub fn component_summary(config: &ScenarioConfig) -> Vec<(&'static str, String)> {
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
        adversary_spec(&config.adversary)
    };
    vec![
        ("loss", loss),
        ("capability", capability_spec(&config.capability)),
        (
            "workload",
            config
                .workload
                .as_ref()
                .map_or("static".to_string(), workload_spec),
        ),
        ("adversary", adversary),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::ComponentError;

    #[test]
    fn bad_adversary_params_are_structured_errors() {
        // Enough freeriders and streams for every family's cross-field rule.
        let mut config = ScenarioConfig::small_test(10, 1).with_planetlab_freeriders(0.3);
        config.streams.push(config.streams[0]);
        for (family, key) in [
            (
                AdversaryFamily::GradientFreerider {
                    margin: 2.0,
                    step: 0.0,
                },
                "step",
            ),
            (
                AdversaryFamily::GradientFreerider {
                    margin: -1.0,
                    step: 0.25,
                },
                "margin",
            ),
            (
                AdversaryFamily::SelectiveFreerider { silent_mask: 0 },
                "silent_mask",
            ),
            (
                AdversaryFamily::OnOff {
                    on_periods: 2,
                    off_periods: 0,
                },
                "off_periods",
            ),
            (
                AdversaryFamily::BlameSpam {
                    blames_per_period: 5,
                    blame_value: -0.5,
                },
                "blame_value",
            ),
            (
                AdversaryFamily::Whitewasher {
                    margin: 0.5,
                    offline: SimDuration::ZERO,
                },
                "offline_secs",
            ),
            (
                AdversaryFamily::AdaptiveColluders {
                    partner_bias: 1.5,
                    cooldown_periods: 6,
                },
                "partner_bias",
            ),
            (
                AdversaryFamily::Baseline {
                    partner_bias: 1.5,
                    cover_up: false,
                    man_in_the_middle: false,
                },
                "partner_bias",
            ),
        ] {
            let err = family
                .validate(&config)
                .err()
                .unwrap_or_else(|| panic!("{family:?}: bad `{key}` must not validate"));
            assert!(
                matches!(&err, ComponentError::InvalidParam { component, key: k, .. }
                    if component == family.name() && k == key),
                "{err}"
            );
        }
    }

    #[test]
    fn summary_covers_every_axis() {
        let mut config = ScenarioConfig::planetlab_baseline(1).with_planetlab_freeriders(0.1);
        config.capability = Capability::Tiered {
            fiber: 0.2,
            cable: 0.45,
            dsl: 0.3,
        };
        let summary: Vec<String> = component_summary(&config)
            .into_iter()
            .map(|(axis, value)| format!("{axis}={value}"))
            .collect();
        assert_eq!(
            summary,
            vec![
                "loss=bernoulli{pl=0.04}",
                "capability=tiered{fiber=0.2,cable=0.45,dsl=0.3}",
                "workload=static",
                "adversary=baseline{partner_bias=0,cover_up=false,man_in_the_middle=false}",
            ]
        );
        config.freeriders = None;
        assert_eq!(component_summary(&config)[3].1, "none");
    }
}

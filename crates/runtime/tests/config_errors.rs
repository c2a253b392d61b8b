//! Property test: a configuration with one numeric field out of range is a
//! typed error out of `build_world`, never an unwind.
//!
//! Every case starts from a valid `smoke/small` configuration and pushes one
//! numeric field of `ScenarioConfig`, `GossipConfig`, `LiftingConfig`,
//! `FreeriderConfig`, `LinkFaults`, or of a capability class, workload or
//! adversary family set at its defaults, outside the range its `validate`
//! method declares; the generated value covers both sides of the range, NaN
//! and the infinities where the field is a float. The adversary families'
//! cross-field rules (a population to replace, a selective mask within the
//! streams, an on-off cycle that fits a `u64`, a whitewasher offline spell
//! within the run) are cases too. `build_world` must return
//! `Err(InvalidParam { component, key, .. })` naming exactly that field.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lifting_gossip::buffer::{SLOT_ROUNDS, SLOT_TIME_LIMIT};
use lifting_membership::{
    Churn, DiurnalCycle, PartitionWaves, RegionalFailureWaves, Workload, ZapSwitching,
};
use lifting_net::Capability;
use lifting_runtime::builder::build_world;
use lifting_runtime::{AdversaryFamily, Scale, ScenarioConfig, ScenarioRegistry};
use lifting_sim::{ComponentError, SimDuration};
use proptest::prelude::*;

/// Pushes one field of the configuration out of range; `u` in `[0, 1)`
/// picks the value.
type Break = fn(&mut ScenarioConfig, f64);

/// A float outside `[lo, hi]`: below, above, NaN or an infinity.
fn outside(lo: f64, hi: f64, u: f64) -> f64 {
    match (u * 10.0) as u32 {
        0..=3 => lo - 1e-9 - u * 1e3,
        4..=7 => hi + 1e-9 + u * 1e3,
        8 => f64::NAN,
        _ if u < 0.95 => f64::INFINITY,
        _ => f64::NEG_INFINITY,
    }
}

/// A float that is not positive: zero, negative, NaN or minus infinity.
fn not_positive(u: f64) -> f64 {
    match (u * 4.0) as u32 {
        0 => 0.0,
        1 => -u * 1e3,
        2 => f64::NAN,
        _ => f64::NEG_INFINITY,
    }
}

/// A float below zero: negative, NaN or minus infinity.
fn negative(u: f64) -> f64 {
    match (u * 3.0) as u32 {
        0 => -1e-9 - u * 1e3,
        1 => f64::NAN,
        _ => f64::NEG_INFINITY,
    }
}

/// A float outside `(0, 1]`: not positive, or above one.
fn outside_unit_open_below(u: f64) -> f64 {
    if u < 0.5 {
        not_positive(2.0 * u)
    } else if u < 0.9 {
        1.0 + 1e-9 + u * 1e3
    } else {
        f64::INFINITY
    }
}

/// A positive integer count in `1..=1000`.
fn count(u: f64) -> usize {
    1 + (u * 1000.0) as usize
}

/// Sets the workload to `W`'s defaults edited by `edit`.
fn workload<W: Default>(
    c: &mut ScenarioConfig,
    wrap: fn(W) -> Workload,
    edit: impl FnOnce(&mut W),
) {
    let mut generator = W::default();
    edit(&mut generator);
    c.workload = Some(wrap(generator));
}

fn churn(c: &mut ScenarioConfig, edit: impl FnOnce(&mut Churn)) {
    workload(c, Workload::Churn, edit)
}

fn partitions(c: &mut ScenarioConfig, edit: impl FnOnce(&mut PartitionWaves)) {
    workload(c, Workload::PartitionWaves, edit)
}

fn diurnal(c: &mut ScenarioConfig, edit: impl FnOnce(&mut DiurnalCycle)) {
    workload(c, Workload::DiurnalCycle, edit)
}

fn regional(c: &mut ScenarioConfig, edit: impl FnOnce(&mut RegionalFailureWaves)) {
    workload(c, Workload::RegionalFailureWaves, edit)
}

fn zap(c: &mut ScenarioConfig, edit: impl FnOnce(&mut ZapSwitching)) {
    workload(c, Workload::ZapSwitching, edit)
}

/// `poor-fraction` with these parameters.
fn poor(c: &mut ScenarioConfig, fraction: f64, poor_upload_bps: u64, poor_extra_loss: f64) {
    c.capability = Capability::PoorFraction {
        fraction,
        poor_upload_bps,
        poor_extra_loss,
    };
}

/// `tiered` with these class fractions.
fn tiered(c: &mut ScenarioConfig, fiber: f64, cable: f64, dsl: f64) {
    c.capability = Capability::Tiered { fiber, cable, dsl };
}

/// Adds a second stream, for the selective freerider to select between.
fn two_streams(c: &mut ScenarioConfig) {
    c.streams.push(c.streams[0]);
}

/// A mask naming a stream beyond the first two.
fn beyond_two_streams(u: f64) -> u64 {
    1 << (2 + (u * 61.0) as u32)
}

/// `(component, key, break)`: every out-of-range field and the error that
/// must name it.
const CASES: [(&str, &str, Break); 76] = [
    // ScenarioConfig
    ("scenario", "nodes", |c, u| c.nodes = (u * 3.0) as usize),
    ("scenario", "lifting.managers", |c, u| {
        c.lifting.managers = c.nodes + count(u) - 1
    }),
    ("scenario", "freeriders", |c, u| {
        c.freeriders.as_mut().unwrap().count = c.nodes + count(u) - 1
    }),
    ("scenario", "streams", |c, _| c.streams[0].rate_bps = 0),
    ("scenario", "streams", |c, _| c.streams[0].chunk_size = 0),
    // A chunk interval under half a µs rounds to zero.
    ("scenario", "streams", |c, u| {
        c.streams[0].rate_bps = 16_000_001 + (u * 1e9) as u64;
        c.streams[0].chunk_size = 1;
    }),
    ("scenario", "streams", |c, u| {
        c.streams[0].start_offset = SimDuration::from_micros(count(u) as u64)
    }),
    ("scenario", "duration", |c, _| {
        c.duration = SimDuration::ZERO
    }),
    // Past a chunk slot's time field (the run plus one period), and more
    // rounds than its round field tells apart (at a µs-scale period).
    ("scenario", "duration", |c, u| {
        let last = SLOT_TIME_LIMIT.as_micros() - c.gossip.gossip_period.as_micros();
        c.duration = SimDuration::from_micros(last + (u * 1e15) as u64)
    }),
    ("scenario", "duration", |c, u| {
        let period = 1 + (u * 1e3) as u64;
        c.gossip.gossip_period = SimDuration::from_micros(period);
        c.duration = SimDuration::from_micros(period * (SLOT_ROUNDS + count(u) as u64 - 1));
    }),
    ("scenario", "audit_interval", |c, _| {
        c.audit_interval = SimDuration::ZERO
    }),
    ("scenario", "default_upload_bps", |c, _| {
        c.default_upload_bps = Some(0)
    }),
    // GossipConfig
    ("gossip", "fanout", |c, _| c.gossip.fanout = 0),
    ("gossip", "gossip_period", |c, _| {
        c.gossip.gossip_period = SimDuration::ZERO
    }),
    ("gossip", "clear_stream_threshold", |c, u| {
        c.gossip.clear_stream_threshold = outside_unit_open_below(u)
    }),
    // LiftingConfig
    ("lifting", "pdcc", |c, u| {
        c.lifting.pdcc = outside(0.0, 1.0, u)
    }),
    ("lifting", "managers", |c, _| c.lifting.managers = 0),
    ("lifting", "eta", |c, u| c.lifting.eta = -not_positive(u)),
    ("lifting", "gamma", |c, u| c.lifting.gamma = not_positive(u)),
    ("lifting", "history_periods", |c, _| {
        c.lifting.history_periods = 0
    }),
    // FreeriderConfig
    ("freerider", "delta1", |c, u| {
        c.freeriders.as_mut().unwrap().degree.delta1 = outside(0.0, 1.0, u)
    }),
    ("freerider", "delta2", |c, u| {
        c.freeriders.as_mut().unwrap().degree.delta2 = outside(0.0, 1.0, u)
    }),
    ("freerider", "delta3", |c, u| {
        c.freeriders.as_mut().unwrap().degree.delta3 = outside(0.0, 1.0, u)
    }),
    ("freerider", "period_stretch", |c, _| {
        c.freeriders.as_mut().unwrap().degree.period_stretch = 0
    }),
    // LinkFaults
    ("link_faults", "delay_spike_probability", |c, u| {
        c.network.faults.delay_spike_probability = outside(0.0, 1.0, u)
    }),
    ("link_faults", "duplicate_probability", |c, u| {
        c.network.faults.duplicate_probability = outside(0.0, 1.0, u)
    }),
    // Ranges open at one end: the boundary itself is out.
    ("gossip", "clear_stream_threshold", |c, _| {
        c.gossip.clear_stream_threshold = 0.0
    }),
    ("lifting", "eta", |c, _| c.lifting.eta = 0.0),
    ("lifting", "gamma", |c, _| c.lifting.gamma = 0.0),
    // Capability classes
    ("poor-fraction", "fraction", |c, u| {
        poor(c, outside(0.0, 1.0, u), 800_000, 0.03)
    }),
    ("poor-fraction", "poor_upload_bps", |c, _| {
        poor(c, 0.1, 0, 0.03)
    }),
    ("poor-fraction", "poor_extra_loss", |c, u| {
        poor(c, 0.1, 800_000, outside(0.0, 1.0, u))
    }),
    ("tiered", "fiber", |c, u| {
        tiered(c, outside(0.0, 1.0, u), 0.45, 0.3)
    }),
    ("tiered", "cable", |c, u| {
        tiered(c, 0.15, outside(0.0, 1.0, u), 0.3)
    }),
    ("tiered", "dsl", |c, u| {
        tiered(c, 0.15, 0.45, outside(0.0, 1.0, u))
    }),
    // The classes cover more than the population.
    ("tiered", "dsl", |c, u| {
        let x = 0.34 + 0.66 * u;
        tiered(c, x, x, x)
    }),
    // Workloads
    ("churn", "fraction", |c, u| {
        churn(c, |w| w.fraction = outside(0.0, 1.0, u))
    }),
    ("churn", "mean_session_secs", |c, _| {
        churn(c, |w| w.mean_session = SimDuration::ZERO)
    }),
    ("churn", "mean_offline_secs", |c, _| {
        churn(c, |w| w.mean_offline = SimDuration::ZERO)
    }),
    ("churn", "catastrophe_at_secs", |c, _| {
        churn(c, |w| {
            w.catastrophe.at = SimDuration::ZERO;
            w.catastrophe.fraction = 0.1;
        })
    }),
    ("churn", "catastrophe_fraction", |c, u| {
        churn(c, |w| w.catastrophe.fraction = outside(0.0, 0.9, u))
    }),
    ("churn", "flash_crowd_at_secs", |c, _| {
        churn(c, |w| {
            w.flash_crowd.at = SimDuration::ZERO;
            w.flash_crowd.fraction = 0.1;
        })
    }),
    ("churn", "flash_crowd_fraction", |c, u| {
        churn(c, |w| w.flash_crowd.fraction = outside(0.0, 0.9, u))
    }),
    ("partition-waves", "waves", |c, _| {
        partitions(c, |w| w.waves = 0)
    }),
    ("partition-waves", "waves", |c, u| {
        partitions(c, |w| w.waves = 255 + count(u))
    }),
    ("partition-waves", "outage_secs", |c, _| {
        partitions(c, |w| w.outage = SimDuration::ZERO)
    }),
    ("partition-waves", "fraction", |c, u| {
        partitions(c, |w| w.fraction = outside(0.0, 0.9, u))
    }),
    ("diurnal", "participation", |c, u| {
        diurnal(c, |w| w.participation = outside(0.0, 1.0, u))
    }),
    ("diurnal", "cycle_secs", |c, _| {
        diurnal(c, |w| w.cycle = SimDuration::ZERO)
    }),
    ("diurnal", "offline_fraction", |c, u| {
        diurnal(c, |w| w.offline_fraction = outside(0.0, 1.0, u))
    }),
    ("diurnal", "warmup_secs", |c, _| {
        diurnal(c, |w| w.warmup = SimDuration::ZERO)
    }),
    ("regional-failure", "regions", |c, _| {
        regional(c, |w| w.regions = 0)
    }),
    ("regional-failure", "waves", |c, _| {
        regional(c, |w| w.waves = 0)
    }),
    ("regional-failure", "outage_secs", |c, _| {
        regional(c, |w| w.outage = SimDuration::ZERO)
    }),
    ("regional-failure", "warmup_secs", |c, _| {
        regional(c, |w| w.warmup = SimDuration::ZERO)
    }),
    ("zap", "zappers", |c, u| {
        zap(c, |w| w.zappers = outside(0.0, 1.0, u))
    }),
    ("zap", "mean_dwell_secs", |c, _| {
        zap(c, |w| w.mean_dwell = SimDuration::ZERO)
    }),
    ("zap", "warmup_secs", |c, _| {
        zap(c, |w| w.warmup = SimDuration::ZERO)
    }),
    // Adversary families
    ("baseline", "partner_bias", |c, u| {
        c.adversary = AdversaryFamily::Baseline {
            partner_bias: outside(0.0, 1.0, u),
            cover_up: u < 0.5,
            man_in_the_middle: u >= 0.5,
        }
    }),
    ("on-off", "on_periods", |c, _| {
        c.adversary = AdversaryFamily::OnOff {
            on_periods: 0,
            off_periods: 2,
        }
    }),
    ("on-off", "off_periods", |c, _| {
        c.adversary = AdversaryFamily::OnOff {
            on_periods: 2,
            off_periods: 0,
        }
    }),
    ("blame-spam", "blames_per_period", |c, _| {
        c.adversary = AdversaryFamily::BlameSpam {
            blames_per_period: 0,
            blame_value: 5.0,
        }
    }),
    ("blame-spam", "blame_value", |c, u| {
        c.adversary = AdversaryFamily::BlameSpam {
            blames_per_period: 5,
            blame_value: negative(u),
        }
    }),
    ("selective-freerider", "silent_mask", |c, _| {
        two_streams(c);
        c.adversary = AdversaryFamily::SelectiveFreerider { silent_mask: 0 }
    }),
    ("gradient-freerider", "margin", |c, u| {
        c.adversary = AdversaryFamily::GradientFreerider {
            margin: negative(u),
            step: 0.25,
        }
    }),
    ("gradient-freerider", "step", |c, u| {
        c.adversary = AdversaryFamily::GradientFreerider {
            margin: 2.0,
            step: outside_unit_open_below(u),
        }
    }),
    ("whitewasher", "margin", |c, u| {
        c.adversary = AdversaryFamily::Whitewasher {
            margin: negative(u),
            offline: SimDuration::from_secs(2),
        }
    }),
    ("whitewasher", "offline_secs", |c, _| {
        c.adversary = AdversaryFamily::Whitewasher {
            margin: 0.5,
            offline: SimDuration::ZERO,
        }
    }),
    ("adaptive-colluders", "partner_bias", |c, u| {
        c.adversary = AdversaryFamily::AdaptiveColluders {
            partner_bias: outside(0.0, 1.0, u),
            cooldown_periods: 6,
        }
    }),
    ("adaptive-colluders", "cooldown_periods", |c, _| {
        c.adversary = AdversaryFamily::AdaptiveColluders {
            partner_bias: 0.6,
            cooldown_periods: 0,
        }
    }),
    // An on-off cycle whose length overflows, and a whitewasher offline
    // longer than the run (up to the largest duration).
    ("on-off", "off_periods", |c, u| {
        let off = count(u) as u64;
        c.adversary = AdversaryFamily::OnOff {
            on_periods: u64::MAX - off + 1,
            off_periods: off,
        }
    }),
    ("whitewasher", "offline_secs", |c, u| {
        c.adversary = AdversaryFamily::Whitewasher {
            margin: 0.5,
            offline: if u < 0.5 {
                c.duration + SimDuration::from_micros(count(u) as u64)
            } else {
                SimDuration::from_micros(u64::MAX)
            },
        }
    }),
    // Cross-field rules: a family that replaces the freeriders needs them
    // (a coalition needs two), and a selective mask names two or more
    // streams the scenario runs.
    ("on-off", "freeriders", |c, _| {
        c.freeriders = None;
        c.adversary = AdversaryFamily::OnOff {
            on_periods: 2,
            off_periods: 2,
        }
    }),
    ("adaptive-colluders", "freeriders", |c, _| {
        c.freeriders.as_mut().unwrap().count = 1;
        c.adversary = AdversaryFamily::AdaptiveColluders {
            partner_bias: 0.6,
            cooldown_periods: 6,
        }
    }),
    // Silencing the only stream: the mask is within the streams, but there
    // is nothing to select between.
    ("selective-freerider", "silent_mask", |c, _| {
        c.adversary = AdversaryFamily::SelectiveFreerider { silent_mask: 0b1 }
    }),
    ("selective-freerider", "silent_mask", |c, u| {
        two_streams(c);
        c.adversary = AdversaryFamily::SelectiveFreerider {
            silent_mask: beyond_two_streams(u),
        }
    }),
];

fn smoke(seed: u64) -> ScenarioConfig {
    ScenarioRegistry::builtin().build("smoke/small", Scale::Quick, seed)
}

#[test]
fn the_unbroken_config_builds() {
    let config = smoke(7);
    assert!(config.freeriders.is_some(), "the freerider cases need them");
    assert!(build_world(config).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn one_field_out_of_range_is_a_typed_error_naming_it(
        case in 0usize..CASES.len(),
        u in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let (component, key, break_it) = CASES[case];
        let mut config = smoke(seed);
        break_it(&mut config, u);
        let built = catch_unwind(AssertUnwindSafe(|| build_world(config).map(drop)))
            .unwrap_or_else(|_| panic!("{component}.{key} (u = {u}): build_world unwound"));
        let named = matches!(
            &built,
            Err(ComponentError::InvalidParam { component: c, key: k, .. })
                if c == component && k == key
        );
        prop_assert!(named, "{component}.{key} (u = {u}): {built:?}");
    }
}

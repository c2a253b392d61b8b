//! Property test: a configuration with one numeric field out of range is a
//! typed error out of `build_world`, never an unwind.
//!
//! Every case starts from a valid `smoke/small` configuration and pushes one
//! numeric field of `ScenarioConfig`, `GossipConfig`, `LiftingConfig`,
//! `FreeriderConfig` or `LinkFaults` outside the range its `validate` method
//! declares; the generated value covers both sides of the range, NaN and the
//! infinities where the field is a float. `build_world` must return
//! `Err(InvalidParam { component, key, .. })` naming exactly that field.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lifting_runtime::builder::build_world;
use lifting_runtime::{Scale, ScenarioConfig, ScenarioRegistry};
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

/// `(component, key, break)`: every out-of-range field and the error that
/// must name it.
const CASES: [(&str, &str, Break); 26] = [
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
    ("scenario", "streams", |c, u| {
        c.streams[0].start_offset = SimDuration::from_micros(count(u) as u64)
    }),
    ("scenario", "duration", |c, _| {
        c.duration = SimDuration::ZERO
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
    #![proptest_config(ProptestConfig::with_cases(512))]

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

//! Metric definitions (the lists `BENCHMARK.json` repeats) and the arithmetic
//! that turns job measurements into metric values.

use crate::driver::{JobRun, COUNTERS, HANDLERS};
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before it is a regression.
    pub bound: f64,
    value: fn(&[JobRun]) -> f64,
}

/// What a user of `run_scenario` sees, per repetition. Job failures are not
/// a metric here (a metric must never read 0): they are the `failed` and
/// `attempted` fields of every result.
///
/// The bounds are what the host this was sized on supports, not what one
/// would wish for: its clock moves between two states about 15 % apart that
/// each last tens of seconds, so a 20 s run spreads 5-9 % between processes
/// whatever the estimator (README.md, "Noise"), and the peak heap moves up
/// to 6 % between seeds. Smaller differences are resolved by alternating
/// pairs, not by one run against a bound.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        value: |jobs| jobs.iter().map(JobRun::setup_s).sum(),
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        value: run_s,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        value: |jobs| jobs.iter().map(JobRun::wall_s).sum(),
    },
    // Simulated node-seconds per host second: unlike events/s it does not
    // change when a change alters event granularity (batching deliveries
    // lowers events/s while making the run faster).
    EndToEnd {
        name: "node_s_per_s",
        unit: "node-s/s",
        better: Better::Higher,
        bound: 0.25,
        value: |jobs| {
            let node_secs: f64 = jobs
                .iter()
                .map(|j| j.facts.nodes as f64 * j.facts.sim_secs)
                .sum();
            node_secs / run_s(jobs)
        },
    },
    EndToEnd {
        name: "peak_live_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.20,
        value: |jobs| peak_live_bytes(jobs) as f64,
    },
];

impl EndToEnd {
    /// The metric's value for one repetition.
    pub fn of(&self, repetition: &[JobRun]) -> f64 {
        (self.value)(repetition)
    }
}

fn run_s(jobs: &[JobRun]) -> f64 {
    jobs.iter().map(|j| j.run.secs()).sum()
}

fn peak_live_bytes(jobs: &[JobRun]) -> usize {
    jobs.iter().map(|j| j.peak_live_bytes).max().unwrap_or(0)
}

/// Every per-layer metric a traced run reports, in print order. Counts of
/// simulated work (`sim.events`, `*.count`, `net.*`) are statistics of the
/// simulated system, listed as lower-is-better only because the schema
/// wants a direction: a pure speed-up must leave them identical.
pub const PER_LAYER: [(&str, &str, Better); 87] = [
    ("sim.events", "count", Lower),
    ("sim.ns_per_event", "ns", Lower),
    ("sim.engine_self_s", "s", Lower),
    ("sim.engine_self_ns_per_event", "ns", Lower),
    ("sim.allocs_per_event", "allocs/event", Lower),
    ("sim.queue_ns_per_event", "ns", Lower),
    ("sim.pool.fleet_speedup", "ratio", Higher),
    ("gossip.busy_s", "s", Lower),
    ("gossip.source_emit.count", "count", Lower),
    ("gossip.source_emit.busy_s", "s", Lower),
    ("gossip.tick.count", "count", Lower),
    ("gossip.tick.busy_s", "s", Lower),
    ("gossip.propose.count", "count", Lower),
    ("gossip.propose.busy_s", "s", Lower),
    ("gossip.request.count", "count", Lower),
    ("gossip.request.busy_s", "s", Lower),
    ("gossip.serve.count", "count", Lower),
    ("gossip.serve.busy_s", "s", Lower),
    ("gossip.on_propose_ns", "ns", Lower),
    ("lifting.busy_s", "s", Lower),
    ("lifting.ack.count", "count", Lower),
    ("lifting.ack.busy_s", "s", Lower),
    ("lifting.confirm.count", "count", Lower),
    ("lifting.confirm.busy_s", "s", Lower),
    ("lifting.confirm_resp.count", "count", Lower),
    ("lifting.confirm_resp.busy_s", "s", Lower),
    ("lifting.timer.count", "count", Lower),
    ("lifting.timer.busy_s", "s", Lower),
    ("lifting.audit_tick.count", "count", Lower),
    ("lifting.audit_tick.busy_s", "s", Lower),
    ("lifting.confirm_timeouts", "count", Lower),
    ("lifting.confirm_resends", "count", Lower),
    ("lifting.confirm_aborts", "count", Lower),
    ("lifting.audit_rpc_timeouts", "count", Lower),
    ("lifting.audit_rpc_retries", "count", Lower),
    ("lifting.audits_aborted", "count", Lower),
    ("lifting.on_confirm_ns", "ns", Lower),
    ("lifting.audit_history_ns", "ns", Lower),
    ("reputation.busy_s", "s", Lower),
    ("reputation.blame.count", "count", Lower),
    ("reputation.blame.busy_s", "s", Lower),
    ("reputation.period_end.count", "count", Lower),
    ("reputation.period_end.busy_s", "s", Lower),
    ("reputation.period_end_max_s", "s", Lower),
    ("reputation.apply_blame_ns", "ns", Lower),
    ("reputation.end_period_ns_per_node", "ns", Lower),
    ("membership.busy_s", "s", Lower),
    ("membership.churn.count", "count", Lower),
    ("membership.churn.busy_s", "s", Lower),
    ("membership.sessions", "count", Lower),
    ("membership.departures", "count", Lower),
    ("membership.rejoins", "count", Lower),
    ("membership.sample_300_ns", "ns", Lower),
    ("membership.sample_10k_ns", "ns", Lower),
    ("net.messages_sent", "count", Lower),
    ("net.messages_delivered", "count", Lower),
    ("net.bytes_sent", "B", Lower),
    ("net.delivered_ratio", "ratio", Higher),
    ("net.gossip.messages_sent", "count", Lower),
    ("net.gossip.bytes_sent", "B", Lower),
    ("net.verification.messages_sent", "count", Lower),
    ("net.verification.bytes_sent", "B", Lower),
    ("net.audit.messages_sent", "count", Lower),
    ("net.audit.bytes_sent", "B", Lower),
    ("net.reputation.messages_sent", "count", Lower),
    ("net.reputation.bytes_sent", "B", Lower),
    ("net.membership.messages_sent", "count", Lower),
    ("net.membership.bytes_sent", "B", Lower),
    ("net.send_ns", "ns", Lower),
    ("runtime.setup_config_s", "s", Lower),
    ("runtime.setup_world_s", "s", Lower),
    ("runtime.setup_schedule_s", "s", Lower),
    ("runtime.readout_s", "s", Lower),
    ("runtime.drop_s", "s", Lower),
    ("runtime.allocs", "count", Lower),
    ("runtime.peak_live_bytes_per_node", "B", Lower),
    ("runtime.memory_estimate_bytes", "B", Lower),
    ("runtime.memory_estimate_ratio", "ratio", Higher),
    ("runtime.trace_overhead_ratio", "ratio", Lower),
    ("runtime.wave.waves", "count", Lower),
    ("runtime.wave.events_in_waves", "count", Lower),
    ("runtime.wave.staged_intra", "count", Lower),
    ("runtime.wave.staged_cross", "count", Lower),
    ("runtime.wave.run_s", "s", Lower),
    ("runtime.wave.slowdown", "ratio", Lower),
    ("analysis.blame_sample_ns", "ns", Lower),
    ("analysis.entropy_ns", "ns", Lower),
];

/// True for the per-layer metrics that are exact simulated statistics: equal
/// inputs must give equal values, on any commit that does not change
/// behaviour. `compare` requires them bit-identical.
pub fn is_deterministic_counter(name: &str) -> bool {
    COUNTERS.contains(&name) || name.ends_with(".count")
}

/// Sum over `jobs` of the counter named `name`.
pub fn counter_sum(jobs: &[JobRun], name: &str) -> u64 {
    jobs.iter().map(|j| j.facts.count(name)).sum()
}

/// How the traced run's time splits, in seconds.
pub struct Attribution {
    pub traced_run_s: f64,
    pub handlers_s: f64,
    pub timer_overhead_s: f64,
    /// What is left for the engine: queue, dispatch, batch pushes.
    pub engine_self_s: f64,
}

impl Attribution {
    pub fn of(traced: &[JobRun], timer_overhead_ns: f64) -> Attribution {
        let traced_run_s = run_s(traced);
        let handlers_s = traced
            .iter()
            .filter_map(|j| j.traced.as_ref())
            .flat_map(|t| t.handlers.iter())
            .map(|b| b.busy_ns as f64 / 1e9)
            .sum();
        let events = counter_sum(traced, "sim.events") as f64;
        let timer_overhead_s = timer_overhead_ns * events / 1e9;
        Attribution {
            traced_run_s,
            handlers_s,
            timer_overhead_s,
            engine_self_s: (traced_run_s - handlers_s - timer_overhead_s).max(0.0),
        }
    }

    /// Share of the traced run that handlers, engine and timer overhead
    /// together fail to explain (non-zero only when the overhead estimate
    /// exceeded what was left and `engine_self_s` was clamped).
    pub fn unexplained_share(&self) -> f64 {
        let explained = self.handlers_s + self.engine_self_s + self.timer_overhead_s;
        (explained - self.traced_run_s).abs() / self.traced_run_s
    }
}

/// The per-layer values a traced run derives from its two repetitions of the
/// same jobs — `untraced` with the adapter off, `traced` with it on. Probe
/// and leg values are appended by the caller.
pub fn per_layer(
    untraced: &[JobRun],
    traced: &[JobRun],
    timer_overhead_ns: f64,
) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    let events = counter_sum(traced, "sim.events") as f64;
    let attribution = Attribution::of(traced, timer_overhead_ns);
    put("sim.ns_per_event", run_s(untraced) * 1e9 / events);
    put("sim.engine_self_s", attribution.engine_self_s);
    put(
        "sim.engine_self_ns_per_event",
        attribution.engine_self_s * 1e9 / events,
    );
    let allocs_run: u64 = untraced.iter().map(|j| j.allocs_run).sum();
    put("sim.allocs_per_event", allocs_run as f64 / events);

    let setups = || traced.iter().filter_map(|j| j.traced.as_ref());
    let mut layer_busy: Vec<(&str, f64)> = Vec::new();
    for (kind, name) in HANDLERS.iter().enumerate() {
        let count: u64 = setups().map(|t| t.handlers[kind].count).sum();
        let busy_s = setups().map(|t| t.handlers[kind].busy_ns).sum::<u64>() as f64 / 1e9;
        put(&format!("{name}.count"), count as f64);
        put(&format!("{name}.busy_s"), busy_s);
        let layer = name
            .split('.')
            .next()
            .expect("handler names are layer.kind");
        match layer_busy.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, total)) => *total += busy_s,
            None => layer_busy.push((layer, busy_s)),
        }
    }
    for (layer, busy_s) in layer_busy {
        put(&format!("{layer}.busy_s"), busy_s);
    }
    let period_end = HANDLERS
        .iter()
        .position(|h| *h == "reputation.period_end")
        .expect("period_end is a handler kind");
    let period_end_max_ns = setups()
        .map(|t| t.handlers[period_end].max_ns)
        .max()
        .unwrap_or(0);
    put(
        "reputation.period_end_max_s",
        period_end_max_ns as f64 / 1e9,
    );

    for name in COUNTERS {
        put(name, counter_sum(traced, name) as f64);
    }
    put(
        "net.delivered_ratio",
        counter_sum(traced, "net.messages_delivered") as f64
            / counter_sum(traced, "net.messages_sent") as f64,
    );

    put(
        "runtime.setup_config_s",
        traced.iter().map(|j| j.config.secs()).sum(),
    );
    put(
        "runtime.setup_world_s",
        setups().map(|t| t.world.secs()).sum(),
    );
    put(
        "runtime.setup_schedule_s",
        setups().map(|t| t.schedule.secs()).sum(),
    );
    put(
        "runtime.readout_s",
        traced.iter().map(|j| j.readout.secs()).sum(),
    );
    put("runtime.drop_s", traced.iter().map(|j| j.drop.secs()).sum());
    put(
        "runtime.allocs",
        untraced.iter().map(|j| j.allocs).sum::<u64>() as f64,
    );
    let peak = peak_live_bytes(untraced) as f64;
    let nodes = untraced.iter().map(|j| j.facts.nodes).max().unwrap_or(1) as f64;
    put("runtime.peak_live_bytes_per_node", peak / nodes);
    // The program's own capacity-walk estimate, next to what the allocator saw.
    let estimate = untraced
        .iter()
        .map(|j| j.facts.memory_per_node_bytes * j.facts.nodes as f64)
        .fold(0.0, f64::max);
    put("runtime.memory_estimate_bytes", estimate);
    put("runtime.memory_estimate_ratio", estimate / peak);
    put(
        "runtime.trace_overhead_ratio",
        attribution.traced_run_s / run_s(untraced),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::WORKLOADS;
    use serde_json::Value;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_schema_charset() {
        let mut seen = std::collections::BTreeSet::new();
        let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
        let per_layer = PER_LAYER.iter().map(|(n, u, _)| (*n, *u));
        let workloads = WORKLOADS.iter().map(|w| (w.name, "count"));
        for (name, unit) in end_to_end.chain(per_layer).chain(workloads) {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(!valid_name("bad name") && !valid_name(".dot") && !valid_name("a/b"));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
    }

    #[test]
    fn every_handler_and_counter_is_a_listed_metric() {
        let listed = |name: &str| PER_LAYER.iter().any(|(n, _, _)| *n == name);
        for handler in HANDLERS {
            assert!(listed(&format!("{handler}.count")), "{handler}.count");
            assert!(listed(&format!("{handler}.busy_s")), "{handler}.busy_s");
        }
        for counter in COUNTERS {
            assert!(listed(counter), "{counter}");
            assert!(is_deterministic_counter(counter));
        }
        assert!(is_deterministic_counter("gossip.tick.count"));
        assert!(!is_deterministic_counter("gossip.tick.busy_s"));
    }

    /// `BENCHMARK.json` at the repo root repeats the lists above for the
    /// driver; this keeps the two from drifting apart.
    #[test]
    fn benchmark_json_repeats_these_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        let text = |v: &Value, key: &str| match v.get(key) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{key}: expected a string, found {other:?}"),
        };
        let list = |key: &str| match doc.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("{key}: expected an array, found {other:?}"),
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect();
        assert_eq!(per_layer, expected);
    }
}

//! Spans of one traced repetition, kept in memory and written out at exit.
//!
//! Tree: `workload` → `job` → `setup` {`config`, `world`, `schedule`}, `run`,
//! `readout`, `drop`. Under each `run` there is one *aggregated* child per
//! event kind (`count`, `busy_ns`, `max_ns`) plus the adapter's own
//! `timer_overhead` — ten million per-event spans are not kept. An
//! aggregated span's `start_ns`/`end_ns` are its parent's (the interval its
//! calls fell in); the part it covers is `busy_ns`. `run`'s self time —
//! duration minus the children's `busy_ns` — is the `sim` engine.

use std::time::Instant;

use serde_json::{json, Value};

use crate::driver::{Interval, JobRun, HANDLERS};

struct Spans {
    epoch: Instant,
    spans: Vec<Value>,
}

impl Spans {
    /// Records a span (with any `extra` fields) and returns its id. Spans of
    /// one job share its index as `job`.
    fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        job: Option<usize>,
        at: Interval,
        extra: Vec<(&str, Value)>,
    ) -> usize {
        let id = self.spans.len();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let mut span = vec![
            ("id", json!(id)),
            ("parent", json!(parent)),
            ("job", json!(job)),
            ("name", json!(name)),
            ("start_ns", json!(ns(at.start))),
            ("end_ns", json!(ns(at.end))),
        ];
        span.extend(extra);
        self.spans.push(Value::Object(
            span.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        ));
        id
    }
}

fn aggregate(count: u64, busy_ns: u64, max_ns: u64) -> Vec<(&'static str, Value)> {
    vec![
        ("count", json!(count)),
        ("busy_ns", json!(busy_ns)),
        ("max_ns", json!(max_ns)),
    ]
}

/// The trace document of one traced repetition of `workload`.
pub fn document(workload: &str, jobs: &[JobRun], timer_overhead_ns: f64) -> Value {
    let first = jobs.first().expect("a workload has at least one job");
    let last = jobs.last().expect("a workload has at least one job");
    let mut t = Spans {
        epoch: first.config.start,
        spans: Vec::new(),
    };
    let whole = Interval {
        start: first.config.start,
        end: last.drop.end,
    };
    let root = t.push(workload, None, None, whole, vec![]);
    for (j, job) in jobs.iter().enumerate() {
        let traced = job
            .traced
            .as_ref()
            .expect("trace documents are built from traced jobs");
        let j = Some(j);
        let whole = Interval {
            start: job.config.start,
            end: job.drop.end,
        };
        let identity = vec![
            ("scenario", json!(job.spec.scenario)),
            ("seed", json!(job.spec.seed)),
        ];
        let id = Some(t.push("job", Some(root), j, whole, identity));
        let setup = Interval {
            start: job.config.start,
            end: job.build.end,
        };
        let setup_id = Some(t.push("setup", id, j, setup, vec![]));
        t.push("config", setup_id, j, job.config, vec![]);
        t.push("world", setup_id, j, traced.world, vec![]);
        t.push("schedule", setup_id, j, traced.schedule, vec![]);
        let run_id = Some(t.push("run", id, j, job.run, vec![]));
        let mut events = 0;
        for (name, b) in HANDLERS.iter().zip(&traced.handlers) {
            events += b.count;
            if b.count > 0 {
                t.push(
                    name,
                    run_id,
                    j,
                    job.run,
                    aggregate(b.count, b.busy_ns, b.max_ns),
                );
            }
        }
        let overhead_ns = (timer_overhead_ns * events as f64) as u64;
        t.push(
            "timer_overhead",
            run_id,
            j,
            job.run,
            aggregate(events, overhead_ns, timer_overhead_ns as u64),
        );
        t.push("readout", id, j, job.readout, vec![]);
        t.push("drop", id, j, job.drop, vec![]);
    }
    json!({
        "workload": workload,
        "clock": "nanoseconds since the first span started",
        "spans": Value::Array(t.spans),
    })
}

//! The measurement protocol: closed loop, one client, one thread.
//!
//! A *job* is one scenario run to its own duration; a *repetition* runs the
//! workload's jobs back to back; a *run* is R repetitions of identical work
//! in one process, and each timing metric is the median over them. There is
//! no discarded warm-up: users pay cold start on every `run_scenario`, and
//! the median absorbs the first repetition.

use std::time::{Duration, Instant};

use serde_json::Value;

use crate::driver::{self, JobRun, Legs};
use crate::metrics::{self, Attribution, END_TO_END};
use crate::stats::Summary;
use crate::trace;
use crate::workloads::Workload;

/// A median over fewer repetitions than this is not worth printing.
const MIN_REPS: usize = 3;

pub struct Options {
    pub seed: u64,
    /// Time budget of an untraced run: repetitions are started while the
    /// next one is expected to end inside it, and never fewer than
    /// [`MIN_REPS`].
    pub seconds: f64,
    /// Exactly this many repetitions, regardless of `seconds`.
    pub reps: Option<usize>,
    /// Quick scale, one repetition, short probes: exercises every code path
    /// in a few seconds, measures nothing worth keeping.
    pub smoke: bool,
}

/// What identifies a job's simulated behaviour: equal on every repetition
/// and, for a commit that changes no behaviour, across commits.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    pub scenario: &'static str,
    pub seed: u64,
    pub events: u64,
    pub messages_sent: u64,
    pub digest: String,
}

impl Signature {
    fn of(job: &JobRun) -> Signature {
        Signature {
            scenario: job.spec.scenario,
            seed: job.spec.seed,
            events: job.facts.count("sim.events"),
            messages_sent: job.facts.count("net.messages_sent"),
            digest: job.facts.digest.clone(),
        }
    }
}

pub struct WorkloadResult {
    pub name: &'static str,
    pub jobs: u64,
    pub reps: usize,
    /// Jobs run, and how many of them failed a correctness check.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub signatures: Vec<Signature>,
    /// Untraced runs only.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Traced runs only.
    pub per_layer: Vec<(String, f64)>,
    pub trace: Option<Value>,
}

impl WorkloadResult {
    fn new(workload: &Workload) -> WorkloadResult {
        WorkloadResult {
            name: workload.name,
            jobs: workload.jobs,
            reps: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            signatures: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            trace: None,
        }
    }

    /// Counts one checked unit of work (a job, a leg, the trace's
    /// attribution) and keeps what it failed, if anything.
    fn record(&mut self, who: &str, failures: Vec<String>) {
        self.attempted += 1;
        self.failed += u64::from(!failures.is_empty());
        self.failures
            .extend(failures.into_iter().map(|f| format!("{who}: {f}")));
    }
}

/// Probe and leg values, measured once per process and reported with every
/// traced workload (each traced result carries every per-layer metric).
pub struct Shared {
    timer_overhead_ns: f64,
    values: Vec<(&'static str, f64)>,
    /// Per leg, the correctness failures it found.
    legs: Vec<(&'static str, Vec<String>)>,
}

impl Shared {
    pub fn measure(options: &Options) -> Shared {
        let min = Duration::from_millis(if options.smoke { 5 } else { 200 });
        let mut values = driver::probes(min, options.seed);
        let mut legs = Vec::new();
        for (name, Legs { metrics, failures }) in [
            ("wave leg", driver::wave_leg(options.smoke, options.seed)),
            ("pool leg", driver::pool_leg(options.smoke, options.seed)),
        ] {
            values.extend(metrics);
            legs.push((name, failures));
        }
        Shared {
            timer_overhead_ns: driver::timer_overhead_ns(),
            values,
            legs,
        }
    }
}

/// Runs one repetition and folds its jobs' check results into `result`.
fn repetition(
    workload: &Workload,
    options: &Options,
    traced: bool,
    result: &mut WorkloadResult,
) -> Vec<JobRun> {
    let jobs: Vec<JobRun> = workload
        .job_specs(options.seed)
        .into_iter()
        .map(|spec| driver::run_job(spec, options.smoke, traced))
        .collect();
    for (j, job) in jobs.iter().enumerate() {
        let mut failures = workload.failures(&job.facts, options.smoke);
        let signature = Signature::of(job);
        match result.signatures.get(j) {
            None => result.signatures.push(signature),
            Some(first) if *first != signature => failures.push(format!(
                "not deterministic: first {first:?}, now {signature:?}"
            )),
            Some(_) => {}
        }
        result.record(
            &format!("{} seed {}", job.spec.scenario, job.spec.seed),
            failures,
        );
    }
    jobs
}

/// The untraced run: R repetitions, end-to-end metrics as medians over them.
pub fn untraced(workload: &Workload, options: &Options) -> WorkloadResult {
    let mut result = WorkloadResult::new(workload);
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let fixed_reps = options.reps.or(options.smoke.then_some(1));
    let started = Instant::now();
    let mut longest = 0.0f64;
    loop {
        let rep_started = Instant::now();
        let jobs = repetition(workload, options, false, &mut result);
        for (metric, column) in END_TO_END.iter().zip(&mut values) {
            column.push(metric.of(&jobs));
        }
        result.reps += 1;
        longest = longest.max(rep_started.elapsed().as_secs_f64());
        let done = match fixed_reps {
            Some(reps) => result.reps >= reps,
            None => {
                result.reps >= MIN_REPS
                    && started.elapsed().as_secs_f64() + longest > options.seconds
            }
        };
        if done {
            break;
        }
    }
    result.end_to_end = END_TO_END
        .iter()
        .zip(&values)
        .map(|(metric, column)| (metric.name, Summary::of(column)))
        .collect();
    result
}

/// The traced run: the workload once with the adapter off (the base of
/// `trace_overhead_ratio` and the allocation counts) and once with it on.
pub fn traced(workload: &Workload, options: &Options, shared: &Shared) -> WorkloadResult {
    let mut result = WorkloadResult::new(workload);
    let plain = repetition(workload, options, false, &mut result);
    let timed = repetition(workload, options, true, &mut result);
    result.reps = 2;

    let a = Attribution::of(&timed, shared.timer_overhead_ns);
    let unexplained = (a.unexplained_share() > 0.02).then(|| {
        format!(
            "handlers {:.3} s + engine {:.3} s + timer overhead {:.3} s do not explain the \
             traced run of {:.3} s within 2 %",
            a.handlers_s, a.engine_self_s, a.timer_overhead_s, a.traced_run_s
        )
    });
    result.record("trace attribution", unexplained.into_iter().collect());
    for (leg, failures) in &shared.legs {
        result.record(leg, failures.clone());
    }

    result.per_layer = metrics::per_layer(&plain, &timed, shared.timer_overhead_ns);
    result
        .per_layer
        .extend(shared.values.iter().map(|(n, v)| (n.to_string(), *v)));
    result.trace = Some(trace::document(
        workload.name,
        &timed,
        shared.timer_overhead_ns,
    ));
    result
}

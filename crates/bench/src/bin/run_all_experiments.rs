//! Runs every experiment of the paper as a parallel job queue and writes a
//! JSON summary (with per-experiment wall-clock timings) to
//! `experiments_summary.json`, plus a timing snapshot to
//! `BENCH_experiments.json` for the performance trajectory, and prints the
//! paper's claims (`lifting_bench::claims`) as a markdown table.
//!
//! Without flags the suite runs at the paper's own operating point (300
//! PlanetLab nodes, full Monte-Carlo populations). Flags:
//! * `--quick` shrinks every experiment for a smoke run (the scale tracked by
//!   the CI bench-smoke step);
//! * `--sequential` forces a single worker (`LIFTING_WORKERS=1`), which
//!   produces **identical** figure/table numbers — only the wall-clock
//!   changes;
//! * `--filter <substring>` runs only the jobs whose name contains the
//!   substring (e.g. `--filter multistream`) and writes a partial summary
//!   marked `"filtered": true` — a development loop need not pay for the
//!   full suite.
//!
//! The scale sweep stops at `scale/10k` so the paper-scale suite stays
//! around a minute; `run_scenario scale/100k` runs the largest population.
//!
//! A bad command line (an unknown flag, a flag without its value, a filter
//! that matches no job) is reported as a usage error, exit status 2.

use std::any::Any;
use std::time::Instant;

use lifting_bench::claims::{self, Evidence};
use lifting_bench::experiments::*;
use lifting_bench::Usage;
use lifting_runtime::{run_jobs_parallel, ScenarioRegistry};
use serde_json::{json, to_value, Value};

const USAGE: Usage =
    Usage("usage: run_all_experiments [--quick] [--sequential] [--filter SUBSTRING]");

/// The scenario-family jobs, `(summary section, registry family, seed)`:
/// each sweeps every registered member of its family and reports one
/// `FamilyRow` per scenario.
const FAMILY_SECTIONS: [(&str, &str, u64); 6] = [
    ("adversaries", "adversary", 21),
    ("churn", "churn", 33),
    ("multistream", "multistream", 44),
    ("resilience", "resilience", 55),
    ("workload", "workload", 77),
    ("scale_sweep", "scale", 66),
];

/// A family job is named after its section; the `scale_sweep` section's job
/// is plain `scale` (its `timings_secs` key, what `--filter scale` matches).
fn family_job_name(section: &'static str) -> &'static str {
    section.strip_suffix("_sweep").unwrap_or(section)
}

/// A job's result: rendered for the summary, and kept typed for the claims.
type Output = (Value, Box<dyn Any + Send>);

type Job = (&'static str, Box<dyn Fn() -> Output + Send + Sync>);

fn job<T: serde::Serialize + Send + 'static>(
    name: &'static str,
    run: impl Fn() -> T + Send + Sync + 'static,
) -> Job {
    (
        name,
        Box::new(move || {
            let result = run();
            (to_value(&result), Box::new(result))
        }),
    )
}

fn build_jobs(scale: Scale) -> Vec<Job> {
    // Every experiment is a job, seeded with its figure or table number (as
    // `claims::Evidence::run` seeds the ones it reads); independent scenarios
    // *inside* an experiment fan out further through the same pool (fig01's
    // three cases, fig12's delta sweep, the table grids), and fig14's two pdcc
    // runs are jobs of their own.
    let mut jobs = vec![
        job("fig01", move || fig01_stream_health(scale, 1)),
        job("fig10", move || fig10_wrongful_blames(scale, 10)),
        job("fig11", move || fig11_score_distributions(scale, 11)),
        job("fig12", move || fig12_detection_vs_delta(scale, 12)),
        job("fig13", move || fig13_history_entropy(scale, 13)),
        job("fig14_pdcc_1", move || {
            fig14_planetlab_scores(scale, 1.0, 14)
        }),
        job("fig14_pdcc_05", move || {
            fig14_planetlab_scores(scale, 0.5, 14)
        }),
        job("table3", move || table03_verification_overhead(scale, 3)),
        job("table5", move || table05_practical_overhead(scale, 5)),
        job("layer_traffic", move || layer_traffic_breakdown(scale, 30)),
    ];
    for (section, family, seed) in FAMILY_SECTIONS {
        let name = family_job_name(section);
        // The scale family runs one population at a time; every other
        // family fans out on the pool.
        jobs.push(if family == "scale" {
            job(name, move || scale_sweep(scale, seed))
        } else {
            job(name, move || family_sweep(family, scale, seed))
        });
    }
    jobs
}

/// Results of one full sweep.
struct SuiteRun {
    /// `(name, figure/table value, typed result, seconds)` per experiment, in
    /// job order.
    results: Vec<(&'static str, Value, Box<dyn Any + Send>, f64)>,
    total_secs: f64,
}

impl SuiteRun {
    fn by_name(&self, name: &str) -> &Value {
        &self.result(name).1
    }

    fn result(&self, name: &str) -> &(&'static str, Value, Box<dyn Any + Send>, f64) {
        self.results
            .iter()
            .find(|(n, ..)| *n == name)
            .expect("known experiment name")
    }

    /// The typed result of job `name`.
    fn typed<T: Clone + 'static>(&self, name: &str) -> T {
        self.result(name)
            .2
            .downcast_ref::<T>()
            .expect("job result of the expected type")
            .clone()
    }

    /// The results the claims table reads.
    fn evidence(&self) -> Evidence {
        Evidence {
            fig10: self.typed("fig10"),
            fig11: self.typed("fig11"),
            fig12: self.typed("fig12"),
            fig13: self.typed("fig13"),
            fig14: self.typed("fig14_pdcc_1"),
            table3: self.typed("table3"),
            table5: self.typed("table5"),
        }
    }

    fn timings(&self) -> Value {
        Value::Object(
            self.results
                .iter()
                .map(|(name, .., secs)| (name.to_string(), Value::Float(*secs)))
                .collect(),
        )
    }
}

fn run_suite(scale: Scale, filter: Option<&str>) -> SuiteRun {
    let mut jobs = build_jobs(scale);
    if let Some(needle) = filter {
        jobs.retain(|(name, _)| name.contains(needle));
    }
    eprintln!("running all experiments at {scale:?} scale ...");
    let wall_start = Instant::now();
    let results: Vec<(Output, f64)> = run_jobs_parallel(jobs.len(), |i| {
        let (name, run) = &jobs[i];
        eprintln!("[{}/{}] {scale:?}/{name} ...", i + 1, jobs.len());
        let start = Instant::now();
        let value = run();
        let secs = start.elapsed().as_secs_f64();
        eprintln!(
            "[{}/{}] {scale:?}/{name} done in {secs:.2}s",
            i + 1,
            jobs.len()
        );
        (value, secs)
    });
    let total_secs = wall_start.elapsed().as_secs_f64();
    SuiteRun {
        results: jobs
            .iter()
            .zip(results)
            .map(|((name, _), ((value, typed), secs))| (*name, value, typed, secs))
            .collect(),
        total_secs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(extra) = USAGE
        .positionals(&args, &["--quick", "--sequential"], &["--filter"])
        .first()
    {
        USAGE.error(format_args!("unexpected argument {extra:?}"));
    }
    let filter: Option<String> = USAGE.flag_value(&args, "--filter", "a substring");
    if let Some(needle) = &filter {
        let jobs = build_jobs(Scale::Quick);
        let known: Vec<&str> = jobs.iter().map(|(name, _)| *name).collect();
        if !known.iter().any(|name| name.contains(needle.as_str())) {
            USAGE.error(format_args!(
                "--filter {needle:?} matches no experiment; known jobs: {known:?}"
            ));
        }
    }
    if args.iter().any(|a| a == "--sequential") {
        std::env::set_var(lifting_sim::pool::WORKERS_ENV, "1");
    }
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let workers = lifting_sim::worker_count(usize::MAX);
    eprintln!("experiment suite on {workers} worker(s)");
    let run = run_suite(scale, filter.as_deref());

    let claims = filter.is_none().then(|| claims::table(&run.evidence()));
    let mut sections: Vec<(&str, Value)> = vec![
        ("scale", to_value(&format!("{scale:?}"))),
        ("workers", to_value(&workers)),
    ];
    if filter.is_some() {
        // Partial development summary: just the filtered jobs, flagged so it
        // is never mistaken for (or committed as) the full suite's output.
        sections.insert(0, ("filtered", Value::Bool(true)));
        for (name, value, ..) in &run.results {
            sections.push((name, value.clone()));
        }
        sections.push(("timings_secs", run.timings()));
    } else {
        let scenario_names = ScenarioRegistry::builtin().names();
        sections.push(("scenarios", to_value(&scenario_names)));
        for name in ["fig01", "fig10", "fig11", "fig12", "fig13"] {
            sections.push((name, run.by_name(name).clone()));
        }
        sections.push((
            "fig14",
            json!({
                "pdcc_1": run.by_name("fig14_pdcc_1"),
                "pdcc_05": run.by_name("fig14_pdcc_05"),
            }),
        ));
        for name in ["table3", "table5", "layer_traffic"] {
            sections.push((name, run.by_name(name).clone()));
        }
        sections.push(("claims", to_value(&claims)));
        for (section, _, _) in FAMILY_SECTIONS {
            sections.push((section, run.by_name(family_job_name(section)).clone()));
        }
        sections.extend([
            // Times a sweep's η calibration fell back to the paper's −9.75
            // because its honest sample was empty; anything non-zero means a
            // reported detection rate ran against an uncalibrated threshold.
            ("eta_fallbacks", to_value(&paper_eta_fallback_count())),
            ("timings_secs", run.timings()),
            ("total_wall_secs", to_value(&run.total_secs)),
        ]);
    }
    let summary = Value::Object(
        sections
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
    );
    let path = "experiments_summary.json";
    std::fs::write(path, serde_json::to_string_pretty(&summary).unwrap()).expect("write summary");
    println!("wrote {path}");

    // Timing snapshot: the perf trajectory across PRs. With workers > 1 the
    // per-experiment spans overlap and include descheduled time (their sum
    // exceeds the wall clock); `contended` flags that, and `total_wall_secs`
    // is the number to track across runs. Use `--sequential` when
    // per-experiment spans themselves must be comparable.
    let bench = json!({
        "suite": "run_all_experiments",
        "scale": format!("{scale:?}"),
        "workers": workers,
        "contended": workers > 1,
        "experiments_secs": run.timings(),
        "total_wall_secs": run.total_secs,
    });
    let bench_path = "BENCH_experiments.json";
    std::fs::write(bench_path, serde_json::to_string_pretty(&bench).unwrap())
        .expect("write bench snapshot");
    println!("wrote {bench_path}");

    if let Some(claims) = &claims {
        print!("{}", claims::markdown(claims));
    }
    println!(
        "{scale:?} scale wall-clock: {:.2}s on {workers} worker(s)",
        run.total_secs
    );
}

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

use std::time::Instant;

use lifting_bench::claims::{self, Evidence};
use lifting_bench::experiments::*;
use lifting_bench::Usage;
use lifting_runtime::{run_jobs_parallel, ScenarioRegistry, FIG14_PDCCS};
use serde_json::{json, to_value, Value};

const USAGE: Usage =
    Usage("usage: run_all_experiments [--quick] [--sequential] [--filter SUBSTRING]");

/// The registry families the suite sweeps, `(family, seed)`: each is one job
/// and one summary section of the family's name, with one `FamilyRow` per
/// registered member. Every family is here but `fig14`, whose runs are read
/// at timed snapshots by a job of their own, and `smoke`, a test fixture.
const FAMILIES: [(&str, u64); 10] = [
    ("fig01", 1),
    ("table03", 3),
    ("table05", 5),
    ("headline", 30),
    ("adversary", 21),
    ("churn", 33),
    ("multistream", 44),
    ("resilience", 55),
    ("scale", 66),
    ("workload", 77),
];

/// A job's result, kept typed for the claims.
enum Output {
    Fig10(WrongfulBlameResult),
    Fig11(ScoreDistributionResult),
    Fig12(DetectionSweep),
    Fig13(EntropyResult),
    /// One result per pdcc of `FIG14_PDCCS`.
    Fig14(Vec<PlanetlabScoresResult>),
    Family(Vec<FamilyRow>),
}

impl Output {
    /// The job's summary section.
    fn value(&self) -> Value {
        match self {
            Output::Fig10(result) => to_value(result),
            Output::Fig11(result) => to_value(result),
            Output::Fig12(result) => to_value(result),
            Output::Fig13(result) => to_value(result),
            Output::Fig14(results) => json!({
                "pdcc_1": to_value(&results[0]),
                "pdcc_05": to_value(&results[1]),
            }),
            Output::Family(rows) => to_value(rows),
        }
    }
}

type Job = (&'static str, Box<dyn Fn() -> Output + Send + Sync>);

fn job(name: &'static str, run: impl Fn() -> Output + Send + Sync + 'static) -> Job {
    (name, Box::new(run))
}

fn build_jobs(scale: Scale) -> Vec<Job> {
    use Output::*;
    // Every experiment is a job, seeded with its figure or table number (as
    // `claims::Evidence::run` seeds the ones it reads); independent scenarios
    // *inside* an experiment fan out further through the same pool (a
    // family's members, fig12's delta sweep, fig14's two pdcc runs).
    let fig14 = move |i: usize| fig14_planetlab_scores(scale, FIG14_PDCCS[i], 14);
    let mut jobs = vec![
        job("fig10", move || Fig10(fig10_wrongful_blames(scale, 10))),
        job("fig11", move || Fig11(fig11_score_distributions(scale, 11))),
        job("fig12", move || Fig12(fig12_detection_vs_delta(scale, 12))),
        job("fig13", move || Fig13(fig13_history_entropy(scale, 13))),
        job("fig14", move || {
            Fig14(run_jobs_parallel(FIG14_PDCCS.len(), fig14))
        }),
    ];
    // The scale family runs one population at a time; every other family
    // fans out on the pool.
    jobs.extend(FAMILIES.map(|(family, seed)| match family {
        "scale" => job(family, move || Family(scale_sweep(scale, seed))),
        _ => job(family, move || Family(family_sweep(family, scale, seed))),
    }));
    jobs
}

/// Results of one full sweep.
struct SuiteRun {
    /// `(name, result, seconds)` per experiment, in job order.
    results: Vec<(&'static str, Output, f64)>,
    total_secs: f64,
}

impl SuiteRun {
    /// The results the claims table reads.
    fn evidence(&self) -> Evidence {
        macro_rules! read {
            ($job:literal, $variant:ident) => {
                match self.results.iter().find(|(name, ..)| *name == $job) {
                    Some((_, Output::$variant(result), _)) => result.clone(),
                    _ => unreachable!("job {} returns {}", $job, stringify!($variant)),
                }
            };
        }
        Evidence {
            fig10: read!("fig10", Fig10),
            fig11: read!("fig11", Fig11),
            fig12: read!("fig12", Fig12),
            fig13: read!("fig13", Fig13),
            fig14: read!("fig14", Fig14).swap_remove(0),
            table03: read!("table03", Family),
            table05: read!("table05", Family),
        }
    }

    fn timings(&self) -> Value {
        Value::Object(
            self.results
                .iter()
                .map(|(name, _, secs)| (name.to_string(), Value::Float(*secs)))
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
    let n = jobs.len();
    let results: Vec<(Output, f64)> = run_jobs_parallel(n, |i| {
        let (name, run) = &jobs[i];
        eprintln!("[{}/{n}] {scale:?}/{name} ...", i + 1);
        let start = Instant::now();
        let output = run();
        let secs = start.elapsed().as_secs_f64();
        eprintln!("[{}/{n}] {scale:?}/{name} done in {secs:.2}s", i + 1);
        (output, secs)
    });
    let total_secs = wall_start.elapsed().as_secs_f64();
    SuiteRun {
        results: jobs
            .iter()
            .zip(results)
            .map(|((name, _), (output, secs))| (*name, output, secs))
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
    let mut sections: Vec<(String, Value)> = vec![
        // Not `scale`: that section is the scale family's.
        ("run_scale".into(), to_value(&format!("{scale:?}"))),
        ("workers".into(), to_value(&workers)),
    ];
    if let Some(claims) = &claims {
        let scenario_names = ScenarioRegistry::builtin().names();
        sections.push(("scenarios".into(), to_value(&scenario_names)));
        sections.push(("claims".into(), to_value(claims)));
    } else {
        // Partial development summary: just the filtered jobs, flagged so it
        // is never mistaken for (or committed as) the full suite's output.
        sections.insert(0, ("filtered".into(), Value::Bool(true)));
    }
    for (name, output, _) in &run.results {
        sections.push((name.to_string(), output.value()));
    }
    if claims.is_some() {
        // Times a sweep's η calibration fell back to the paper's −9.75
        // because its honest sample was empty; anything non-zero means a
        // reported detection rate ran against an uncalibrated threshold.
        sections.push((
            "eta_fallbacks".into(),
            to_value(&paper_eta_fallback_count()),
        ));
        sections.push(("total_wall_secs".into(), to_value(&run.total_secs)));
    }
    sections.push(("timings_secs".into(), run.timings()));
    let summary = Value::Object(sections);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_family_table_sweeps_every_registry_family_but_fig14_and_smoke() {
        let mut swept: Vec<&str> = FAMILIES.iter().map(|(family, _)| *family).collect();
        swept.extend(["fig14", "smoke"]);
        swept.sort_unstable();
        let registry = ScenarioRegistry::builtin();
        let mut families: Vec<&str> = registry.families().into_iter().map(|(f, _)| f).collect();
        families.sort_unstable();
        assert_eq!(swept, families);
    }
}

//! The repo benchmark. See `README.md` beside `Cargo.toml` for the metric
//! and workload definitions; `BENCHMARK.json` at the repo root names the
//! command the driver runs.
//!
//! ```text
//! lifting-benchmark run [--workload NAME] [--seed N] [--seconds S] [--reps R]
//!                       [--trace [0|1]] [--smoke] [--out FILE]
//! lifting-benchmark compare A.json B.json
//! ```

mod alloc;
mod compare;
mod driver;
mod json;
mod measure;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use serde_json::{json, Value};

use measure::{Options, Shared};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage: lifting-benchmark run [--workload NAME] [--seed N] [--seconds S] \
                     [--reps R] [--trace [0|1]] [--smoke] [--out FILE]\n       \
                     lifting-benchmark compare A.json B.json";

/// Result and trace files land here unless `--out` says otherwise; relative
/// to the working directory, which is the repo root for the documented
/// command.
const OUT_DIR: &str = "benchmark/out";

struct RunArgs {
    workloads: Vec<&'static Workload>,
    options: Options,
    trace: bool,
    out: String,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        options: Options {
            seed: 30,
            seconds: 20.0,
            reps: None,
            smoke: false,
        },
        trace: false,
        out: format!("{OUT_DIR}/result.json"),
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {names:?}")
                })?;
                run.workloads = vec![known];
            }
            "--seed" => {
                run.options.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                run.options.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: not a positive number")?;
            }
            "--reps" => {
                run.options.reps = Some(
                    value("a count")?
                        .parse()
                        .ok()
                        .filter(|r| *r >= 1)
                        .ok_or("--reps: not a positive integer")?,
                );
            }
            "--out" => run.out = value("a file name")?.clone(),
            "--smoke" => run.options.smoke = true,
            // The driver passes `--trace 0|1`; by hand, a bare `--trace` is on.
            "--trace" => {
                run.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(run)
}

fn write_json(path: &str, value: &Value) -> Result<(), String> {
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).expect("the vendored writer cannot fail");
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))
}

fn run(args: RunArgs) -> Result<bool, String> {
    let meta = report::meta(&args.options, args.trace);
    let shared = args.trace.then(|| Shared::measure(&args.options));
    let mut sections = Vec::new();
    let mut result_lines = Vec::new();
    let mut correct = true;
    for workload in args.workloads {
        println!("# {}: {}", workload.name, workload.why);
        let result = match &shared {
            Some(shared) => measure::traced(workload, &args.options, shared),
            None => measure::untraced(workload, &args.options),
        };
        report::print_workload(&result);
        if let Some(trace) = &result.trace {
            write_json(&format!("{OUT_DIR}/trace-{}.json", workload.name), trace)?;
        }
        sections.push(report::workload_json(&result));
        result_lines.push(report::result_line(&result));
        correct &= result.failed == 0;
    }
    write_json(
        &args.out,
        &json!({"meta": meta, "workloads": Value::Array(sections)}),
    )?;
    // Last, once every file is written: the driver reads the final line of
    // standard output as the run's result.
    for line in result_lines {
        println!("{line}");
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => parse_run(rest).and_then(run),
        Some((command, [base, candidate])) if command == "compare" => {
            compare::compare_files(base, candidate)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_run;

    fn parse(args: &[&str]) -> Result<super::RunArgs, String> {
        parse_run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_calling_convention_parses() {
        let run = parse(&[
            "--workload",
            "scale-10k",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(run.workloads.len(), 1);
        assert_eq!(run.workloads[0].name, "scale-10k");
        assert_eq!((run.options.seed, run.options.seconds), (7, 20.0));
        assert!(run.trace);
        assert!(!parse(&["--trace", "0"]).unwrap().trace);
    }

    #[test]
    fn a_bare_trace_flag_is_on_and_leaves_the_next_flag_alone() {
        let run = parse(&["--trace", "--smoke", "--reps", "2"]).unwrap();
        assert!(run.trace && run.options.smoke);
        assert_eq!(run.options.reps, Some(2));
        assert_eq!(run.workloads.len(), 4);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--reps", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}

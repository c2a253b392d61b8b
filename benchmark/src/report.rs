//! What a run prints and writes: `workload metric value unit` lines, the
//! one-line result object the driver reads, and the result file.

use std::process::Command;

use serde_json::{json, Value};

use crate::measure::{Options, Signature, WorkloadResult};
use crate::metrics::{END_TO_END, PER_LAYER};

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let mut command = Command::new(program);
    command.args(args);
    for (key, value) in env {
        command.env(key, value);
    }
    // `output` waits for the child, so none outlives the benchmark.
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken; recorded in every result file.
pub fn meta(options: &Options, trace: bool) -> Value {
    // The ceiling keeps git from looking for a repository above the
    // checkout when the checkout itself is not one.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    let commit = first_line_of(
        "git",
        &[
            "describe",
            "--always",
            "--dirty",
            "--abbrev=40",
            "--exclude=*",
        ],
        &[("GIT_CEILING_DIRECTORIES", &ceiling)],
    );
    let loadavg_1m = std::fs::read_to_string("/proc/loadavg").ok().and_then(|s| {
        s.split_whitespace()
            .next()
            .and_then(|f| f.parse::<f64>().ok())
    });
    json!({
        "commit": commit,
        "rustc": first_line_of("rustc", &["-V"], &[]),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "loadavg_1m": loadavg_1m,
        "seed": options.seed,
        "seconds": options.seconds,
        "reps": options.reps,
        "smoke": options.smoke,
        "trace": trace,
    })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("{name} is not a defined metric"))
}

fn signature_json(s: &Signature) -> Value {
    json!({
        "scenario": s.scenario,
        "seed": s.seed,
        "events": s.events,
        "messages_sent": s.messages_sent,
        "digest": s.digest,
    })
}

/// One workload's section of the result file.
pub fn workload_json(r: &WorkloadResult) -> Value {
    let end_to_end = r
        .end_to_end
        .iter()
        .zip(&END_TO_END)
        .map(|((name, s), metric)| {
            let entry = json!({
                "value": s.median,
                "unit": metric.unit,
                "min": s.min,
                "q1": s.q1,
                "q3": s.q3,
                "n": s.values.len(),
                "noisy": s.spread() > metric.bound,
                "values": s.values,
            });
            (name.to_string(), entry)
        })
        .collect();
    let per_layer = per_layer_in_order(r)
        .into_iter()
        .map(|(name, value)| {
            (
                name.to_string(),
                json!({"value": value, "unit": unit_of(name)}),
            )
        })
        .collect();
    json!({
        "name": r.name,
        "jobs": r.jobs,
        "reps": r.reps,
        "attempted": r.attempted,
        "failed": r.failed,
        "failures": r.failures,
        "signatures": r.signatures.iter().map(signature_json).collect::<Vec<_>>(),
        "end_to_end": Value::Object(end_to_end),
        "per_layer": Value::Object(per_layer),
    })
}

/// A traced result's per-layer values in [`PER_LAYER`] order (none for an
/// untraced result). Every listed metric must have been measured: a missing
/// one is a bug in this program.
fn per_layer_in_order(r: &WorkloadResult) -> Vec<(&'static str, f64)> {
    if r.per_layer.is_empty() {
        return Vec::new();
    }
    let value_of = |name: &str| {
        r.per_layer
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
            .1
    };
    PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, value_of(name)))
        .collect()
}

/// Prints one workload: every metric by name with its unit, the digests and
/// any failures.
pub fn print_workload(r: &WorkloadResult) {
    for ((name, s), metric) in r.end_to_end.iter().zip(&END_TO_END) {
        let noisy = if s.spread() > metric.bound {
            " noisy"
        } else {
            ""
        };
        println!(
            "{} {name} {} {}  (min {} q1 {} q3 {} n {}{noisy})",
            r.name,
            s.median,
            metric.unit,
            s.min,
            s.q1,
            s.q3,
            s.values.len()
        );
    }
    for (name, value) in per_layer_in_order(r) {
        println!("{} {name} {value} {}", r.name, unit_of(name));
    }
    for s in &r.signatures {
        println!(
            "{} digest seed {} events {} messages_sent {} {}",
            r.name, s.seed, s.events, s.messages_sent, s.digest
        );
    }
    for failure in &r.failures {
        println!("{} FAILED {failure}", r.name);
    }
}

/// The one-line result object the driver reads: the end-to-end medians of an
/// untraced run, or every per-layer metric of a traced one.
pub fn result_line(r: &WorkloadResult) -> String {
    let metrics: Vec<(String, Value)> = r
        .end_to_end
        .iter()
        .map(|(name, s)| (*name, s.median))
        .chain(per_layer_in_order(r))
        .map(|(name, value)| {
            (
                name.to_string(),
                json!({"value": value, "unit": unit_of(name)}),
            )
        })
        .collect();
    let line = json!({
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": Value::Object(metrics),
    });
    serde_json::to_string(&line).expect("the vendored writer cannot fail")
}

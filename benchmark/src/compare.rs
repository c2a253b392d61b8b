//! `compare A.json B.json`: A is the base (the parent commit, or the first of
//! two sets of runs), B the candidate.
//!
//! Per workload and end-to-end metric it prints both medians, the ratio with
//! its base, the bound and a verdict:
//!
//! * `unresolved` — either side's interquartile spread is wider than the
//!   bound, so the medians cannot be told apart at that resolution; unless
//!   every repetition of B reads better than every repetition of A, which
//!   is `ok` at any spread;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `ok` — otherwise.
//!
//! Deterministic counters (job signatures, and per-layer counts when both
//! files are traced) must be identical. Any `worse` or differing counter
//! makes the comparison fail.

use serde_json::Value;

use crate::json;
use crate::metrics::{is_deterministic_counter, Better, END_TO_END};
use crate::stats::Summary;

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        _ => &[],
    }
}

fn entries(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Object(entries) => entries,
        _ => &[],
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        _ => "",
    }
}

fn summary(metric: &Value) -> Result<Summary, String> {
    let values: Vec<f64> = items(field(metric, "values")?)
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    if values.is_empty() {
        return Err("a metric without values".to_string());
    }
    Ok(Summary::of(&values))
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The rule in the module docs, on two summaries of one metric.
pub fn verdict(base: &Summary, candidate: &Summary, better: Better, bound: f64) -> Verdict {
    let is_better = |c: f64, b: f64| match better {
        Better::Lower => c < b,
        Better::Higher => c > b,
    };
    let worsening = match better {
        Better::Lower => (candidate.median - base.median) / base.median,
        Better::Higher => (base.median - candidate.median) / base.median,
    };
    if base.spread() > bound || candidate.spread() > bound {
        let all_better = candidate
            .values
            .iter()
            .all(|c| base.values.iter().all(|b| is_better(*c, *b)));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compares two parsed result files; prints the table and returns whether
/// the candidate passes.
pub fn compare(base: &Value, candidate: &Value) -> Result<bool, String> {
    let mut pass = true;
    let candidates = items(field(candidate, "workloads")?);
    for a in items(field(base, "workloads")?) {
        let name = text(field(a, "name")?);
        let Some(b) = candidates
            .iter()
            .find(|w| w.get("name").map(text) == Some(name))
        else {
            println!("{name}: only in the base, skipped");
            continue;
        };

        if field(a, "signatures")? != field(b, "signatures")? {
            pass = false;
            println!("{name} signatures DIFFER");
            println!("  base      {:?}", field(a, "signatures")?);
            println!("  candidate {:?}", field(b, "signatures")?);
        } else {
            println!(
                "{name} signatures identical ({} jobs)",
                items(field(a, "signatures")?).len()
            );
        }

        let (a_metrics, b_metrics) = (field(a, "end_to_end")?, field(b, "end_to_end")?);
        for metric in &END_TO_END {
            let (Some(ma), Some(mb)) = (a_metrics.get(metric.name), b_metrics.get(metric.name))
            else {
                continue; // a traced file carries no end-to-end metrics
            };
            let (sa, sb) = (summary(ma)?, summary(mb)?);
            let v = verdict(&sa, &sb, metric.better, metric.bound);
            pass &= v != Verdict::Worse;
            println!(
                "{name} {} base {} candidate {} {}  ratio {:.4} of base  (better: {}, bound {}, \
                 spread {:.4} / {:.4})  {}",
                metric.name,
                sa.median,
                sb.median,
                metric.unit,
                sb.median / sa.median,
                metric.better.as_str(),
                metric.bound,
                sa.spread(),
                sb.spread(),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }

        let b_layers = field(b, "per_layer")?;
        for (metric, va) in entries(field(a, "per_layer")?) {
            if !is_deterministic_counter(metric) {
                continue;
            }
            let Some(vb) = b_layers.get(metric) else {
                continue;
            };
            if va.get("value") != vb.get("value") {
                pass = false;
                println!(
                    "{name} {metric} DIFFERS: base {:?} candidate {:?}",
                    va.get("value"),
                    vb.get("value")
                );
            }
        }
    }
    Ok(pass)
}

/// Reads and compares two result files.
pub fn compare_files(base: &str, candidate: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    compare(&read(base)?, &read(candidate)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn tight_runs_within_the_bound_are_ok_and_beyond_it_worse() {
        let base = s(&[1.00, 1.01, 0.99, 1.00, 1.00]);
        assert_eq!(
            verdict(
                &base,
                &s(&[1.05, 1.06, 1.04, 1.05, 1.05]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            verdict(
                &base,
                &s(&[1.15, 1.16, 1.14, 1.15, 1.15]),
                Better::Lower,
                0.10
            ),
            Verdict::Worse
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(
                &base,
                &s(&[1.15, 1.16, 1.14, 1.15, 1.15]),
                Better::Higher,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            verdict(
                &base,
                &s(&[0.85, 0.86, 0.84, 0.85, 0.85]),
                Better::Higher,
                0.10
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = s(&[1.0, 1.3, 0.8, 1.2, 0.9]);
        let tight = s(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(
            verdict(&noisy, &tight, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&tight, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        let clearly_better = s(&[0.5, 0.6, 0.55, 0.5, 0.7]);
        assert_eq!(
            verdict(&noisy, &clearly_better, Better::Lower, 0.10),
            Verdict::Ok
        );
    }

    fn file(run_s: &[f64], events: u64) -> Value {
        let doc = format!(
            r#"{{"workloads":[{{"name":"headline",
                "signatures":[{{"scenario":"headline/planetlab","seed":30,"events":{events},"messages_sent":7,"digest":"x: 0x1"}}],
                "end_to_end":{{"run_s":{{"value":0,"unit":"s","values":{run_s:?}}}}},
                "per_layer":{{"sim.events":{{"value":{events}.0,"unit":"count"}},"gossip.busy_s":{{"value":{},"unit":"s"}}}}
            }}]}}"#,
            run_s[0]
        );
        json::parse(&doc).unwrap()
    }

    #[test]
    fn compare_passes_equal_files_and_fails_on_worse_or_differing_counters() {
        let base = file(&[1.0, 1.0, 1.0], 100);
        assert_eq!(compare(&base, &file(&[1.02, 1.02, 1.02], 100)), Ok(true));
        assert_eq!(compare(&base, &file(&[1.5, 1.5, 1.5], 100)), Ok(false));
        assert_eq!(compare(&base, &file(&[1.0, 1.0, 1.0], 101)), Ok(false));
    }
}

//! Runs one registered scenario by name and prints a compact JSON readout —
//! the CLI face of the scenario registry, for ad-hoc inspection:
//!
//! ```text
//! run_scenario resilience/partition-waves --quick [--seed N] [--shards K]
//! ```
//!
//! `--shards K` runs the scenario through the sharded wave executor; the
//! readout is bit-identical to the sequential one at any shard count.
//! `--exporter <name>` renders the outcome through a registered outcome
//! exporter (`json`, `summary-line`, `digest`) instead of the default
//! readout. `--list` prints every scenario grouped by family, with its
//! description and resolved component composition.
//!
//! A missing or unknown scenario name, an unknown flag, a second positional
//! argument, a flag without its value and an unknown exporter are usage
//! errors: one line on stderr (the typed `ComponentError` for the exporter)
//! plus the usage line, exit status 2. `--help` / `-h` print the usage line.

use lifting_bench::experiments::{Scale, PAPER_ETA};
use lifting_bench::{listing, Usage};
use lifting_runtime::{exporter_components, run_scenario_sharded, ScenarioRegistry};
use lifting_sim::{ParamMap, SeedSplitter};
use serde_json::{json, to_value};

const USAGE: Usage = Usage(
    "usage: run_scenario <scenario-name> [--quick] [--seed N] [--shards K] \
     [--exporter NAME] | --list",
);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positionals = USAGE.positionals(
        &args,
        &["--quick", "--list"],
        &["--seed", "--shards", "--exporter"],
    );
    let registry = ScenarioRegistry::builtin();
    if args.iter().any(|a| a == "--list") {
        print!("{}", listing::registry_listing());
        return;
    }
    let name = match positionals[..] {
        [name] => name,
        [] => USAGE.error("no scenario name given"),
        [_, extra, ..] => USAGE.error(format_args!("unexpected argument {extra:?}")),
    };
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let seed: u64 = USAGE
        .flag_value(&args, "--seed", "an integer")
        .unwrap_or(55);
    let shards: usize = USAGE
        .flag_value(&args, "--shards", "an integer")
        .unwrap_or(1);
    let exporter: Option<String> = USAGE.flag_value(&args, "--exporter", "an exporter name");
    let Some(config) = registry.try_build(name, scale, seed) else {
        USAGE.error(format_args!("unknown scenario {name:?}; see --list"));
    };
    let exporter = exporter.map(|exporter_name| {
        exporter_components()
            .build(
                &exporter_name,
                &ParamMap::new(),
                &mut SeedSplitter::new(seed),
            )
            .unwrap_or_else(|e| USAGE.error(format_args!("--exporter: {e}")))
    });

    let outcome = run_scenario_sharded(config, shards);
    if let Some(exporter) = exporter {
        println!("{}", exporter.export(name, PAPER_ETA, &outcome));
        return;
    }
    let readout = json!({
        "scenario": name,
        "scale": format!("{scale:?}"),
        "seed": seed,
        "expelled_count": outcome.expelled_count,
        "churn": to_value(&outcome.churn),
        "confirm_retry": to_value(&outcome.confirm_retry),
        "audit_rpc": to_value(&outcome.audit_rpc),
        "recovery": to_value(&outcome.recovery),
        "stream_health": to_value(&outcome.stream_health),
        "traffic_total_bytes_sent": outcome.traffic.total_bytes_sent,
        "memory_per_node_bytes": outcome.memory_per_node_bytes,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&readout).expect("serialize readout")
    );
}

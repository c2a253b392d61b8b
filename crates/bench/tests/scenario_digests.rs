//! Every registered scenario is pinned by what it declares and by what it
//! does, in two committed files:
//!
//! * `tests/scenario_digests.txt` holds the `digest` exporter's line for each
//!   scenario at quick scale, seed 7, in registry order. Column 1 is
//!   behaviour: the hash of the `RunOutcome` with `memory_per_node_bytes`
//!   zeroed. Column 2 (`mem=`) is memory: that metric. Every scenario must
//!   reproduce its line run sequentially, and again through the wave
//!   executor at 4 shards.
//! * `tests/scenario_listing.txt` holds `run_scenario --list`: every
//!   scenario's composition, each disturbance with its parameters.
//!
//! On a mismatch the fresh file is written under the test target's scratch
//! directory, and the failure names each scenario that moved, which column
//! moved, and the `cp` command that regenerates the pin.

use std::path::{Path, PathBuf};

use lifting_bench::experiments::PAPER_ETA;
use lifting_bench::listing::registry_listing;
use lifting_runtime::{
    exporter_components, run_jobs_parallel, run_scenario_sharded, Scale, ScenarioRegistry,
};
use lifting_sim::{ParamMap, SeedSplitter};

/// The seed every pinned digest is taken at.
const SEED: u64 = 7;

/// A committed file under the repository's `tests/`, with its path.
fn pinned(file: &str) -> (PathBuf, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let path = root
        .expect("crates/bench is two levels down")
        .join("tests")
        .join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    (path, text)
}

/// Writes `text` to `file` under the test target's scratch directory and
/// returns its path.
fn write_fresh(file: &str, text: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

/// The `digest` line of every registered scenario at quick scale, seed 7,
/// over `shards` shards (1: sequential dispatch), in registry order.
fn digests(shards: usize) -> String {
    let registry = ScenarioRegistry::builtin();
    let names = registry.names();
    let exporter = exporter_components()
        .build("digest", &ParamMap::new(), &mut SeedSplitter::new(SEED))
        .expect("the digest exporter builds");
    let lines = run_jobs_parallel(names.len(), |i| {
        let config = registry.build(names[i], Scale::Quick, SEED);
        let outcome = run_scenario_sharded(config, shards);
        exporter.export(names[i], PAPER_ETA, &outcome) + "\n"
    });
    lines.concat()
}

/// Splits a digest line into its scenario name, behaviour column and
/// memory column.
fn columns(line: &str) -> (&str, &str, &str) {
    let (name, rest) = line.split_once(": ").unwrap_or((line, ""));
    let (behaviour, memory) = rest.split_once(' ').unwrap_or((rest, ""));
    (name, behaviour, memory)
}

/// One line per scenario whose fresh digest differs from its pinned one,
/// naming the column that moved.
fn moved(pinned: &str, fresh: &str) -> Vec<String> {
    let pinned: Vec<_> = pinned.lines().map(columns).collect();
    let fresh: Vec<_> = fresh.lines().map(columns).collect();
    let mut moved = Vec::new();
    for (i, (was, now)) in pinned.iter().zip(&fresh).enumerate() {
        if was.0 != now.0 {
            moved.push(format!(
                "line {}: {} is pinned, {} ran",
                i + 1,
                was.0,
                now.0
            ));
        } else if was.1 != now.1 {
            moved.push(format!(
                "{}: column 1 (behaviour) {} -> {}{}",
                now.0,
                was.1,
                now.1,
                if was.2 == now.2 { "" } else { ", column 2 too" }
            ));
        } else if was.2 != now.2 {
            moved.push(format!(
                "{}: column 2 (memory) {} -> {}",
                now.0, was.2, now.2
            ));
        }
    }
    if pinned.len() != fresh.len() {
        moved.push(format!(
            "{} lines pinned, {} scenarios registered",
            pinned.len(),
            fresh.len()
        ));
    }
    moved
}

#[test]
fn pinned_digests_name_every_registered_scenario_in_order() {
    let (path, text) = pinned("scenario_digests.txt");
    let pinned: Vec<&str> = text.lines().map(|line| columns(line).0).collect();
    assert_eq!(
        pinned,
        ScenarioRegistry::builtin().names(),
        "column 1 of {} is not the registry's names in registry order",
        path.display()
    );
}

#[test]
fn every_scenario_reproduces_its_pinned_digest() {
    let (path, pinned) = pinned("scenario_digests.txt");
    let fresh = digests(1);
    if fresh == pinned {
        return;
    }
    let written = write_fresh("scenario_digests.txt", &fresh);
    panic!(
        "a scenario's pinned digest moved:\n  {}\n\
         Column 1 (0x...) is behaviour: the hash of the RunOutcome with memory_per_node_bytes \
         zeroed. Column 2 (mem=...) is memory: that metric.\n\
         Only column 2 moved: a per-node struct or buffer changed size; if intended, regenerate \
         the pin and say which table moved (profile_scenario prints the walk by component) in \
         CHANGES.md. Column 1 moved: a behaviour change.\n\
         Regenerate with: cp {} {}",
        moved(&pinned, &fresh).join("\n  "),
        written.display(),
        path.display()
    );
}

#[test]
fn every_scenario_reproduces_its_pinned_digest_at_4_shards() {
    let (path, pinned) = pinned("scenario_digests.txt");
    let fresh = digests(4);
    if fresh == pinned {
        return;
    }
    let written = write_fresh("scenario_digests_4_shards.txt", &fresh);
    panic!(
        "a scenario's outcome at 4 shards differs from its pinned sequential digest:\n  {}\n\
         unless the sequential pass moved too, Phase A or Phase B of crates/runtime/src/wave.rs \
         no longer reproduces sequential dispatch (diff -u {} {})",
        moved(&pinned, &fresh).join("\n  "),
        path.display(),
        written.display()
    );
}

#[test]
fn every_scenario_declares_its_pinned_composition() {
    let (path, pinned) = pinned("scenario_listing.txt");
    let fresh = registry_listing();
    if fresh == pinned {
        return;
    }
    let written = write_fresh("scenario_listing.txt", &fresh);
    let first = pinned
        .lines()
        .zip(fresh.lines())
        .position(|(was, now)| was != now)
        .unwrap_or(pinned.lines().count().min(fresh.lines().count()));
    panic!(
        "a scenario's declared composition diverged from {} (first at line {}); \
         if intended, regenerate with: cp {} {}",
        path.display(),
        first + 1,
        written.display(),
        path.display()
    );
}

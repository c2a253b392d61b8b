//! Memory bounds of the simulated system, read off the run itself: the rows
//! of `SystemWorld::memory_breakdown` (a deterministic capacity walk) and the
//! heap the event queue retains, at the end of the quick run
//! `profile_scenario` profiles (seed 30). The same build always reads the
//! same numbers, so each bound is the measured value plus the small margin
//! stated beside it.
//!
//! Plus two paper-scale runs, which only an optimised build runs in
//! reasonable time: the scale smoke, `scale/1k` sequentially and at 4
//! shards, and `headline/planetlab` read at 60 s and at 240 s, whose offers
//! must not grow with the run.

use lifting_runtime::{
    build_engine, run_scenario, run_scenario_sharded, Event, RunOutcome, Scale, ScenarioRegistry,
    SystemWorld,
};
use lifting_sim::{Engine, EventQueue, SimDuration, SimTime};
use serde_json::Value;

/// The engine of `name` at quick scale, seed 30, run to its end.
fn quick_run(name: &str) -> (Engine<SystemWorld>, u64) {
    let config = ScenarioRegistry::builtin().build(name, Scale::Quick, 30);
    let nodes = config.nodes.max(1) as u64;
    let end = SimTime::ZERO + config.duration;
    let mut engine = build_engine(config);
    engine.run_until(end);
    (engine, nodes)
}

/// The B/node of the memory walk's row `row`, as `profile_scenario` prints it.
fn per_node(engine: &Engine<SystemWorld>, nodes: u64, row: &str) -> u64 {
    let breakdown = engine.world().memory_breakdown();
    let (_, bytes) = breakdown
        .iter()
        .find(|(name, _)| *name == row)
        .unwrap_or_else(|| panic!("the memory walk has no {row:?} row"));
    bytes / nodes
}

/// Fails unless the queue retains at most `bound` times its pending entries.
fn assert_queue_within(engine: &Engine<SystemWorld>, name: &str, bound: f64) {
    let pending = engine.pending_events();
    let entry = EventQueue::<Event>::ENTRY_BYTES;
    let heap = engine.queue_heap_bytes();
    assert!(
        pending > 0,
        "{name}: no pending events at the end of the run"
    );
    assert!(
        heap as f64 <= bound * (pending * entry) as f64,
        "{name}: the queue retains {heap} B for {pending} pending {entry}-byte entries \
         ({:.2}x, more than {bound}x)",
        heap as f64 / (pending * entry) as f64
    );
}

#[test]
fn headline_chunk_tables_check_rings_and_queue_stay_within_their_bounds() {
    let (engine, nodes) = quick_run("headline/planetlab");

    // A node's chunk table is one 8-byte word per chunk index per plane
    // (emission time and size come from the stream's clock), grown by an
    // eighth at a time: 1 954 B/node. Grown by doubling it read 2 088; a
    // per-node copy of the stream's facts (24-byte slots) read 6 266.
    let chunks = per_node(&engine, nodes, "chunk tables");
    let bound = 2_050;
    assert!(
        chunks <= bound,
        "chunk tables {chunks} B/node (bound {bound})"
    );

    // One token-indexed ring per check kind with bitset evidence, grown by
    // an eighth at a time: 1 970 B/node together. Grown by doubling they
    // read 2 220; the hash tables with inline evidence sets they replaced
    // read 3 954.
    let checks =
        ["serve checks", "ack checks", "confirm checks"].map(|row| per_node(&engine, nodes, row));
    let sum: u64 = checks.iter().sum();
    let bound = 2_065;
    assert!(
        sum <= bound,
        "verifier check tables {sum} B/node {checks:?} (bound {bound})"
    );

    // 300 nodes whose slots hold a few events each, so partial blocks
    // weigh: 2.38x.
    assert_queue_within(&engine, "headline/planetlab", 2.75);
}

#[test]
fn scale_10k_queue_stays_within_its_bound() {
    // 10 000 nodes fill the blocks: 1.38x.
    let (engine, _) = quick_run("scale/10k");
    assert_queue_within(&engine, "scale/10k", 1.5);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper scale: ci.sh's release group runs it"
)]
fn scale_1k_runs_the_same_at_4_shards_within_its_memory_budget() {
    // n = 1 000 is the first population that uses the large-world manager
    // sampler.
    let config = ScenarioRegistry::builtin().build("scale/1k", Scale::Paper, 55);
    let sequential = run_scenario(config.clone());
    let sharded = run_scenario_sharded(config, 4);
    // Field by field, as rendered: a NaN equals itself in JSON.
    let fields = |outcome: &RunOutcome| match serde_json::to_value(outcome) {
        Value::Object(fields) => fields,
        other => panic!("an outcome renders as an object, not {other:?}"),
    };
    let diverged: Vec<String> = fields(&sequential)
        .into_iter()
        .zip(fields(&sharded))
        .filter(|((_, a), (_, b))| serde_json::to_string(a).ok() != serde_json::to_string(b).ok())
        .map(|((key, _), _)| key)
        .collect();
    assert!(
        diverged.is_empty(),
        "scale/1k at 4 shards diverged from the sequential run in {diverged:?}"
    );
    let memory = sequential.memory_per_node_bytes;
    assert!(
        0.0 < memory && memory < 1_000_000.0,
        "scale/1k memory_per_node_bytes out of range ({memory})"
    );
    let clear = sequential.stream_health.fraction_clear.last().copied();
    assert!(
        clear.is_some_and(|clear| clear > 0.2),
        "scale/1k: the stream collapsed at n = 1 000 ({clear:?})"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper scale: ci.sh's release group runs it"
)]
fn headline_offers_do_not_grow_with_the_run() {
    // A node keeps the partners of its last nh = 50 rounds, so once that
    // window fills the offers row stays put: 2 799 B/node at 60 s, 2 828 at
    // 240 s (1.01x). Keeping one offer per partner ever proposed to read
    // 12 725 and 15 577 (1.22x).
    let mut config = ScenarioRegistry::builtin().build("headline/planetlab", Scale::Paper, 30);
    config.duration = SimDuration::from_secs(240);
    let nodes = config.nodes as u64;
    let mut engine = build_engine(config);
    let mut offers_at = |secs| {
        engine.run_until(SimTime::ZERO + SimDuration::from_secs(secs));
        per_node(&engine, nodes, "offers")
    };
    let (early, late) = (offers_at(60), offers_at(240));
    assert!(
        late as f64 <= 1.05 * early as f64,
        "offers {early} B/node at 60 s, {late} at 240 s ({:.2}x, more than 1.05x)",
        late as f64 / early as f64
    );
}

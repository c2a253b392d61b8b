//! Multi-channel invariants: per-stream data planes over one shared
//! membership and reputation plane.
//!
//! The load-bearing properties: audiences isolate stream traffic, blames
//! aggregate **across** streams into one score per node, and a node expelled
//! by one channel's blames stops receiving traffic on *every* channel.

use lifting_runtime::{
    build_engine, run_scenario, run_scenarios_parallel, Scale, ScenarioRegistry,
};
use lifting_sim::{NodeId, SimTime, StreamId};

const S0: StreamId = StreamId::PRIMARY;
const S1: StreamId = StreamId(1);

#[test]
fn disjoint_audiences_isolate_stream_traffic() {
    let registry = ScenarioRegistry::builtin();
    let config = registry.build("multistream/disjoint-audiences", Scale::Quick, 5);
    let n = config.nodes;
    let mut engine = build_engine(config);
    engine.run_until(SimTime::from_secs(15));
    let world = engine.world();

    let mut first_half_s0 = 0usize;
    let mut second_half_s1 = 0usize;
    for i in 1..n {
        let node = NodeId::new(i as u32);
        let stack = &world.stacks()[i];
        let (s0_chunks, s1_chunks) = (
            stack.plane(S0).gossip.stored_chunks(),
            stack.plane(S1).gossip.stored_chunks(),
        );
        if world.directory().is_subscribed(node, S0) {
            first_half_s0 += usize::from(s0_chunks > 0);
            assert_eq!(
                s1_chunks, 0,
                "node {node} is not in channel 1's audience yet stored its chunks"
            );
        } else {
            second_half_s1 += usize::from(s1_chunks > 0);
            assert_eq!(
                s0_chunks, 0,
                "node {node} is not in channel 0's audience yet stored its chunks"
            );
        }
    }
    // Both channels actually disseminate within their own audience.
    assert!(first_half_s0 > n / 4, "channel 0 barely disseminated");
    assert!(second_half_s1 > n / 4, "channel 1 barely disseminated");
}

#[test]
fn per_stream_outcomes_cover_every_channel() {
    let registry = ScenarioRegistry::builtin();
    let outcome = run_scenario(registry.build("multistream/rate-asymmetry", Scale::Quick, 9));
    assert_eq!(outcome.per_stream.len(), 3);
    for (i, stream) in outcome.per_stream.iter().enumerate() {
        assert_eq!(stream.stream, StreamId::new(i as u16));
        assert!(stream.emitted_chunks > 0, "stream {i} never emitted");
        assert!(
            !stream.stream_health.fraction_clear.is_empty(),
            "stream {i} has no health curve"
        );
    }
    // The primary stream serves everyone; the offset streams serve 3/4.
    assert!(outcome.per_stream[0].subscribers > outcome.per_stream[1].subscribers);
    // The single-channel compatibility view mirrors stream 0.
    assert_eq!(
        outcome.stream_health.fraction_clear,
        outcome.per_stream[0].stream_health.fraction_clear
    );
    assert_eq!(
        outcome.emitted_chunks.len(),
        outcome.per_stream[0].emitted_chunks
    );
}

/// The headline cross-stream invariant: a selective freerider is honest on
/// channel 0 and silent on channel 1; every blame against it is emitted by
/// channel 1's verification, yet the expulsion bans it from **both**
/// channels — it receives zero traffic anywhere afterwards.
#[test]
fn blames_on_one_stream_expel_from_all_streams() {
    let registry = ScenarioRegistry::builtin();
    let mut config = registry.build("multistream/selective-freeriders", Scale::Quick, 13);
    // As in the churn expulsion test: disable the wrongful-blame compensation
    // so the silence drives scores below eta within a quick run.
    config.lifting.compensate_wrongful_blames = false;
    let n = config.nodes;
    let duration = config.duration;
    let mut engine = build_engine(config);

    // Step until the first expulsion (the scenario is tuned so it happens).
    let mut at = SimTime::ZERO;
    while engine.world().expelled_count() == 0 && at < SimTime::ZERO + duration {
        at += lifting_sim::SimDuration::from_secs(1);
        engine.run_until(at);
    }
    let world = engine.world();
    let expelled: Vec<NodeId> = (1..n)
        .map(|i| NodeId::new(i as u32))
        .filter(|node| world.is_expelled(*node) && world.config().is_freerider(node.index()))
        .collect();
    assert!(
        !expelled.is_empty(),
        "no freerider expulsion happened; weak test — retune seed/duration"
    );

    // The blame that did it came overwhelmingly from the silenced channel
    // (the lossy network wrongfully blames everyone a little on the honest
    // channel; the silence is what tips the score — compare blame *value*,
    // the quantity the score sums).
    let mut stored_at_expulsion = Vec::new();
    for node in &expelled {
        let (b0, b1) = (
            world.blame_value_against(*node, S0),
            world.blame_value_against(*node, S1),
        );
        assert!(
            world.blames_against(*node, S1) > 0,
            "expelled node {node} has no blames from the silenced channel"
        );
        assert!(
            b1 > b0,
            "node {node} is honest on channel 0; the silenced channel must \
             dominate its blame value ({b1:.1} vs {b0:.1})"
        );
        assert!(!world.directory().is_active(*node));
        let stack = &world.stacks()[node.index()];
        stored_at_expulsion.push((
            *node,
            stack.plane(S0).gossip.stored_chunks(),
            stack.plane(S1).gossip.stored_chunks(),
        ));
    }

    // Run the stream out: the expelled nodes must not receive one more chunk
    // on either channel (zero traffic on ALL streams, not just the one that
    // blamed them).
    engine.run_until(SimTime::ZERO + duration);
    let world = engine.world();
    for (node, s0_before, s1_before) in stored_at_expulsion {
        let stack = &world.stacks()[node.index()];
        assert_eq!(
            stack.plane(S0).gossip.stored_chunks(),
            s0_before,
            "expelled node {node} kept receiving channel 0"
        );
        assert_eq!(
            stack.plane(S1).gossip.stored_chunks(),
            s1_before,
            "expelled node {node} kept receiving channel 1"
        );
    }
}

/// Cross-stream score aggregation, the other direction: freeriders shirking
/// on both channels are expelled by the *sum* of the two channels' blames —
/// the end-to-end demonstration that manager books aggregate across streams.
#[test]
fn expulsion_is_triggered_by_blames_from_both_channels() {
    let registry = ScenarioRegistry::builtin();
    let mut config = registry.build("multistream/overlapping-audiences", Scale::Quick, 21);
    config.lifting.compensate_wrongful_blames = false;
    let duration = config.duration;
    let n = config.nodes;
    let mut engine = build_engine(config);
    engine.run_until(SimTime::ZERO + duration);
    let world = engine.world();
    let expelled: Vec<NodeId> = (1..n)
        .map(|i| NodeId::new(i as u32))
        .filter(|node| world.is_expelled(*node))
        .collect();
    assert!(
        !expelled.is_empty(),
        "no expulsion happened; weak test — retune seed/duration"
    );
    for node in &expelled {
        let (b0, b1) = (
            world.blames_against(*node, S0),
            world.blames_against(*node, S1),
        );
        assert!(
            b0 > 0 && b1 > 0,
            "expelled node {node} should have been blamed by both channels (got {b0}/{b1})"
        );
    }
}

#[test]
fn multistream_scenarios_run_parallel_eq_sequential_bit_for_bit() {
    // Belt and braces on top of the registry-wide proptest: the multistream
    // family explicitly, full quick duration, per-stream metrics included.
    let registry = ScenarioRegistry::builtin();
    for name in [
        "multistream/disjoint-audiences",
        "multistream/selective-freeriders",
    ] {
        let config = registry.build(name, Scale::Quick, 3);
        std::env::set_var(lifting_sim::pool::WORKERS_ENV, "3");
        let parallel = run_scenarios_parallel(vec![config.clone()]);
        std::env::set_var(lifting_sim::pool::WORKERS_ENV, "1");
        let sequential = run_scenario(config);
        std::env::remove_var(lifting_sim::pool::WORKERS_ENV);
        assert_eq!(parallel[0].finals.outcomes, sequential.finals.outcomes);
        assert_eq!(
            parallel[0].traffic.total_bytes_sent, sequential.traffic.total_bytes_sent,
            "{name}: bytes"
        );
        for (p, s) in parallel[0].per_stream.iter().zip(&sequential.per_stream) {
            assert_eq!(p.stream, s.stream);
            assert_eq!(p.blames, s.blames, "{name}: blames on {}", p.stream);
            assert_eq!(
                p.stream_health.fraction_clear, s.stream_health.fraction_clear,
                "{name}: health on {}",
                p.stream
            );
        }
    }
}

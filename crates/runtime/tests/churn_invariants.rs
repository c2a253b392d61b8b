//! Membership invariants under churn and expulsion.
//!
//! The directory is the single source of truth for who participates: an
//! expelled or departed node must never be handed a partner or witness slot,
//! must never receive traffic, and audits that depended on a departed
//! witness must abort instead of converting churn into blame.

use lifting_core::{
    AckPayload, Auditor, BlameReason, ConfirmResponsePayload, LiftingConfig, VerificationMessage,
    VerifierTimer,
};
use lifting_gossip::{ChunkId, GossipConfig, ProposeRound, StreamClock};
use lifting_membership::Directory;
use lifting_net::{Network, NetworkConfig, TrafficCategory};
use lifting_runtime::layers::{AuditCoordinator, AuditOutcome, Downcall, Honest, NodeStack};
use lifting_runtime::{
    build_engine, resolve_components, run_scenario, run_scenarios_parallel, ComponentSpec, Message,
    Scale, ScenarioRegistry,
};
use lifting_sim::{derive_rng, NodeId, ParamValue, SimDuration, SimTime, StreamId};

fn stack(id: u32) -> NodeStack {
    NodeStack::with_streams(
        NodeId::new(id),
        GossipConfig::planetlab(),
        LiftingConfig::planetlab(),
        true,
        Box::new(Honest),
        derive_rng(1, id as u64),
        &[StreamClock::paper()],
        0,
    )
}

fn audit_traffic(network: &Network) -> (u64, u64) {
    network
        .stats()
        .report()
        .per_category
        .iter()
        .find(|(c, _)| *c == TrafficCategory::Audit)
        .map(|(_, counters)| (counters.messages_sent, counters.bytes_sent))
        .unwrap_or((0, 0))
}

/// Runs one audit of node 1 (which logged proposals to witnesses 2 and 3 that
/// the witnesses never saw) and returns the outcome plus the audit traffic.
fn audit_with(directory: &Directory) -> (AuditOutcome, u64) {
    let mut stacks: Vec<NodeStack> = (0..4).map(stack).collect();
    let target = NodeId::new(1);
    let witnesses = vec![NodeId::new(2), NodeId::new(3)];
    // The target claims it proposed chunks to both witnesses; neither ever
    // received them, so every push is unconfirmed and the verdict is Blamed.
    let round = ProposeRound {
        period: 0,
        chunks: vec![ChunkId::primary(1), ChunkId::primary(2)].into(),
        partners: witnesses,
        by_source: vec![],
        dropped_sources: vec![],
    };
    stacks[1]
        .plane_mut(StreamId::PRIMARY)
        .verifier
        .on_propose_round_into(&round, SimTime::ZERO, &mut Vec::<Downcall>::new());
    let mut network = Network::new(4, NetworkConfig::ideal(), derive_rng(2, 0));
    // Mirror directory state onto the network, as the runtime does.
    for i in 0..4u32 {
        let node = NodeId::new(i);
        network.set_cut_off(node, !directory.is_active(node));
    }
    let mut coordinator =
        AuditCoordinator::new(Auditor::with_threshold(LiftingConfig::planetlab(), 7, 0.5));
    let outcome = coordinator.audit(
        &stacks,
        &mut network,
        directory,
        NodeId::new(0),
        target,
        StreamId::PRIMARY,
        SimTime::from_secs(1),
    );
    let (messages, _bytes) = audit_traffic(&network);
    (outcome, messages)
}

#[test]
fn expelled_witness_is_never_polled_and_aborts_negative_audits() {
    // Baseline: every witness active — the unconfirmed pushes are blamed and
    // both witnesses are polled.
    let directory = Directory::new(4);
    let (outcome, messages_all) = audit_with(&directory);
    assert!(
        matches!(outcome, AuditOutcome::Blame(_)),
        "unconfirmed pushes must be blamed in a static population, got {outcome:?}"
    );

    // Witness 2 is expelled (or departed): it must not be handed the witness
    // slot — no polls reach it — and the now witness-starved negative verdict
    // is abandoned instead of blaming the target for someone else's absence.
    let mut directory = Directory::new(4);
    directory.deactivate(NodeId::new(2));
    let (outcome, messages_partial) = audit_with(&directory);
    assert_eq!(
        outcome,
        AuditOutcome::Aborted,
        "a negative audit relying on a departed witness must abort"
    );
    assert!(
        messages_partial < messages_all,
        "polls to the inactive witness must not be sent \
         ({messages_partial} vs {messages_all} audit messages)"
    );
}

#[test]
fn departed_node_stops_receiving_traffic_and_partner_slots() {
    let registry = ScenarioRegistry::builtin();
    let mut config = registry.build("smoke/small", Scale::Quick, 42);
    config.duration = SimDuration::from_secs(8);
    let victim = NodeId::new(5);

    let mut engine = build_engine(config);
    engine.run_until(SimTime::from_secs(3));
    let before = engine.world().stacks()[victim.index()]
        .primary()
        .gossip
        .stored_chunks();
    assert!(before > 0, "the node must participate before departing");

    engine
        .world_mut()
        .force_depart(victim, SimTime::from_secs(3));
    assert!(!engine.world().directory().is_active(victim));
    assert!(engine.world().network().is_cut_off(victim));

    engine.run_until(SimTime::from_secs(8));
    let after = engine.world().stacks()[victim.index()]
        .primary()
        .gossip
        .stored_chunks();
    assert_eq!(
        before, after,
        "a departed node must not receive a single chunk"
    );
    assert!(!engine.world().directory().is_active(victim));
}

#[test]
fn steady_churn_runs_and_its_metrics_add_up() {
    let registry = ScenarioRegistry::builtin();
    let config = registry.build("churn/steady-fast", Scale::Quick, 7);
    let initial_online = config.nodes as u64 - 1; // nobody starts offline here
    let outcome = run_scenario(config);
    let churn = outcome.churn;
    assert!(churn.departures > 0, "steady churn must produce departures");
    assert!(churn.rejoins > 0, "steady churn must produce rejoins");
    assert_eq!(
        churn.sessions,
        initial_online + churn.rejoins,
        "every rejoin opens a session"
    );
    assert!(
        churn.offline_at_end + outcome.expelled_count
            <= churn.departures as usize + outcome.expelled_count,
        "offline nodes are a subset of the departed ones"
    );
    // The population still disseminates: most nodes see most of the stream.
    let last = *outcome.stream_health.fraction_clear.last().unwrap();
    assert!(last > 0.3, "stream collapsed under churn: {last}");
}

#[test]
fn flash_crowd_joins_once_and_catastrophe_never_returns() {
    let registry = ScenarioRegistry::builtin();

    let flash = run_scenario(registry.build("churn/flash-crowd", Scale::Quick, 11));
    assert!(flash.churn.rejoins > 0, "the flash crowd must join");
    assert_eq!(flash.churn.departures, 0);
    assert_eq!(
        flash.churn.offline_at_end, 0,
        "every flash-crowd member stays after joining"
    );

    let cat = run_scenario(registry.build("churn/catastrophe", Scale::Quick, 11));
    assert!(cat.churn.departures > 0, "the catastrophe wave must hit");
    assert_eq!(cat.churn.rejoins, 0, "catastrophe victims never return");
    assert!(cat.churn.offline_at_end > 0);
}

#[test]
fn churn_scenarios_run_parallel_eq_sequential_bit_for_bit() {
    // Belt and braces on top of the registry-wide proptest: the churn family
    // explicitly, full quick duration.
    let registry = ScenarioRegistry::builtin();
    for name in ["churn/steady-fast", "churn/freeriders"] {
        let config = registry.build(name, Scale::Quick, 3);
        std::env::set_var(lifting_sim::pool::WORKERS_ENV, "3");
        let parallel = run_scenarios_parallel(vec![config.clone()]);
        std::env::set_var(lifting_sim::pool::WORKERS_ENV, "1");
        let sequential = run_scenario(config);
        std::env::remove_var(lifting_sim::pool::WORKERS_ENV);
        assert_eq!(parallel[0].finals.outcomes, sequential.finals.outcomes);
        assert_eq!(parallel[0].churn, sequential.churn, "{name}: churn stats");
        assert_eq!(
            parallel[0].traffic.total_bytes_sent,
            sequential.traffic.total_bytes_sent
        );
        assert_eq!(
            parallel[0].stream_health.fraction_clear,
            sequential.stream_health.fraction_clear
        );
    }
}

#[test]
fn combined_waves_and_steady_churn_compose() {
    // Steady churners, a catastrophe wave and a flash crowd in one schedule:
    // the nasty interleavings (a wave taking down a churner whose session-end
    // departure is still queued; wave membership overlaps) must neither fork
    // duplicate churn chains nor resurrect catastrophe victims, and the run
    // must stay bit-for-bit deterministic.
    let registry = ScenarioRegistry::builtin();
    let mut config = registry.build("churn/steady-fast", Scale::Quick, 17);
    let steady = config.components.workload.take().unwrap();
    config.components.workload = Some(
        steady
            .with("catastrophe_at_secs", ParamValue::Float(6.0))
            .with("catastrophe_fraction", ParamValue::Float(0.2))
            // After the catastrophe: the worst ordering.
            .with("flash_crowd_at_secs", ParamValue::Float(9.0))
            .with("flash_crowd_fraction", ParamValue::Float(0.2)),
    );
    resolve_components(&config).expect("waves within range");

    std::env::set_var(lifting_sim::pool::WORKERS_ENV, "3");
    let parallel = run_scenarios_parallel(vec![config.clone()]);
    std::env::set_var(lifting_sim::pool::WORKERS_ENV, "1");
    let sequential = run_scenario(config.clone());
    std::env::remove_var(lifting_sim::pool::WORKERS_ENV);
    assert_eq!(parallel[0].churn, sequential.churn);
    assert_eq!(parallel[0].finals.outcomes, sequential.finals.outcomes);

    let churn = sequential.churn;
    assert!(churn.departures > 0 && churn.rejoins > 0);
    // Session accounting survives the interleavings: every rejoin (steady or
    // flash) opens exactly one session on top of the initially online nodes.
    let plan_offline = config.nodes as u64 - 1 - (churn.sessions - churn.rejoins);
    assert!(
        plan_offline > 0,
        "the flash crowd must hold some nodes offline initially"
    );
    // Catastrophe victims are not steady churners nor flash members, so they
    // stay down: the run ends with at least one node offline.
    assert!(churn.offline_at_end > 0);
}

#[test]
fn expelled_nodes_stay_out_under_churn() {
    // Heavy freeriding plus churn: whoever gets expelled must still be
    // inactive at the end (a rejoin event for an expelled node is refused).
    // Start from the fig01 "wise freerider" population and disable the
    // wrongful-blame compensation so the blame actually drives scores below
    // η within a quick run — expulsions demonstrably happen here.
    let registry = ScenarioRegistry::builtin();
    let mut config = registry.build("fig01/freeriders-lifting", Scale::Quick, 21);
    config.lifting.compensate_wrongful_blames = false;
    config.components.workload = Some(
        ComponentSpec::new("churn")
            .with("fraction", ParamValue::Float(0.25))
            .with("mean_session_secs", ParamValue::Float(8.0))
            .with("mean_offline_secs", ParamValue::Float(2.0))
            .with("warmup_secs", ParamValue::Float(2.0)),
    );
    config.duration = SimDuration::from_secs(20);
    let mut engine = build_engine(config.clone());
    engine.run_until(SimTime::ZERO + config.duration);
    let world = engine.world();
    let mut expelled_seen = 0;
    for i in 1..config.nodes {
        let node = NodeId::new(i as u32);
        if world.is_expelled(node) {
            expelled_seen += 1;
            assert!(
                !world.directory().is_active(node),
                "expelled node {node} is active in the directory"
            );
            assert!(world.network().is_cut_off(node));
        }
    }
    // The scenario is tuned so expulsions actually happen; if this starts
    // failing after a parameter change, pick a seed/duration that expels.
    assert!(expelled_seen > 0, "no expulsion happened; weak test");
}

/// Node 1's stack in its `session`-th session, cross-checking every ack.
fn session_stack(session: u32) -> NodeStack {
    NodeStack::with_streams(
        NodeId::new(1),
        GossipConfig::planetlab(),
        LiftingConfig::planetlab().with_pdcc(1.0),
        true,
        Box::new(Honest),
        derive_rng(1, 1),
        &[StreamClock::paper()],
        session,
    )
}

/// Delivers to `stack` an ack from `subject` naming `witnesses`, and returns
/// the token of the cross-check it opens and the timer that closes it.
fn open_cross_check(
    stack: &mut NodeStack,
    subject: NodeId,
    witnesses: &[NodeId],
) -> (u64, VerifierTimer) {
    let ack = VerificationMessage::Ack(Box::new(AckPayload {
        chunks: vec![ChunkId::primary(1)].into(),
        partners: witnesses.into(),
        period: 0,
    }));
    let mut out = Vec::new();
    stack.on_message(subject, Message::Verification(ack), SimTime::ZERO, &mut out);
    let token = out.iter().find_map(|d| match d {
        Downcall::Send {
            message: Message::Verification(VerificationMessage::Confirm(c)),
            ..
        } => Some(c.token),
        _ => None,
    });
    let timer = out.iter().find_map(|d| match d {
        Downcall::StartTimer { timer, .. } => Some(*timer),
        _ => None,
    });
    (
        token.expect("a confirm to the witnesses"),
        timer.expect("a confirm-check timer"),
    )
}

/// Every witness's confirmation of the check `token`.
fn confirmations(
    subject: NodeId,
    witnesses: &[NodeId],
    token: u64,
) -> Vec<(NodeId, ConfirmResponsePayload)> {
    let confirm = |w: &NodeId| {
        let response = ConfirmResponsePayload {
            subject,
            stream: StreamId::PRIMARY,
            token,
            confirmed: true,
        };
        (*w, response)
    };
    witnesses.iter().map(confirm).collect()
}

/// Lands the confirmations in `stack`, arriving at 100 ms (before the
/// check's deadline).
fn land(stack: &mut NodeStack, confirmations: Vec<(NodeId, ConfirmResponsePayload)>) {
    let arrival = (SimTime::from_millis(100), 0);
    for (from, response) in confirmations {
        stack.land_confirm_response(from, &response, arrival);
    }
}

/// Closes the check with `timer` and reports whether it blamed `subject`
/// for a contradicted proposal.
fn blamed_for_contradiction(stack: &mut NodeStack, timer: VerifierTimer, subject: NodeId) -> bool {
    let mut out = Vec::new();
    stack.on_timer(StreamId::PRIMARY, timer, SimTime::from_secs(5), 0, &mut out);
    out.iter().any(|d| {
        matches!(d, Downcall::Blame(b)
            if b.target == subject && b.reason == BlameReason::ContradictedProposal)
    })
}

#[test]
fn a_reply_to_an_earlier_session_does_not_count_in_the_rebuilt_verifier() {
    let subject = NodeId::new(2);
    let witnesses: Vec<NodeId> = (4..11).map(NodeId::new).collect();
    // Session 0 opens a cross-check; its witnesses' confirmations are still
    // in flight when the node departs.
    let (old_token, _) = open_cross_check(&mut session_stack(0), subject, &witnesses);
    let stale = confirmations(subject, &witnesses, old_token);

    // After the rejoin the rebuilt stack opens its own check on the same
    // subject, then the stale confirmations land.
    let mut rebuilt = session_stack(1);
    let (token, timer) = open_cross_check(&mut rebuilt, subject, &witnesses);
    assert_ne!(token, old_token, "a rebuilt verifier reissued a token");
    land(&mut rebuilt, stale);
    assert!(
        blamed_for_contradiction(&mut rebuilt, timer, subject),
        "an earlier session's confirmations satisfied the live check"
    );

    // The live session's own confirmations do satisfy it.
    let mut live = session_stack(1);
    let (token, timer) = open_cross_check(&mut live, subject, &witnesses);
    land(&mut live, confirmations(subject, &witnesses, token));
    assert!(!blamed_for_contradiction(&mut live, timer, subject));
}

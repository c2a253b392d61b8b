//! The order in which a node stack emits its effects, pinned step by step.
//!
//! The runtime commits a stack's [`Downcall`]s in emission order, so that
//! order is the wire order and, through the network's RNG draws, the whole
//! run. The golden digests would catch a reordering but not explain it; this
//! script drives one honest stack through every handler and compares the
//! rendered `(effect, receiver)` sequence of each step with constants
//! (generated before the layer wrappers between `NodeStack` and the protocol
//! state machines were removed): verification effects come before the gossip
//! sends of the same event.

use std::sync::Arc;

use lifting_core::{AckPayload, ConfirmPayload, LiftingConfig, VerificationMessage, VerifierTimer};
use lifting_gossip::{
    ChunkId, GossipMessage, ProposePayload, RequestPayload, ServePayload, StreamClock,
};
use lifting_membership::Directory;
use lifting_runtime::layers::{Downcall, NodeStack};
use lifting_runtime::{Message, ScenarioConfig};
use lifting_sim::{derive_rng, NodeId, SimTime, StreamId};

const ME: NodeId = NodeId::new(1);

fn render(effect: &Downcall) -> String {
    match effect {
        Downcall::Send { to, message } => {
            let kind = match message {
                Message::Gossip(GossipMessage::Propose(_)) => "Propose",
                Message::Gossip(GossipMessage::Request(_)) => "Request",
                Message::Gossip(GossipMessage::Serve(_)) => "Serve",
                Message::Verification(VerificationMessage::Ack(_)) => "Ack",
                Message::Verification(VerificationMessage::Confirm(_)) => "Confirm",
                Message::Verification(VerificationMessage::ConfirmResponse(_)) => "ConfirmResp",
                Message::Verification(_) => "OtherVerification",
            };
            format!("{kind}>{}", to.index())
        }
        Downcall::StartTimer { stream, timer, .. } => {
            let kind = match timer {
                VerifierTimer::ServeCheck { .. } => "ServeCheck",
                VerifierTimer::AckCheck { .. } => "AckCheck",
                VerifierTimer::ConfirmCheck { .. } => "ConfirmCheck",
            };
            format!("Timer:{kind}/s{}", stream.index())
        }
        Downcall::Blame(blame) => format!("Blame:{:?}@{}", blame.reason, blame.target.index()),
        Downcall::NextGossipTick => "NextTick".into(),
    }
}

/// One step of the script: its name and what the stack emitted for it.
type Step = (&'static str, String);

/// What the script has seen so far: the rendered emissions per step and the
/// timers the stack armed (expired at the end, in arming order).
#[derive(Default)]
struct Log {
    steps: Vec<Step>,
    timers: Vec<VerifierTimer>,
}

impl Log {
    /// Closes a step: renders and records what the stack emitted for it and
    /// hands the effects back, leaving `out` empty for the next step.
    fn close(&mut self, name: &'static str, out: &mut Vec<Downcall>) -> Vec<Downcall> {
        let rendered: Vec<String> = out.iter().map(render).collect();
        self.steps.push((name, rendered.join(" ")));
        for effect in out.iter() {
            if let Downcall::StartTimer { timer, .. } = effect {
                self.timers.push(*timer);
            }
        }
        std::mem::take(out)
    }
}

/// Drives one honest stack through the script and returns the rendered
/// emissions per step plus the stack (for the leak check).
///
/// With LiFTinG off no node ever puts a verification message on the wire or
/// arms a timer, so the verification inputs cannot occur and are not fed;
/// the gossip steps are identical.
fn run_script(lifting_enabled: bool) -> (Vec<Step>, NodeStack) {
    let mut config = ScenarioConfig::planetlab_baseline(11);
    config.lifting = LiftingConfig::planetlab().with_pdcc(1.0);
    config.lifting_enabled = lifting_enabled;
    let clocks = [StreamClock::paper()];
    let mut stack = NodeStack::new(&config, &clocks, &Arc::default(), ME, 0);
    // The script's own RNG stream: the constants were generated with it.
    stack.rng = derive_rng(11, 1);
    let directory = Directory::new(12);
    let mut log = Log::default();
    let mut out: Vec<Downcall> = Vec::new();
    let gossip = |m: GossipMessage| Message::Gossip(m);
    let propose = |chunk: u64| {
        GossipMessage::Propose(ProposePayload {
            period: 0,
            chunks: vec![ChunkId::primary(chunk)].into(),
        })
    };
    let server = NodeId::new(2);
    let silent_proposer = NodeId::new(3);
    let t = SimTime::from_millis;

    // Set-up: obtain chunk 1 from node 2, so the tick owes node 2 an ack.
    stack.on_message(server, gossip(propose(1)), t(0), &mut out);
    log.close("propose-1", &mut out);
    let chunk = stack.primary().gossip.playout().clock().chunk(1);
    let serve = GossipMessage::Serve(ServePayload { chunk });
    stack.on_message(server, gossip(serve), t(50), &mut out);
    log.close("serve-1", &mut out);

    // The tick: acks for the forwarded chunk, then the proposals.
    stack.on_gossip_tick(ME, t(200), &directory, &mut out);
    let tick = log.close("tick", &mut out);
    let partners: Vec<NodeId> = tick
        .iter()
        .filter(|d| {
            matches!(
                d,
                Downcall::Send {
                    message: Message::Gossip(_),
                    ..
                }
            )
        })
        .filter_map(Downcall::receiver)
        .collect();
    let requester = partners[0];

    // A proposal for a chunk this node does not hold (never served).
    stack.on_message(silent_proposer, gossip(propose(2)), t(210), &mut out);
    log.close("propose-2", &mut out);

    // A partner requests the chunk it was just proposed.
    let request = GossipMessage::Request(RequestPayload {
        chunks: vec![ChunkId::primary(1)].into(),
    });
    stack.on_message(requester, gossip(request), t(220), &mut out);
    log.close("request-1", &mut out);

    if lifting_enabled {
        // The requester acknowledges the serve, naming seven witnesses.
        let witnesses: Vec<NodeId> = (4..11).map(NodeId::new).collect();
        let ack = VerificationMessage::Ack(Box::new(AckPayload {
            chunks: vec![ChunkId::primary(1)].into(),
            partners: witnesses.into(),
            period: 0,
        }));
        stack.on_message(requester, Message::Verification(ack), t(400), &mut out);
        log.close("ack", &mut out);

        // Another verifier polls this node as a witness.
        let confirm = VerificationMessage::Confirm(Arc::new(ConfirmPayload {
            subject: server,
            chunks: vec![ChunkId::primary(1)].into(),
            token: 99,
        }));
        stack.on_message(
            NodeId::new(9),
            Message::Verification(confirm),
            t(410),
            &mut out,
        );
        log.close("confirm", &mut out);

        // Every timer armed so far expires, in arming order.
        for (i, timer) in log.timers.clone().into_iter().enumerate() {
            stack.on_timer(StreamId::PRIMARY, timer, t(5_000), 0, &mut out);
            let name = ["timer-0", "timer-1", "timer-2", "timer-3"][i];
            log.close(name, &mut out);
        }
    }
    (log.steps, stack)
}

#[test]
fn lifting_on_stack_emits_verification_effects_before_gossip_sends() {
    let (steps, stack) = run_script(true);
    let expected: &[Step] = &[
        ("propose-1", "Timer:ServeCheck/s0 Request>2".into()),
        ("serve-1", "".into()),
        (
            "tick",
            "Ack>2 Propose>4 Propose>9 Propose>3 Propose>6 Propose>0 Propose>11 Propose>7".into(),
        ),
        ("propose-2", "Timer:ServeCheck/s0 Request>3".into()),
        ("request-1", "Timer:AckCheck/s0 Serve>4".into()),
        (
            "ack",
            "Confirm>4 Confirm>5 Confirm>6 Confirm>7 Confirm>8 Confirm>9 Confirm>10 \
             Timer:ConfirmCheck/s0"
                .into(),
        ),
        ("confirm", "ConfirmResp>9".into()),
        // The serve check of chunk 1 was satisfied, the one of chunk 2 was not;
        // the ack arrived; none of the seven witnesses confirmed.
        ("timer-0", "".into()),
        ("timer-1", "Blame:PartialServe@3".into()),
        ("timer-2", "".into()),
        ("timer-3", "Blame:ContradictedProposal@4".into()),
    ];
    assert_eq!(steps, expected);
    assert_eq!(stack.pending_checks(), 0, "every check was resolved");
}

#[test]
fn lifting_off_stack_emits_the_gossip_sends_only() {
    let (steps, stack) = run_script(false);
    let expected: &[Step] = &[
        ("propose-1", "Request>2".into()),
        ("serve-1", "".into()),
        (
            "tick",
            "Propose>4 Propose>9 Propose>3 Propose>6 Propose>0 Propose>11 Propose>7".into(),
        ),
        ("propose-2", "Request>3".into()),
        ("request-1", "Serve>4".into()),
    ];
    assert_eq!(steps, expected);
    assert_eq!(stack.pending_checks(), 0);
    assert_eq!(stack.blames_emitted(), 0);
}

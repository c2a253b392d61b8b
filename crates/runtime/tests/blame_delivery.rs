//! Blame copies in flight against a naive reference.
//!
//! The world keeps every delivered blame copy out of the event queue and
//! lands it lazily (`lifting_runtime::inflight`). The reference here is what
//! the queue used to do: a plain list of every copy put in flight,
//! `(arrival, stamp, manager, subject, value)`, replayed in key order against
//! the directory timeline the run went through. A copy lands iff its manager
//! is active at that point, and a manager's rejoin starts it a blank book.
//! After every barrier event (one that reads books or changes who is active)
//! every book must equal the reference bit for bit, and a readout at a
//! deadline must score as if every copy that arrived by then had landed.
//!
//! The scripted cases run a small world without its protocol traffic: a
//! period-end chain, the churn each case needs, and copies put in flight at
//! chosen instants through [`SystemWorld::deliver_blame`], the function blame
//! routing calls for every delivered copy. The last test runs real protocol
//! traffic (loss, duplicates, churn) through the same check.

use std::collections::HashMap;

use lifting_core::{Blame, BlameReason};
use lifting_net::LossModel;
use lifting_runtime::message::CHURN_EPOCH_ANY;
use lifting_runtime::{Event, InFlightBlame, Scale, ScenarioConfig, ScenarioRegistry, SystemWorld};
use lifting_sim::{Context, Engine, NodeId, SimTime, StreamId, World};

/// An event's `(time, seq)` key.
type Key = (SimTime, u64);

/// Blame sums per `(manager, subject)`.
type Books = HashMap<(NodeId, NodeId), f64>;

/// One scripted copy: when the trigger at `at` fires, a blame against
/// `subject` worth `value` goes in flight to `manager`, arriving at
/// `arrival`.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    at: SimTime,
    arrival: SimTime,
    manager: NodeId,
    subject: NodeId,
    value: f64,
}

fn ms(millis: u64) -> SimTime {
    SimTime::from_millis(millis)
}

/// The scheduled event that fires a script step. The probe handles it and
/// never forwards it (the world would ignore a resubscription of the source
/// anyway).
fn trigger() -> Event {
    Event::Resubscribe {
        node: NodeId::new(0),
        from: StreamId::PRIMARY,
        to: StreamId::PRIMARY,
    }
}

fn is_trigger(event: &Event) -> bool {
    matches!(event, Event::Resubscribe { node, .. } if *node == NodeId::new(0))
}

/// A node-local event that does nothing: a gossip tick of a session that
/// never existed. The world still lands what is due before it.
fn stale_tick() -> Event {
    Event::GossipTick {
        node: NodeId::new(1),
        epoch: u32::MAX - 1,
    }
}

fn is_barrier(event: &Event) -> bool {
    matches!(
        event,
        Event::PeriodEnd
            | Event::AuditTick { .. }
            | Event::Churn { .. }
            | Event::Resubscribe { .. }
            | Event::Fault { .. }
    )
}

/// The world under test, wrapped: fires the script and records, after every
/// event, the copies put in flight, the directory and (after barriers) the
/// books.
struct Probe {
    world: SystemWorld,
    script: Vec<Delivery>,
    /// The active set before the first event.
    initial: Vec<bool>,
    /// Every copy put in flight, in push order.
    sent: Vec<InFlightBlame>,
    /// The active set after each event that changed it.
    timeline: Vec<(Key, Vec<bool>)>,
    /// The books after each barrier event.
    checkpoints: Vec<(Key, Books)>,
}

impl Probe {
    fn active(&self) -> Vec<bool> {
        let directory = self.world.directory();
        (0..directory.len())
            .map(|i| directory.is_active(NodeId::new(i as u32)))
            .collect()
    }

    fn books(&self) -> Books {
        let mut books = Books::new();
        for (m, stack) in self.world.stacks().iter().enumerate() {
            for (subject, record) in stack.reputation.iter() {
                books.insert((NodeId::new(m as u32), subject), record.blame);
            }
        }
        books
    }

    fn book(&self, manager: NodeId, subject: NodeId) -> f64 {
        self.world.stacks()[manager.index()]
            .reputation
            .record(subject)
            .expect("the manager keeps a record of the subject")
            .blame
    }

    /// Records a directory transition made outside any event.
    fn mark(&mut self, key: Key) {
        let active = self.active();
        self.timeline.push((key, active));
    }

    /// The books recorded after the barrier at `at` (one per instant here).
    fn checkpoint(&self, at: SimTime) -> &Books {
        let found: Vec<_> = self.checkpoints.iter().filter(|(k, _)| k.0 == at).collect();
        assert_eq!(found.len(), 1, "one barrier at {at:?}");
        &found[0].1
    }
}

impl World for Probe {
    type Event = Event;

    fn handle_event(&mut self, now: SimTime, event: Event, ctx: &mut Context<Event>) {
        let key = (now, ctx.seq());
        let barrier = is_barrier(&event) && !is_trigger(&event);
        if is_trigger(&event) {
            for d in self.script.iter().filter(|d| d.at == now) {
                let blame = Blame::new(d.subject, d.value, BlameReason::MissingAck);
                self.world.deliver_blame(d.arrival, d.manager, &blame, ctx);
            }
        } else {
            self.world.handle_event(now, event, ctx);
        }
        // A copy put in flight during this event cannot land before the next
        // one, so each is seen here exactly once.
        let last = self.sent.last().map(|b| b.stamp);
        let mut fresh: Vec<InFlightBlame> = self
            .world
            .blames_in_flight()
            .iter()
            .filter(|b| last.is_none_or(|s| b.stamp > s))
            .copied()
            .collect();
        fresh.sort_by_key(|b| b.stamp);
        self.sent.extend(fresh);
        let active = self.active();
        let previous = self.timeline.last().map_or(&self.initial, |(_, a)| a);
        if active != *previous {
            self.timeline.push((key, active));
        }
        if barrier {
            let books = self.books();
            self.checkpoints.push((key, books));
        }
    }
}

/// The naive reference: every copy with a key before `until`, replayed in
/// key order against the directory timeline up to and including the event
/// at `until`. A copy lands iff its manager is active; a manager that comes
/// back starts from a blank book.
fn reference(probe: &Probe, until: Key) -> Books {
    enum Step<'a> {
        Directory(&'a [bool]),
        Copy(&'a InFlightBlame),
    }
    let mut steps: Vec<(Key, Step)> = probe
        .timeline
        .iter()
        .filter(|(k, _)| *k <= until)
        .map(|(k, a)| (*k, Step::Directory(a)))
        .chain(
            probe
                .sent
                .iter()
                .filter(|b| b.key() < until)
                .map(|b| (b.key(), Step::Copy(b))),
        )
        .collect();
    steps.sort_by_key(|(k, _)| *k);
    let mut active = probe.initial.clone();
    let mut books = Books::new();
    for (_, step) in steps {
        match step {
            Step::Directory(next) => {
                for (m, (&was, &is)) in active.iter().zip(next).enumerate() {
                    if !was && is {
                        books.retain(|(manager, _), _| manager.index() != m);
                    }
                }
                active = next.to_vec();
            }
            Step::Copy(b) if active[b.manager.index()] => {
                *books.entry((b.manager, b.subject)).or_insert(0.0) += b.value.max(0.0);
            }
            Step::Copy(_) => {}
        }
    }
    books
}

/// Every book after every barrier equals the reference, bit for bit.
fn assert_books_match(probe: &Probe) {
    assert!(!probe.checkpoints.is_empty());
    for (key, books) in &probe.checkpoints {
        let expected = reference(probe, *key);
        for (pair, value) in books {
            let want = expected.get(pair).copied().unwrap_or(0.0);
            assert_eq!(
                value.to_bits(),
                want.to_bits(),
                "after the barrier at {key:?}: book {pair:?} holds {value}, the reference {want}"
            );
        }
        for (pair, want) in &expected {
            assert!(
                books.contains_key(pair) || *want == 0.0,
                "after the barrier at {key:?}: {pair:?} should hold {want} but has no record"
            );
        }
    }
}

/// A readout at `at` (where the engine stopped) scores as if every copy that
/// arrived by then had landed.
fn assert_readout_matches(probe: &Probe, at: SimTime) {
    let expected = reference(probe, (at, u64::MAX));
    let snapshot = probe.world.score_snapshot(at);
    for outcome in &snapshot.outcomes {
        let replies: Vec<f64> = probe
            .world
            .stacks()
            .iter()
            .enumerate()
            .filter_map(|(m, stack)| {
                let mut record = stack.reputation.record(outcome.node)?;
                let pair = (NodeId::new(m as u32), outcome.node);
                record.blame = expected.get(&pair).copied().unwrap_or(0.0);
                Some(record.normalized_score())
            })
            .collect();
        let want = lifting_reputation::aggregate_min(&replies);
        assert_eq!(
            outcome.score.map(f64::to_bits),
            want.map(f64::to_bits),
            "readout at {at:?}: node {:?} scores {:?}, the reference {want:?}",
            outcome.node,
            outcome.score
        );
    }
}

/// A 12-node world (5 managers per node, 500 ms periods, a 10 ms ideal
/// network) whose managers may vote from the first period on.
fn small_config() -> ScenarioConfig {
    let mut config = ScenarioConfig::small_test(12, 7);
    config.lifting.min_periods_before_expulsion = 1;
    config
}

/// An engine over `config` running only the period-end chain and the
/// script's triggers; tests add the churn and no-op events they need.
fn scripted(config: ScenarioConfig, script: Vec<Delivery>) -> Engine<Probe> {
    let world = SystemWorld::new(config);
    let period = world.config().gossip.gossip_period;
    let mut probe = Probe {
        world,
        script,
        initial: Vec::new(),
        sent: Vec::new(),
        timeline: Vec::new(),
        checkpoints: Vec::new(),
    };
    probe.initial = probe.active();
    let mut triggers: Vec<SimTime> = probe.script.iter().map(|d| d.at).collect();
    triggers.dedup();
    let mut engine = Engine::new(probe);
    engine.schedule(SimTime::ZERO + period, Event::PeriodEnd);
    for at in triggers {
        engine.schedule(at, trigger());
    }
    engine
}

/// `(manager, subject)` pairs of a world's books, in manager order.
fn charges(world: &SystemWorld) -> Vec<(NodeId, NodeId)> {
    world
        .stacks()
        .iter()
        .enumerate()
        .flat_map(|(m, stack)| {
            stack
                .reputation
                .iter()
                .map(move |(subject, _)| (NodeId::new(m as u32), subject))
        })
        .filter(|(m, _)| m.index() != 0)
        .collect()
}

fn depart(node: NodeId) -> Event {
    Event::Churn {
        node,
        up: false,
        epoch: CHURN_EPOCH_ANY,
    }
}

fn rejoin(node: NodeId) -> Event {
    Event::Churn {
        node,
        up: true,
        epoch: CHURN_EPOCH_ANY,
    }
}

#[test]
fn a_blame_tied_with_a_period_end_lands_by_stamp() {
    let config = small_config();
    let (m, s) = charges(&SystemWorld::new(config.clone()))[0];
    let copy = |at, value| Delivery {
        at: ms(at),
        arrival: ms(1500),
        manager: m,
        subject: s,
        value,
    };
    // Both arrive in the µs of the 1.5 s period end, which the 1.0 s period
    // end schedules: the copy sent at 0.8 s was stamped before it, the one
    // sent at 1.2 s after it. A no-op node-local event shares the instant
    // and pops first.
    let mut engine = scripted(config, vec![copy(800, 0.1), copy(1200, 0.2)]);
    engine.schedule(ms(1500), stale_tick());
    engine.run_until(ms(2000));
    let probe = engine.world();
    assert_eq!(probe.checkpoint(ms(1500))[&(m, s)], 0.1);
    assert_eq!(probe.checkpoint(ms(2000))[&(m, s)], 0.1 + 0.2);
    assert_books_match(probe);
}

#[test]
fn a_blame_to_a_manager_that_departed_is_dropped() {
    let config = small_config();
    let (m, s) = charges(&SystemWorld::new(config.clone()))[0];
    let script = vec![Delivery {
        at: ms(900),
        arrival: ms(1300),
        manager: m,
        subject: s,
        value: 3.0,
    }];
    let mut engine = scripted(config, script);
    engine.schedule(ms(1100), depart(m));
    engine.run_until(ms(2000));
    let probe = engine.world();
    assert!(!probe.world.directory().is_active(m));
    assert_eq!(probe.book(m, s), 0.0, "the copy reached a departed manager");
    assert_books_match(probe);
}

#[test]
fn a_blame_to_a_manager_that_rejoined_lands_in_the_rebuilt_book() {
    let config = small_config();
    let (m, s) = charges(&SystemWorld::new(config.clone()))[0];
    let copy = |arrival, value| Delivery {
        at: ms(900),
        arrival: ms(arrival),
        manager: m,
        subject: s,
        value,
    };
    // Sent before the manager leaves at 1.1 s: the first copy arrives while
    // it is away, the second after it is back (1.2 s) with a blank book.
    let mut engine = scripted(config, vec![copy(1150, 1.0), copy(1300, 4.0)]);
    engine.schedule(ms(1100), depart(m));
    engine.schedule(ms(1200), rejoin(m));
    engine.run_until(ms(2000));
    let probe = engine.world();
    assert!(probe.world.directory().is_active(m));
    assert_eq!(probe.book(m, s), 4.0);
    assert_books_match(probe);
}

#[test]
fn a_manager_expelled_at_the_period_end_it_ties_with_drops_what_follows() {
    let config = small_config();
    let pairs = charges(&SystemWorld::new(config.clone()));
    // The victim manages someone; every one of its own managers books a
    // crushing blame against it before the 1.0 s period end, which expels
    // it by quorum.
    let (victim, s) = pairs[0];
    let mut script: Vec<Delivery> = pairs
        .iter()
        .filter(|(_, subject)| *subject == victim)
        .map(|&(manager, _)| Delivery {
            at: ms(600),
            arrival: ms(700),
            manager,
            subject: victim,
            value: 1000.0,
        })
        .collect();
    assert!(script.len() >= 3, "a quorum of the victim's managers");
    // Two copies to the victim as manager, arriving in the µs of that
    // period end: stamped before it (sent at 0.4 s, before the 0.5 s period
    // end scheduled it) and after it (sent at 0.7 s).
    let tied = |at, value| Delivery {
        at: ms(at),
        arrival: ms(1000),
        manager: victim,
        subject: s,
        value,
    };
    script.push(tied(400, 1.0));
    script.push(tied(700, 2.0));
    script.sort_by_key(|d| d.at);
    let mut engine = scripted(config, script);
    engine.run_until(ms(1500));
    let probe = engine.world();
    assert!(probe.world.is_expelled(victim));
    assert_eq!(probe.book(victim, s), 1.0);
    assert_books_match(probe);
}

#[test]
fn a_duplicated_copy_is_booked_twice() {
    let config = small_config();
    let (m, s) = charges(&SystemWorld::new(config.clone()))[0];
    let copy = Delivery {
        at: ms(600),
        arrival: ms(900),
        manager: m,
        subject: s,
        value: 0.25,
    };
    let mut engine = scripted(config, vec![copy, copy]);
    engine.run_until(ms(1500));
    let probe = engine.world();
    assert_eq!(probe.checkpoint(ms(1000))[&(m, s)], 0.5);
    assert_books_match(probe);
}

#[test]
fn a_readout_at_a_deadline_folds_the_blames_due_by_then() {
    let config = small_config();
    let (m, s) = charges(&SystemWorld::new(config.clone()))[0];
    let copy = |at, arrival, value| Delivery {
        at: ms(at),
        arrival,
        manager: m,
        subject: s,
        value,
    };
    let deadline = ms(1200);
    let script = vec![
        copy(600, ms(800), 0.5),
        // Due at the deadline, yet no event follows it to land it.
        copy(1100, deadline, 40.0),
        // One µs late: not due.
        copy(
            1100,
            deadline + lifting_sim::SimDuration::from_micros(1),
            80.0,
        ),
    ];
    let mut engine = scripted(config, script);
    engine.run_until(deadline);
    let probe = engine.world();
    assert_eq!(probe.world.blames_in_flight().len(), 2);
    assert_eq!(probe.book(m, s), 0.5, "the due copy is still in flight");
    assert_readout_matches(probe, deadline);
    let scores = |snapshot: lifting_runtime::ScoreSnapshot| -> Vec<Option<u64>> {
        snapshot
            .outcomes
            .iter()
            .map(|o| o.score.map(f64::to_bits))
            .collect()
    };
    let outcome = probe.world.run_outcome(deadline, Vec::new(), &[]);
    assert_eq!(
        scores(outcome.finals),
        scores(probe.world.score_snapshot(deadline))
    );
    assert_books_match(probe);
}

#[test]
fn force_depart_between_segments_lands_what_arrived_first() {
    let config = small_config();
    let (m, s) = charges(&SystemWorld::new(config.clone()))[0];
    let copy = |arrival, value| Delivery {
        at: ms(600),
        arrival: ms(arrival),
        manager: m,
        subject: s,
        value,
    };
    let mut engine = scripted(config, vec![copy(1200, 0.5), copy(1300, 0.75)]);
    engine.run_until(ms(1200));
    engine.world_mut().world.force_depart(m, ms(1200));
    engine.world_mut().mark((ms(1200), u64::MAX));
    engine.run_until(ms(2000));
    let probe = engine.world();
    assert_eq!(probe.book(m, s), 0.5);
    assert_books_match(probe);
}

#[test]
fn protocol_traffic_lands_like_the_reference() {
    let registry = ScenarioRegistry::builtin();
    let mut lossy = registry.build("smoke/small", Scale::Quick, 7);
    lossy.network.loss = LossModel::bernoulli(0.05);
    lossy.network.faults.duplicate_probability = 0.2;
    let churn = registry.build("churn/steady-fast", Scale::Quick, 7);
    for (mut config, lossy) in [(lossy, true), (churn, false)] {
        config.duration = lifting_sim::SimDuration::from_secs(4);
        let end = SimTime::ZERO + config.duration;
        let world = SystemWorld::new(config);
        let events = world.initial_events();
        let mut engine = Engine::new(Probe {
            initial: Vec::new(),
            world,
            script: Vec::new(),
            sent: Vec::new(),
            timeline: Vec::new(),
            checkpoints: Vec::new(),
        });
        engine.world_mut().initial = engine.world().active();
        for (at, event) in events {
            engine.schedule(at, event);
        }
        engine.run_until(end);
        let probe = engine.world();
        assert!(probe.sent.len() > 1_000, "the run routes blames");
        if lossy {
            let duplicated = probe.sent.windows(2).any(|w| {
                w[1].stamp == w[0].stamp + 1
                    && (w[1].manager, w[1].subject) == (w[0].manager, w[0].subject)
            });
            assert!(duplicated, "the network duplicates some copies");
        } else {
            let rejoined = probe.timeline.windows(2).any(|w| {
                let (before, after) = (&w[0].1, &w[1].1);
                before.iter().zip(after).any(|(&was, &is)| !was && is)
            });
            assert!(rejoined, "some manager rejoins");
        }
        assert_books_match(probe);
        assert_readout_matches(probe, end);
    }
}

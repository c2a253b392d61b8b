//! The simulation engine: a run loop over a [`World`] and an [`EventQueue`].

use crate::event::EventQueue;
use crate::id::NodeId;
use crate::time::{SimDuration, SimTime};

/// The state being simulated.
///
/// An implementation owns all the nodes, the network, and any collectors; the
/// engine repeatedly hands it the next event together with a [`Context`] used
/// to schedule follow-up events.
pub trait World {
    /// The event type circulating in the simulation.
    type Event;

    /// Handles one event occurring at `now`.
    fn handle_event(&mut self, now: SimTime, event: Self::Event, ctx: &mut Context<Self::Event>);
}

/// A [`World`] whose node-local events can be executed shard-parallel.
///
/// The contract: an event is **node-local** when its handler decomposes into
/// a first phase that mutates only the named node's private state (reading
/// shared state but writing none of it), followed by a commit phase driving
/// shared resources (network RNG, global books, the scheduler). The engine
/// collects maximal runs of node-local events that share one timestamp — a
/// **wave** — and hands them to [`handle_wave`](Self::handle_wave), which may
/// run the first phases shard-parallel as long as the observable effects are
/// *identical* to calling [`World::handle_event`] on each event in order.
/// Events for which [`local_node`](Self::local_node) returns `None` are
/// barriers: they run solo through the ordinary sequential path.
///
/// Same-timestamp waves are what make the parallel phase provably safe: any
/// event a wave member schedules carries a later sequence number than every
/// event already queued at that instant, so it sorts after the entire wave —
/// nothing can be scheduled *between* two wave members. (A world whose
/// cross-node effects all carry a minimum lookahead of one ring slot could
/// widen the window to the slot; the runtimes here keep the conservative
/// single-timestamp window, which needs no lookahead assumption at all.)
pub trait ShardedWorld: World {
    /// Number of shards the world is configured to execute waves across.
    /// `1` disables wave collection entirely (the engine falls back to the
    /// plain sequential loop).
    fn shard_count(&self) -> usize;

    /// `Some(node)` if `event` is node-local to `node` in the sense above,
    /// `None` for barrier events.
    fn local_node(&self, event: &Self::Event) -> Option<NodeId>;

    /// Executes one same-timestamp wave of node-local events, draining
    /// `wave` (each event with its seq, in their sequential pop order).
    /// Implementations must leave the world and the scheduled events
    /// bit-identical to a sequential `handle_event` loop over the same
    /// events.
    fn handle_wave(
        &mut self,
        now: SimTime,
        wave: &mut Vec<(u64, Self::Event)>,
        ctx: &mut Context<Self::Event>,
    );
}

/// Scheduling facility handed to [`World::handle_event`].
///
/// The context borrows the engine's queue: a scheduled event is pushed at
/// once, taking the next sequence number, so the `(time, seq)` key of
/// everything a handler schedules follows its call order.
#[derive(Debug)]
pub struct Context<'a, E> {
    now: SimTime,
    seq: u64,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Context<'a, E> {
    fn new(now: SimTime, seq: u64, queue: &'a mut EventQueue<E>) -> Self {
        Context { now, seq, queue }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The sequence number of the event being handled: with
    /// [`now`](Self::now) it is the event's `(time, seq)` key, the queue's
    /// order.
    /// In a wave ([`ShardedWorld::handle_wave`]) it is the first member's.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Takes the sequence number an event scheduled at this point would get,
    /// without scheduling one. A world that keeps some of its messages out
    /// of the queue stamps them with it: `(arrival, stamp)` then sorts
    /// against queued events exactly as the message itself would have.
    pub fn stamp(&mut self) -> u64 {
        self.queue.reserve_seq()
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Events scheduled in the past are delivered "now" instead (never before
    /// the current instant), so simulated time is always monotone.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        self.queue.push(time.max(self.now), event);
    }

    /// Schedules `event` after the relative delay `delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }
}

/// Statistics about a completed run segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Number of events processed.
    pub events_processed: u64,
    /// Simulated time at which the run segment stopped.
    pub stopped_at: SimTime,
    /// True if the run stopped because the queue drained.
    pub drained: bool,
}

/// Discrete-event simulation engine.
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    clock: SimTime,
    events_processed: u64,
}

impl<W: World> Engine<W> {
    /// Creates an engine around `world` with an empty event queue and the
    /// clock at [`SimTime::ZERO`].
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            events_processed: 0,
        }
    }

    /// Schedules an initial event (or any event, between run segments).
    pub fn schedule(&mut self, time: SimTime, event: W::Event) {
        self.queue.push(time.max(self.clock), event);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total number of events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Heap bytes retained by the event queue
    /// ([`EventQueue::heap_bytes`]): scheduler state, not world state.
    pub fn queue_heap_bytes(&self) -> usize {
        self.queue.heap_bytes()
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (e.g. to inject faults between segments).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Runs until the queue drains or the next event would occur after
    /// `deadline`. The clock is advanced to `deadline` if the queue drains
    /// earlier events only.
    pub fn run_until(&mut self, deadline: SimTime) -> RunReport {
        let mut report = RunReport::default();
        loop {
            // Fast path: one queue probe decides both "is there an event" and
            // "is it due" (see `EventQueue::pop_due`); an undue event stays
            // queued without ever being materialized here.
            let Some((time, seq, event)) = self.queue.pop_due(deadline) else {
                report.drained = self.queue.is_empty();
                break;
            };
            self.clock = time;
            let mut ctx = Context::new(time, seq, &mut self.queue);
            self.world.handle_event(time, event, &mut ctx);
            self.events_processed += 1;
            report.events_processed += 1;
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
        report.stopped_at = self.clock;
        report
    }

    /// Sharded variant of [`run_until`](Self::run_until): collects maximal
    /// same-timestamp runs of node-local events into waves and hands them to
    /// [`ShardedWorld::handle_wave`]; barrier events and single-event waves
    /// take the ordinary sequential path (a one-event wave would only pay the
    /// fan-out overhead). Results are bit-identical to `run_until` at any
    /// shard count — that is the [`ShardedWorld`] contract, pinned end to end
    /// by the runtime's shard-invariance tests.
    pub fn run_until_sharded(&mut self, deadline: SimTime) -> RunReport
    where
        W: ShardedWorld,
    {
        if self.world.shard_count() <= 1 {
            return self.run_until(deadline);
        }
        let mut report = RunReport::default();
        let mut wave: Vec<(u64, W::Event)> = Vec::new();
        loop {
            let Some((time, seq, event)) = self.queue.pop_due(deadline) else {
                report.drained = self.queue.is_empty();
                break;
            };
            self.clock = time;
            let world = &self.world;
            let second = world.local_node(&event).is_some().then(|| {
                // Probe for a second node-local event at the same instant
                // before paying any wave bookkeeping: most timestamps hold a
                // single event, which then takes the plain sequential path.
                self.queue
                    .pop_due_if(time, |t, e| t == time && world.local_node(e).is_some())
            });
            let processed = if let Some(Some((_, seq2, e2))) = second {
                wave.clear();
                wave.push((seq, event));
                wave.push((seq2, e2));
                // Extend the wave while the head is node-local at the same
                // instant; whatever terminates the run (a barrier, a later
                // timestamp, an empty queue) stays queued untouched. Every
                // event already at `time` sorts before anything a wave member
                // schedules, so the collection is exactly the prefix a
                // sequential loop would process back to back.
                while let Some((_, s, e)) = self
                    .queue
                    .pop_due_if(time, |t, e| t == time && world.local_node(e).is_some())
                {
                    wave.push((s, e));
                }
                let count = wave.len() as u64;
                let mut ctx = Context::new(time, seq, &mut self.queue);
                self.world.handle_wave(time, &mut wave, &mut ctx);
                count
            } else {
                let mut ctx = Context::new(time, seq, &mut self.queue);
                self.world.handle_event(time, event, &mut ctx);
                1
            };
            self.events_processed += processed;
            report.events_processed += processed;
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
        report.stopped_at = self.clock;
        report
    }
}

impl<W: World + std::fmt::Debug> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("clock", &self.clock)
            .field("pending", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct PingPong {
        bounces: u32,
        limit: u32,
    }

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping,
        Pong,
    }

    impl World for PingPong {
        type Event = Ev;
        fn handle_event(&mut self, _now: SimTime, ev: Ev, ctx: &mut Context<Ev>) {
            self.bounces += 1;
            if self.bounces >= self.limit {
                return;
            }
            match ev {
                Ev::Ping => ctx.schedule_after(SimDuration::from_millis(10), Ev::Pong),
                Ev::Pong => ctx.schedule_after(SimDuration::from_millis(10), Ev::Ping),
            }
        }
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng = Engine::new(PingPong {
            bounces: 0,
            limit: u32::MAX,
        });
        eng.schedule(SimTime::ZERO, Ev::Ping);
        let report = eng.run_until(SimTime::from_millis(95));
        // Events at 0, 10, ..., 90 → 10 events.
        assert_eq!(report.events_processed, 10);
        assert_eq!(eng.world().bounces, 10);
        assert!(!report.drained);
        assert_eq!(eng.now(), SimTime::from_millis(95));
    }

    #[test]
    fn run_until_reports_a_drained_queue() {
        let mut eng = Engine::new(PingPong {
            bounces: 0,
            limit: 5,
        });
        eng.schedule(SimTime::ZERO, Ev::Ping);
        let report = eng.run_until(SimTime::from_millis(40));
        assert!(report.drained);
        assert_eq!(report.events_processed, 5);
        assert_eq!(eng.world().bounces, 5);
        assert_eq!(eng.now(), SimTime::from_millis(40));
    }

    #[test]
    fn events_in_the_past_are_clamped_to_now() {
        struct Clamp {
            saw: Vec<SimTime>,
        }
        impl World for Clamp {
            type Event = bool; // true = schedule one in the "past"
            fn handle_event(&mut self, now: SimTime, ev: bool, ctx: &mut Context<bool>) {
                self.saw.push(now);
                if ev {
                    ctx.schedule_at(SimTime::ZERO, false);
                }
            }
        }
        let mut eng = Engine::new(Clamp { saw: vec![] });
        eng.schedule(SimTime::from_millis(50), true);
        eng.run_until(SimTime::MAX);
        assert_eq!(
            eng.world().saw,
            vec![SimTime::from_millis(50), SimTime::from_millis(50)]
        );
    }

    #[derive(Debug, Clone, PartialEq)]
    enum ShardEv {
        /// Node-local: node bumps its own counter and reschedules itself.
        Local(u32),
        /// Barrier: sums all counters into the log.
        Sum,
    }

    /// A toy sharded world: node-local events only touch `counters[node]`;
    /// `handle_wave` applies them in order (batched), which must be
    /// indistinguishable from per-event handling.
    #[derive(Debug, Clone)]
    struct ShardToy {
        counters: Vec<u64>,
        sums: Vec<u64>,
        shards: usize,
        waves_seen: u64,
    }

    impl ShardToy {
        fn apply_local(&mut self, node: u32, now: SimTime, ctx: &mut Context<ShardEv>) {
            self.counters[node as usize] += 1;
            if now < SimTime::from_millis(50) {
                ctx.schedule_after(SimDuration::from_millis(10), ShardEv::Local(node));
            }
        }
    }

    impl World for ShardToy {
        type Event = ShardEv;
        fn handle_event(&mut self, now: SimTime, ev: ShardEv, ctx: &mut Context<ShardEv>) {
            match ev {
                ShardEv::Local(node) => self.apply_local(node, now, ctx),
                ShardEv::Sum => self.sums.push(self.counters.iter().sum()),
            }
        }
    }

    impl ShardedWorld for ShardToy {
        fn shard_count(&self) -> usize {
            self.shards
        }
        fn local_node(&self, ev: &ShardEv) -> Option<NodeId> {
            match ev {
                ShardEv::Local(node) => Some(NodeId::new(*node)),
                ShardEv::Sum => None,
            }
        }
        fn handle_wave(
            &mut self,
            now: SimTime,
            wave: &mut Vec<(u64, ShardEv)>,
            ctx: &mut Context<ShardEv>,
        ) {
            self.waves_seen += 1;
            for (_, ev) in wave.drain(..) {
                match ev {
                    ShardEv::Local(node) => self.apply_local(node, now, ctx),
                    ShardEv::Sum => unreachable!("barriers never enter a wave"),
                }
            }
        }
    }

    #[test]
    fn sharded_run_matches_sequential_and_batches_waves() {
        let build = |shards: usize| {
            let mut eng = Engine::new(ShardToy {
                counters: vec![0; 8],
                sums: Vec::new(),
                shards,
                waves_seen: 0,
            });
            for node in 0..8 {
                eng.schedule(SimTime::ZERO, ShardEv::Local(node));
            }
            // A barrier right in the middle of the same-time runs.
            eng.schedule(SimTime::from_millis(20), ShardEv::Sum);
            eng.schedule(SimTime::from_millis(60), ShardEv::Sum);
            eng
        };
        let mut sequential = build(1);
        let seq_report = sequential.run_until(SimTime::from_millis(100));
        let mut sharded = build(4);
        let shard_report = sharded.run_until_sharded(SimTime::from_millis(100));
        assert_eq!(sharded.world().counters, sequential.world().counters);
        assert_eq!(sharded.world().sums, sequential.world().sums);
        assert_eq!(
            shard_report.events_processed, seq_report.events_processed,
            "waves count every member event"
        );
        assert_eq!(sharded.now(), sequential.now());
        assert!(
            sharded.world().waves_seen > 0,
            "multi-event same-time runs must be batched into waves"
        );
        // shard_count == 1 falls back to the plain sequential loop.
        let mut fallback = build(1);
        fallback.run_until_sharded(SimTime::from_millis(100));
        assert_eq!(fallback.world().waves_seen, 0);
        assert_eq!(fallback.world().counters, sequential.world().counters);
    }

    #[test]
    fn run_until_advances_clock_when_drained() {
        let mut eng = Engine::new(PingPong {
            bounces: 0,
            limit: 1,
        });
        eng.schedule(SimTime::ZERO, Ev::Ping);
        let report = eng.run_until(SimTime::from_secs(10));
        assert!(report.drained);
        assert_eq!(eng.now(), SimTime::from_secs(10));
    }
}

//! The footprint and allocation contract of the blame copies in flight, on
//! the headline scenario at quick scale:
//!
//! * the buffer holds only copies still in flight, never a period's worth:
//!   after any event, nothing in it arrived before that event's instant;
//! * it retains at most twice the copies it ever held at once, at every
//!   point of the run's second half;
//! * once warmed up, putting copies in flight and landing them allocates
//!   nothing.
//!
//! The allocation half measures two kinds of event only, both added to the
//! run: triggers that put a blame's worth of copies in flight through
//! [`SystemWorld::deliver_blame`] (what blame routing does per delivered
//! copy), and no-op gossip ticks, whose whole work is landing what is due.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lifting_core::{Blame, BlameReason};
use lifting_runtime::{Event, Scale, ScenarioRegistry, SystemWorld};
use lifting_sim::{Context, Engine, NodeId, SimDuration, SimTime, StreamId, World};

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread: the tests run in parallel, and each
    /// counts only its own.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Fires a blame's worth of copies (the source resubscribing, which the
/// world would ignore; the watcher handles it instead).
fn trigger() -> Event {
    Event::Resubscribe {
        node: NodeId::new(0),
        from: StreamId::PRIMARY,
        to: StreamId::PRIMARY,
    }
}

/// A gossip tick of a session that never existed: the world lands what is
/// due and drops the tick.
fn stale_tick() -> Event {
    Event::GossipTick {
        node: NodeId::new(1),
        epoch: u32::MAX - 1,
    }
}

struct Watch {
    world: SystemWorld,
    /// The end of the warm-up: the contract is checked from here on.
    warm: SimTime,
    /// The managers of one subject: each trigger sends them a copy.
    managers: Vec<NodeId>,
    subject: NodeId,
    /// The first capacity above twice the peak, with the peak then.
    overgrown: Option<(usize, usize)>,
    /// The first instant a measured event left an arrived copy behind.
    stale: Option<SimTime>,
    /// Allocations inside the measured events, and how many there were.
    allocations: u64,
    measured: u64,
    /// Copies the measured events put in flight and landed.
    sent: usize,
    landed: usize,
}

impl World for Watch {
    type Event = Event;

    fn handle_event(&mut self, now: SimTime, event: Event, ctx: &mut Context<Event>) {
        let in_flight = self.world.blames_in_flight().len();
        let before = allocations();
        match event {
            Event::Resubscribe { node, .. } if node == NodeId::new(0) => {
                let blame = Blame::new(self.subject, 0.5, BlameReason::PartialServe);
                for (k, &manager) in self.managers.iter().enumerate() {
                    let arrival = now + SimDuration::from_millis(30 + 5 * k as u64);
                    self.world.deliver_blame(arrival, manager, &blame, ctx);
                }
                self.allocations += allocations() - before;
                self.measured += 1;
                self.sent += self.world.blames_in_flight().len() - in_flight;
            }
            Event::GossipTick { epoch, .. } if epoch == u32::MAX - 1 => {
                self.world.handle_event(now, event, ctx);
                self.allocations += allocations() - before;
                self.measured += 1;
                self.landed += in_flight - self.world.blames_in_flight().len();
                let arrived = self
                    .world
                    .blames_in_flight()
                    .iter()
                    .any(|b| b.arrival < now);
                if arrived && self.stale.is_none() {
                    self.stale = Some(now);
                }
            }
            _ => self.world.handle_event(now, event, ctx),
        }
        let buffer = self.world.blames_in_flight();
        if now >= self.warm && buffer.capacity() > 2 * buffer.peak() && self.overgrown.is_none() {
            self.overgrown = Some((buffer.capacity(), buffer.peak()));
        }
    }
}

#[test]
fn blames_in_flight_stay_small_and_allocation_free() {
    let config = ScenarioRegistry::builtin().build("headline/planetlab", Scale::Quick, 7);
    let end = SimTime::ZERO + config.duration;
    let warm = SimTime::from_micros(config.duration.as_micros() / 2);
    let world = SystemWorld::new(config);
    let events = world.initial_events();
    let (manager, subject) = world.stacks()[1]
        .reputation
        .iter()
        .map(|(subject, _)| (NodeId::new(1), subject))
        .next()
        .expect("node 1 manages someone");
    let managers: Vec<NodeId> = (1..world.stacks().len())
        .map(|m| NodeId::new(m as u32))
        .filter(|m| {
            world.stacks()[m.index()]
                .reputation
                .record(subject)
                .is_some()
        })
        .collect();
    assert!(managers.contains(&manager));
    let mut engine = Engine::new(Watch {
        world,
        warm,
        managers,
        subject,
        overgrown: None,
        stale: None,
        allocations: 0,
        measured: 0,
        sent: 0,
        landed: 0,
    });
    for (at, event) in events {
        engine.schedule(at, event);
    }
    // Warm up over the first half of the run, then measure through the
    // second: a trigger every 10 ms, a no-op tick every millisecond.
    engine.run_until(warm);
    let mut at = warm;
    while at < end {
        engine.schedule(at, stale_tick());
        if (at.as_micros() / 1_000).is_multiple_of(10) {
            engine.schedule(at, trigger());
        }
        at += SimDuration::from_millis(1);
    }
    engine.run_until(end);

    let watch = engine.world();
    let buffer = watch.world.blames_in_flight();
    assert!(buffer.peak() > 100, "the run keeps blames in flight");
    assert_eq!(watch.stale, None, "a copy that had arrived was still held");
    assert_eq!(
        watch.overgrown, None,
        "(capacity, peak) when the buffer first retained more than twice its peak"
    );
    assert!(
        watch.sent > 1_000 && watch.landed > 1_000,
        "{} sent, {} landed",
        watch.sent,
        watch.landed
    );
    assert_eq!(
        watch.allocations, 0,
        "putting copies in flight and landing them allocated over {} events",
        watch.measured
    );
}

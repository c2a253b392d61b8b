//! Proves the engine's inner loop is allocation-free at steady state: once
//! the queue's buffers have warmed up, handling an event (and scheduling its
//! follow-ups straight into the queue) performs zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lifting_sim::{Context, Engine, SimDuration, SimTime, World};

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

/// A world that keeps a fixed-size frontier of events alive: every event
/// schedules one follow-up, exercising pop, handle and push.
struct Relay {
    handled: u64,
    limit: u64,
}

#[derive(Clone, Copy)]
struct Hop(u32);

impl World for Relay {
    type Event = Hop;

    fn handle_event(&mut self, _now: SimTime, ev: Hop, ctx: &mut Context<Hop>) {
        self.handled += 1;
        if self.handled < self.limit {
            ctx.schedule_after(
                SimDuration::from_micros(u64::from(ev.0 % 7) + 1),
                Hop(ev.0 + 1),
            );
        }
    }
}

#[test]
fn steady_state_event_loop_does_not_allocate() {
    let mut engine = Engine::new(Relay {
        handled: 0,
        limit: u64::MAX,
    });
    for i in 0..16 {
        engine.schedule(SimTime::from_micros(i), Hop(i as u32));
    }
    // Warm up: let the front and the queue's pool of blocks reach their
    // final size. Level 0 of the queue's wheel spans ~262 ms of simulated
    // time, so one full pass (plus slack) touches every level-0 slot at its
    // steady-state occupancy.
    engine.run_until(SimTime::from_millis(600));
    assert!(engine.events_processed() > 1_000);

    let before = allocations();
    let report = engine.run_until(SimTime::from_millis(900));
    let after = allocations();

    assert!(report.events_processed > 1_000);
    assert_eq!(
        after - before,
        0,
        "the warmed-up event loop must not allocate (got {} allocations over {} events)",
        after - before,
        report.events_processed
    );
}

/// Alarms that re-arm themselves forever: timers 0.5–4 s out, one alarm
/// 30 s out and one 5 h out. Their events land in the upper levels of the
/// queue's wheel (262 ms and 67 s slots) and, beyond its 4.8 h span, in the
/// overflow, so the steady state cascades between levels and re-reads the
/// overflow.
struct Alarms {
    fired: u64,
}

#[derive(Clone, Copy)]
enum Alarm {
    Timer(u64),
    HalfMinute,
    Hours,
}

impl World for Alarms {
    type Event = Alarm;

    fn handle_event(&mut self, _now: SimTime, alarm: Alarm, ctx: &mut Context<Alarm>) {
        self.fired += 1;
        let after = match alarm {
            Alarm::Timer(i) => SimDuration::from_millis(500 * (1 + (i + self.fired) % 8)),
            Alarm::HalfMinute => SimDuration::from_secs(30),
            Alarm::Hours => SimDuration::from_secs(5 * 3_600),
        };
        ctx.schedule_after(after, alarm);
    }
}

#[test]
fn cascades_and_overflow_refills_do_not_allocate() {
    let mut engine = Engine::new(Alarms { fired: 0 });
    for i in 0..32 {
        engine.schedule(SimTime::from_millis(37 * i), Alarm::Timer(i));
    }
    engine.schedule(SimTime::from_secs(30), Alarm::HalfMinute);
    engine.schedule(SimTime::from_secs(5 * 3_600), Alarm::Hours);
    // Warm up through two refills from the overflow (one per 4.8 h), so the
    // pool, its tables and the front have met every configuration of slots
    // the alarms take.
    engine.run_until(SimTime::from_secs(11 * 3_600));

    let before = allocations();
    let report = engine.run_until(SimTime::from_secs(16 * 3_600));
    let after = allocations();

    assert!(report.events_processed > 200_000);
    assert_eq!(
        after - before,
        0,
        "cascades and refills must not allocate once warm (got {} allocations over {} events)",
        after - before,
        report.events_processed
    );
}

//! Proves the engine's inner loop is allocation-free at steady state: once
//! the recycled scratch buffer and the queue's buffers have warmed up, handling
//! an event performs zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lifting_sim::{Context, Engine, SimDuration, SimTime, World};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A world that keeps a fixed-size frontier of events alive: every event
/// schedules one follow-up, exercising pop, handle and batched re-push.
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
    // Warm up: let the scratch buffer, the front and every slot of the
    // queue's ring reach their final capacity. The ring spans ~262 ms of
    // simulated time, so one full pass (plus slack) touches every ring index
    // at its steady-state occupancy.
    engine.run_until(SimTime::from_millis(600));
    assert!(engine.events_processed() > 1_000);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = engine.run_until(SimTime::from_millis(900));
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert!(report.events_processed > 1_000);
    assert_eq!(
        after - before,
        0,
        "the warmed-up event loop must not allocate (got {} allocations over {} events)",
        after - before,
        report.events_processed
    );
}

//! The heap the event queue retains must follow the pending set. Traffic is
//! shaped like a LiFTinG run — deliveries 1–200 ms out, 0.5 s gossip ticks,
//! 0.5 / 1.0 / 1.5 s verification timers, 4 s audit ticks, one event 30 s
//! out — so every level of the wheel carries load at once, and a buffer
//! grown in one slot would show if it were ever handed to another.
//!
//! The bound is what the queue's design guarantees: every pending entry in
//! a block of 8, one partial block for each slot the traffic can reach,
//! the pool's bookkeeping per block, the levels' slot tables, and a front of
//! at most twice the largest slot it sorted.

use lifting_sim::{derive_rng, Context, Engine, EventQueue, SimDuration as D, SimTime, World};
use rand::rngs::SmallRng;
use rand::Rng;

/// Entries per block of the queue's pool.
const BLOCK: usize = 8;
/// Slots that may each hold a partial block. Every event but the one at 30 s
/// is due within 4 s, so it sits in one of the 256 slots of 1 ms, one of 17
/// slots of 262 ms, or the next slot of 67 s; the one at 30 s takes one
/// more slot.
const REACHABLE_SLOTS: usize = 256 + 17 + 1 + 1;
/// Per block: an entry in the table of parked blocks (32 B) and one in the
/// stack of spare blocks (24 B), each table holding up to twice what it
/// ever held.
const BLOCK_BOOKKEEPING: usize = 2 * (32 + 24);
/// The slot tables of the three levels: 256 slots of 32 B each.
const SLOT_TABLES: usize = 3 * 256 * 32;

#[derive(Clone, Copy)]
enum Kind {
    Tick,
    Deliver,
    Timer,
    Audit,
    Burst,
    Late,
}

/// Padded so a queued entry is the 56 bytes of the runtime's.
#[derive(Clone, Copy)]
struct Ev {
    kind: Kind,
    _pad: [u64; 4],
}

fn ev(kind: Kind) -> Ev {
    Ev { kind, _pad: [0; 4] }
}

struct Mix {
    rng: SmallRng,
}

impl Mix {
    fn deliveries(&mut self, n: usize, ctx: &mut Context<Ev>) {
        for _ in 0..n {
            let latency = D::from_micros(self.rng.gen_range(1_000..200_000));
            ctx.schedule_after(latency, ev(Kind::Deliver));
        }
    }
}

impl World for Mix {
    type Event = Ev;

    fn handle_event(&mut self, _now: SimTime, event: Ev, ctx: &mut Context<Ev>) {
        match event.kind {
            Kind::Tick => {
                ctx.schedule_after(D::from_millis(500), event);
                self.deliveries(3, ctx);
            }
            Kind::Audit => {
                ctx.schedule_after(D::from_secs(4), event);
                self.deliveries(2, ctx);
            }
            // Half the deliveries are answered and a third arm a timer, so
            // the in-flight population is stationary.
            Kind::Deliver => {
                let draw = self.rng.gen_range(0u32..6);
                self.deliveries((draw < 3) as usize, ctx);
                if draw % 3 == 0 {
                    let wait = D::from_millis(500 * self.rng.gen_range(1u64..=3));
                    ctx.schedule_after(wait, ev(Kind::Timer));
                }
            }
            // A synchronised population: `BURST` events due at one instant,
            // every 0.75 s.
            Kind::Burst => {
                ctx.schedule_after(D::from_millis(750), event);
                for _ in 0..BURST {
                    ctx.schedule_after(D::from_millis(300), ev(Kind::Late));
                }
            }
            Kind::Timer | Kind::Late => {}
        }
    }
}

/// The most the queue may retain for `peak_pending` entries when no slot it
/// sorted held more than `largest_slot`.
fn bound(peak_pending: usize, largest_slot: usize) -> usize {
    let entry = EventQueue::<Ev>::ENTRY_BYTES;
    let blocks = peak_pending.div_ceil(BLOCK) + REACHABLE_SLOTS;
    blocks * (BLOCK * entry + BLOCK_BOOKKEEPING) + SLOT_TABLES + 2 * largest_slot * entry
}

/// Events per burst.
const BURST: usize = 1_024;

/// Runs `nodes` ticking nodes (and bursts, if `bursts`) for `secs` simulated
/// seconds, checking the retained heap against [`bound`] every second;
/// returns the peak pending count.
fn run(nodes: usize, bursts: bool, secs: u64, largest_slot: usize) -> usize {
    assert_eq!(EventQueue::<Ev>::ENTRY_BYTES, 56);
    let mut rng = derive_rng(14, 0);
    let mut engine = Engine::new(Mix {
        rng: derive_rng(14, 1),
    });
    for _ in 0..nodes {
        let phase = SimTime::from_micros(rng.gen_range(0..500_000));
        engine.schedule(phase, ev(Kind::Tick));
        let phase = SimTime::from_micros(rng.gen_range(0..4_000_000));
        engine.schedule(phase, ev(Kind::Audit));
    }
    engine.schedule(SimTime::from_secs(30), ev(Kind::Late));
    if bursts {
        engine.schedule(SimTime::from_millis(50), ev(Kind::Burst));
    }

    let mut peak_pending = 0;
    for step in 1..=10 * secs {
        engine.run_until(SimTime::from_millis(100 * step));
        peak_pending = peak_pending.max(engine.pending_events());
        if step % 10 == 0 {
            let (heap, bound) = (engine.queue_heap_bytes(), bound(peak_pending, largest_slot));
            assert!(
                heap <= bound,
                "at {} s the queue retains {heap} B for a peak of {peak_pending} pending \
                 entries ({:.2}x; bound {bound} B)",
                step / 10,
                heap as f64 / (peak_pending * EventQueue::<Ev>::ENTRY_BYTES) as f64
            );
        }
    }
    assert!(
        engine.events_processed() as usize > 15 * nodes * secs as usize,
        "the mix must keep the queue loaded ({} events)",
        engine.events_processed()
    );
    peak_pending
}

#[test]
fn retained_heap_follows_the_pending_set() {
    // No 1 ms slot of this mix holds 100 events.
    let peak_pending = run(1_000, false, 10, 100);
    assert!(peak_pending > 5_000, "{peak_pending} pending at the peak");
}

/// A burst slot every 0.75 s on top of steady traffic: the blocks a burst
/// filled go back to the pool and serve the other slots one at a time,
/// instead of a burst-sized buffer being handed from slot to slot until
/// every slot has grown to it.
#[test]
fn burst_slots_do_not_grow_every_other_slot() {
    run(300, true, 20, BURST + 100);
}

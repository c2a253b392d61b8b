//! The heap the event queue retains must follow the pending set. Traffic is
//! shaped like a LiFTinG run — deliveries 1–200 ms out, 0.5 s gossip ticks,
//! 0.5 / 1.0 / 1.5 s verification timers, 4 s audit ticks, one event 30 s
//! out — so every tier of the queue carries load at once and a buffer grown
//! in one tier would show if it were ever handed to another.

use lifting_sim::{derive_rng, Context, Engine, EventQueue, SimDuration as D, SimTime, World};
use rand::rngs::SmallRng;
use rand::Rng;

#[derive(Clone, Copy)]
enum Kind {
    Tick,
    Deliver,
    Timer,
    Audit,
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
            Kind::Timer | Kind::Late => {}
        }
    }
}

#[test]
fn retained_heap_follows_the_pending_set() {
    let entry = EventQueue::<Ev>::ENTRY_BYTES;
    assert_eq!(entry, 56);
    let mut rng = derive_rng(14, 0);
    let mut engine = Engine::new(Mix {
        rng: derive_rng(14, 1),
    });
    for _ in 0..300 {
        let phase = SimTime::from_micros(rng.gen_range(0..500_000));
        engine.schedule(phase, ev(Kind::Tick));
        let phase = SimTime::from_micros(rng.gen_range(0..4_000_000));
        engine.schedule(phase, ev(Kind::Audit));
    }
    engine.schedule(SimTime::from_secs(30), ev(Kind::Late));

    let mut peak_pending = 0;
    for step in 1..=200u64 {
        engine.run_until(SimTime::from_millis(100 * step));
        peak_pending = peak_pending.max(engine.pending_events());
        if step % 10 == 0 {
            let (heap, bound) = (
                engine.queue_heap_bytes(),
                4 * peak_pending * entry + (64 << 10),
            );
            assert!(
                heap <= bound,
                "at {} s the queue retains {heap} B for a peak of {peak_pending} pending \
                 entries ({:.1}x; bound {bound} B)",
                step / 10,
                heap as f64 / (peak_pending * entry) as f64
            );
        }
    }
    assert!(
        peak_pending > 1_500 && engine.events_processed() > 100_000,
        "the mix must keep the queue loaded ({peak_pending} pending, {} events)",
        engine.events_processed()
    );
}

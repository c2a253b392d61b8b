//! Blame copies and witness answers travel outside the event queue: a blame
//! copy lands from the world's in-flight buffer, and a witness's answer lands
//! in its confirm check when it is sent. On the headline scenario at quick
//! scale no `Deliver` event may carry either, while the acks and confirm
//! requests that cause them do go through the queue.

use lifting_core::VerificationMessage;
use lifting_runtime::{Event, Message, Scale, ScenarioRegistry, SystemWorld};
use lifting_sim::{Context, Engine, SimTime, World};

/// Counts the verification messages the queue delivers: acks and confirm
/// requests (`checks`), witness answers and blame copies.
struct Counting {
    world: SystemWorld,
    checks: u64,
    answers: u64,
    blames: u64,
}

impl World for Counting {
    type Event = Event;

    fn handle_event(&mut self, now: SimTime, event: Event, ctx: &mut Context<Event>) {
        if let Event::Deliver {
            message: Message::Verification(message),
            ..
        } = &event
        {
            match message {
                VerificationMessage::Ack(_) | VerificationMessage::Confirm(_) => self.checks += 1,
                VerificationMessage::ConfirmResponse(_) => self.answers += 1,
                VerificationMessage::Blame(_) => self.blames += 1,
                _ => {}
            }
        }
        self.world.handle_event(now, event, ctx);
    }
}

#[test]
fn no_blame_or_witness_answer_goes_through_the_queue() {
    let config = ScenarioRegistry::builtin().build("headline/planetlab", Scale::Quick, 30);
    let end = SimTime::ZERO + config.duration;
    let world = SystemWorld::new(config);
    let events = world.initial_events();
    let mut engine = Engine::new(Counting {
        world,
        checks: 0,
        answers: 0,
        blames: 0,
    });
    for (at, event) in events {
        engine.schedule(at, event);
    }
    engine.run_until(end);

    let counts = engine.world();
    assert_eq!(
        counts.blames, 0,
        "blame deliveries went through the event queue"
    );
    assert_eq!(
        counts.answers, 0,
        "witness answers went through the event queue"
    );
    assert!(
        counts.checks > 0,
        "the run verified nothing through the queue"
    );
    assert!(
        counts.world.blames_in_flight().peak() > 0,
        "the run routed no blame copy"
    );
}

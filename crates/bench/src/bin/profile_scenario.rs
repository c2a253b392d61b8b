//! Poor-man's profiler for the per-run hot path (no external profiler in the
//! build environment): runs the headline Quick scenario under a counting
//! allocator, attributes wall time to each event kind through a timing
//! `World` adapter, and re-times the scenario under feature knobs
//! (differential attribution). Micro-probes of the building blocks (engine
//! machinery, network send, `on_confirm`, blame sampling) live in the repo
//! benchmark: `benchmark run --trace`.
//!
//! The quick run also reads out the scheduler: pending events, the heap bytes
//! the event queue retains, and their ratio to `pending x entry size`; then
//! the simulated system's estimated heap by component, as B and B/node.
//!
//! Flags: `--scenario NAME` picks the profiled scenario (default
//! `headline/planetlab`). A bad command line — an unknown flag included — is
//! a usage error (one line plus the usage line on stderr, exit status 2);
//! `--help` / `-h` print the usage line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lifting_bench::Usage;
use lifting_runtime::{run_scenario, Scale, ScenarioConfig, ScenarioRegistry};

const USAGE: Usage = Usage("usage: profile_scenario [--scenario NAME]");

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

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

fn time_run(label: &str, config: &ScenarioConfig) {
    let start = Instant::now();
    let _ = run_scenario(config.clone());
    println!("{label:<44} {:8.3}s", start.elapsed().as_secs_f64());
}

fn headline_breakdown(base: &ScenarioConfig) {
    let start = Instant::now();
    let mut engine = lifting_runtime::build_engine(base.clone());
    let build_secs = start.elapsed().as_secs_f64();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    engine.run_until(lifting_sim::SimTime::ZERO + base.duration);
    let run_secs = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let events = engine.events_processed();
    let lags: Vec<lifting_sim::SimDuration> =
        (0..=30).map(lifting_sim::SimDuration::from_secs).collect();
    let start = Instant::now();
    let outcome = engine.world().run_outcome(
        lifting_sim::SimTime::ZERO + base.duration,
        Vec::new(),
        &lags,
    );
    let outcome_secs = start.elapsed().as_secs_f64();
    println!(
        "build {build_secs:.3}s  run {run_secs:.3}s  outcome {outcome_secs:.3}s  \
         events {events}  msgs {}  ns/event {:.0}  allocs/event {:.2}",
        outcome.traffic.total_messages_sent,
        run_secs * 1e9 / events as f64,
        allocs as f64 / events as f64,
    );
    // What the scheduler retains against what it holds at the end of the run
    // (`ci.sh` gates this line).
    let pending = engine.pending_events();
    let entry = lifting_sim::EventQueue::<lifting_runtime::Event>::ENTRY_BYTES;
    let queue_bytes = engine.queue_heap_bytes();
    println!(
        "pending events {pending}  queue heap bytes {queue_bytes}  \
         ({:.2}x pending x {entry}-byte entry)",
        queue_bytes as f64 / (pending * entry).max(1) as f64
    );
    // What the simulated system holds, by component (the capacity walk behind
    // `memory_per_node_bytes`).
    let nodes = base.nodes.max(1) as u64;
    for (component, bytes) in engine.world().memory_breakdown() {
        println!(
            "  {component:<32} {bytes:>12} B {:>8} B/node",
            bytes / nodes
        );
    }
    for (cat, stats) in &outcome.traffic.per_category {
        if stats.messages_sent > 0 {
            println!(
                "  {cat:?}: sent {} delivered {}",
                stats.messages_sent, stats.messages_delivered
            );
        }
    }
}

/// Attributes handler time to each event kind. The two `Instant::now` calls
/// per event add a fixed overhead (printed last) — subtract it mentally.
fn per_event_kind_attribution(base: &ScenarioConfig) {
    use lifting_runtime::{Event, Message, SystemWorld};
    use lifting_sim::{Context, Engine, SimTime, World};

    const NAMES: [&str; 13] = [
        "SourceEmit",
        "GossipTick",
        "PeriodEnd",
        "AuditTick",
        "Timer",
        "Churn",
        "Propose",
        "Request",
        "Serve",
        "Ack",
        "Confirm",
        "ConfirmResp",
        "Blame",
    ];

    struct TimedWorld {
        inner: SystemWorld,
        buckets: [(f64, u64); 13],
    }
    impl TimedWorld {
        fn kind(ev: &Event) -> usize {
            match ev {
                Event::SourceEmit { .. } => 0,
                Event::GossipTick { .. } => 1,
                Event::PeriodEnd => 2,
                Event::AuditTick { .. } => 3,
                Event::Timer { .. } => 4,
                Event::Churn { .. } => 5,
                // Rare membership-level transitions share the churn bucket.
                Event::Fault { .. } | Event::Resubscribe { .. } => 5,
                Event::Deliver { message, .. } => match message {
                    Message::Gossip(g) => match g {
                        lifting_gossip::GossipMessage::Propose(_) => 6,
                        lifting_gossip::GossipMessage::Request(_) => 7,
                        lifting_gossip::GossipMessage::Serve(_) => 8,
                    },
                    Message::Verification(v) => match v {
                        lifting_core::VerificationMessage::Ack(_) => 9,
                        lifting_core::VerificationMessage::Confirm(_) => 10,
                        lifting_core::VerificationMessage::ConfirmResponse(_) => 11,
                        _ => 12,
                    },
                },
            }
        }
    }
    impl World for TimedWorld {
        type Event = Event;
        fn handle_event(&mut self, now: SimTime, ev: Event, ctx: &mut Context<Event>) {
            let k = Self::kind(&ev);
            let start = Instant::now();
            self.inner.handle_event(now, ev, ctx);
            self.buckets[k].0 += start.elapsed().as_secs_f64();
            self.buckets[k].1 += 1;
        }
    }

    let world = SystemWorld::new(base.clone());
    let events = world.initial_events();
    let mut engine = Engine::new(TimedWorld {
        inner: world,
        buckets: [(0.0, 0); 13],
    });
    for (t, e) in events {
        engine.schedule(t, e);
    }
    engine.run_until(SimTime::ZERO + base.duration);
    let mut rows: Vec<(&str, f64, u64)> = NAMES
        .iter()
        .zip(engine.world().buckets)
        .map(|(name, (secs, count))| (*name, secs, count))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, secs, count) in rows {
        if count > 0 {
            println!(
                "  {name:<12} {secs:7.3}s  {count:8} events  {:7.0} ns/event",
                secs * 1e9 / count as f64
            );
        }
    }
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..1_000_000 {
        acc = acc.wrapping_add(Instant::now().elapsed().as_nanos() as u64);
    }
    println!(
        "  (timing overhead: {:.0} ns per event, accumulator {acc})",
        start.elapsed().as_secs_f64() * 1e9 / 1_000_000.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(extra) = USAGE.positionals(&args, &[], &["--scenario"]).first() {
        USAGE.error(format_args!("unexpected argument {extra:?}"));
    }
    let scenario: String = USAGE
        .flag_value(&args, "--scenario", "a scenario name")
        .unwrap_or_else(|| "headline/planetlab".into());
    let Some(base) = ScenarioRegistry::builtin().try_build(&scenario, Scale::Quick, 30) else {
        USAGE.error(format_args!(
            "unknown scenario {scenario:?}; see run_scenario --list"
        ));
    };

    println!("-- {scenario} quick run ------------------------------------------");
    headline_breakdown(&base);

    println!("-- per-event-kind attribution ----------------------------------");
    per_event_kind_attribution(&base);

    println!("-- differential knobs ------------------------------------------");
    time_run("headline quick (as-is)", &base);
    let mut c = base.clone();
    c.lifting.pdcc = 0.0;
    time_run("pdcc = 0 (no cross-check confirms)", &c);
    let mut c = base.clone();
    c.lifting_enabled = false;
    time_run("lifting disabled (gossip only)", &c);
    let mut c = base.clone();
    c.lifting.history_periods = 5;
    time_run("history nh = 5", &c);
}

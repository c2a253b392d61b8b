//! Poor-man's profiler for the per-run hot path (no external profiler in the
//! build environment): runs the headline Quick scenario under a counting
//! allocator, attributes wall time to each event kind through a timing
//! `World` adapter, re-times the scenario under feature knobs (differential
//! attribution), and micro-times the building blocks.
//!
//! This is the harness that guided the time-wheel / flat-index / Arc-payload
//! optimization pass; keep it honest when touching the hot path.
//!
//! The quick run also reads out the scheduler: pending events, the heap bytes
//! the event queue retains, and their ratio to `pending x entry size`; then
//! the simulated system's estimated heap by component, as B and B/node.
//!
//! Flags: `--scenario NAME` picks the profiled scenario (default
//! `headline/planetlab`); `--shards K` additionally re-runs it through the
//! shard-parallel wave executor and prints its counters (waves formed, events
//! executed in waves, intra- vs cross-shard staged effects, and the full
//! src→dst matrix of staged-effect counts). A bad command line — an unknown
//! flag included — is a usage error (one line plus the usage line on stderr,
//! exit status 2); `--help` / `-h` print the usage line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lifting_bench::Usage;
use lifting_runtime::{run_scenario, Scale, ScenarioConfig, ScenarioRegistry};

const USAGE: Usage = Usage("usage: profile_scenario [--scenario NAME] [--shards K]");

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

fn headline_breakdown(base: &ScenarioConfig) -> u64 {
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
    outcome.traffic.total_messages_sent
}

/// Re-runs the scenario through the shard-parallel wave executor and prints
/// its observability counters. The outcome is bit-identical to the sequential
/// run (asserted here on the cheap totals); what this section adds is the
/// execution-shape readout: how many same-timestamp waves formed, how many
/// events they covered, and how the staged effects split between the acting
/// node's own shard and sends addressed to another shard's node.
fn sharded_breakdown(base: &ScenarioConfig, shards: usize, sequential_msgs: u64) {
    use lifting_sim::SimTime;

    let mut engine = lifting_runtime::build_engine(base.clone());
    engine.world_mut().set_shard_count(shards);
    let start = Instant::now();
    engine.run_until_sharded(SimTime::ZERO + base.duration);
    let run_secs = start.elapsed().as_secs_f64();
    let world = engine.world();
    let k = world.shard_count();
    let ranges: Vec<String> = (0..k)
        .map(|s| {
            let (lo, hi) = world.shard_range(s);
            format!("{lo}..{hi}")
        })
        .collect();
    println!(
        "sharded run ({k} shards: {})           {run_secs:8.3}s",
        ranges.join(", ")
    );
    let msgs = world.traffic_messages_sent();
    assert_eq!(
        msgs, sequential_msgs,
        "sharded run diverged from sequential (messages {msgs} vs {sequential_msgs})"
    );
    if let Some((waves, wave_events, intra, cross)) = world.wave_stats() {
        let staged = intra + cross;
        println!(
            "  waves {waves}  events-in-waves {wave_events}  staged actions {staged} \
             (intra {intra}, cross {cross}, cross share {:.1}%)",
            100.0 * cross as f64 / (staged.max(1)) as f64
        );
        println!("  staged effects (src shard -> dst shard):");
        for src in 0..k {
            let row: Vec<String> = (0..k)
                .map(|dst| format!("{:>10}", world.wave_mailbox_pushed(src, dst)))
                .collect();
            println!("    {src} | {}", row.join(" "));
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

fn engine_machinery() {
    use lifting_sim::{Context, Engine, SimDuration, SimTime, World};

    /// Payload sized like the real `Event` (48 bytes) so queue moves cost
    /// what they cost in production.
    #[derive(Clone, Copy)]
    struct Fat(u64, [u64; 5]);

    struct Churn {
        rng: rand::rngs::SmallRng,
    }
    impl World for Churn {
        type Event = Fat;
        fn handle_event(&mut self, _now: SimTime, ev: Fat, ctx: &mut Context<Fat>) {
            use rand::Rng;
            // Latency-like delays: most a few hundred ms, some 500 ms ticks.
            let delay = if ev.0.is_multiple_of(5) {
                SimDuration::from_millis(500)
            } else {
                SimDuration::from_micros(self.rng.gen_range(10_000..400_000))
            };
            ctx.schedule_after(delay, Fat(ev.0 + 1, ev.1));
        }
    }
    let mut engine = Engine::new(Churn {
        rng: lifting_sim::derive_rng(9, 9),
    });
    for i in 0..2_000u64 {
        engine.schedule(SimTime::from_micros(i * 37), Fat(i, [0; 5]));
    }
    engine.run_until(SimTime::from_secs(5)); // warm up the queue
    let start = Instant::now();
    let report = engine.run_until(SimTime::from_secs(35));
    println!(
        "engine machinery                             {:8.1} ns/event ({} events)",
        start.elapsed().as_secs_f64() * 1e9 / report.events_processed as f64,
        report.events_processed
    );
}

fn component_micro_timings() {
    use lifting_analysis::{BlameModel, FreeridingDegree, ProtocolParams};
    use lifting_core::{CollusionConfig, ConfirmPayload, LiftingConfig, Verifier};
    use lifting_gossip::ChunkId;
    use lifting_sim::{derive_rng, NodeId, SimTime};

    {
        let model = BlameModel::new(ProtocolParams::simulation_defaults(), 1.0);
        let start = Instant::now();
        let s = model.estimate_blame_stats(FreeridingDegree::HONEST, 100_000, 42);
        println!(
            "sample_period_blame (honest)             {:8.1} ns/op (mean {:.2})",
            start.elapsed().as_secs_f64() * 1e9 / 100_000.0,
            s.mean
        );
    }

    {
        let n = 1_000_000u64;
        let mut net = lifting_net::Network::new(
            100,
            lifting_net::NetworkConfig::planetlab(0.04),
            derive_rng(1, 0),
        );
        let start = Instant::now();
        let mut delivered = 0u64;
        for i in 0..n {
            let out = net.send(
                SimTime::from_micros(i),
                NodeId::new((i % 99) as u32),
                NodeId::new(((i + 1) % 99) as u32),
                64,
                lifting_net::TrafficCategory::Verification,
            );
            if out.is_delivered() {
                delivered += 1;
            }
        }
        println!(
            "network.send                             {:8.1} ns/op ({delivered} delivered)",
            start.elapsed().as_secs_f64() * 1e9 / n as f64
        );
    }

    {
        let mut v = Verifier::new(
            NodeId::new(1),
            7,
            LiftingConfig::planetlab(),
            CollusionConfig::none(),
        );
        for p in 0..50u64 {
            v.begin_period(p);
            for s in 0..7u32 {
                v.on_propose_received(
                    NodeId::new(10 + s),
                    (0..5)
                        .map(|k| ChunkId::primary(p * 5 + k))
                        .collect::<Vec<_>>()
                        .into(),
                    SimTime::from_millis(p),
                );
            }
        }
        let m = 200_000u64;
        let start = Instant::now();
        let mut answers = 0u64;
        for i in 0..m {
            let out = v.on_confirm(
                NodeId::new((i % 50) as u32 + 100),
                &ConfirmPayload {
                    subject: NodeId::new(10 + (i % 7) as u32),
                    chunks: vec![ChunkId::primary((i % 245) + 1)].into(),
                    token: i,
                },
                SimTime::from_secs(25),
            );
            answers += out.len() as u64;
        }
        println!(
            "verifier.on_confirm                      {:8.1} ns/op ({answers} answers)",
            start.elapsed().as_secs_f64() * 1e9 / m as f64
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(extra) = USAGE
        .positionals(&args, &[], &["--scenario", "--shards"])
        .first()
    {
        USAGE.error(format_args!("unexpected argument {extra:?}"));
    }
    let scenario: String = USAGE
        .flag_value(&args, "--scenario", "a scenario name")
        .unwrap_or_else(|| "headline/planetlab".into());
    let shards: usize = USAGE
        .flag_value(&args, "--shards", "a positive integer")
        .unwrap_or(1);
    let Some(base) = ScenarioRegistry::builtin().try_build(&scenario, Scale::Quick, 30) else {
        USAGE.error(format_args!(
            "unknown scenario {scenario:?}; see run_scenario --list"
        ));
    };

    println!("-- {scenario} quick run ------------------------------------------");
    let sequential_msgs = headline_breakdown(&base);

    if shards > 1 {
        println!("-- sharded execution -------------------------------------------");
        sharded_breakdown(&base, shards, sequential_msgs);
    }

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

    println!("-- building blocks ---------------------------------------------");
    engine_machinery();
    component_micro_timings();
}

//! Every call into the program under test lives in this file (README.md
//! lists the public items used). The rest of the benchmark sees plain data:
//! [`JobRun`], [`Facts`], [`Bucket`], [`Legs`].
//!
//! Nothing here reads an environment variable, and the workload path never
//! goes through the env-reading `run_scenario*` helpers, so `LIFTING_SHARDS`
//! and `LIFTING_WORKERS` cannot move an end-to-end number. Only
//! [`pool_leg`] calls those helpers, on purpose.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lifting_analysis::{shannon_entropy, BlameModel, FreeridingDegree, ProtocolParams};
use lifting_core::{
    AuditOracle, Auditor, CollusionConfig, ConfirmPayload, LiftingConfig, NodeHistory,
    VerificationMessage, Verifier,
};
use lifting_gossip::{Behavior, ChunkId, GossipConfig, GossipMessage, GossipNode};
use lifting_membership::Directory;
use lifting_net::{Network, NetworkConfig, TrafficCategory};
use lifting_reputation::ManagerState;
use lifting_runtime::runner::default_lag_grid;
use lifting_runtime::{
    build_engine, exporter_components, run_scenario, run_scenarios_parallel, Event, Message,
    RunOutcome, Scale, ScenarioConfig, ScenarioRegistry, SystemWorld,
};
use lifting_sim::{
    derive_rng, Context, Engine, NodeId, ParamMap, SeedSplitter, SimDuration, SimTime, World,
};
use rand::Rng;

use crate::alloc::HEAP;

/// A closed interval of host time around one public call.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start: Instant,
    pub end: Instant,
}

impl Interval {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    (value, Interval { start, end })
}

/// The event kinds handler time is attributed to, named `<layer>.<kind>`.
/// A layer's `busy_s` is the sum over its kinds.
pub const HANDLERS: [&str; 13] = [
    "gossip.source_emit",
    "gossip.tick",
    "gossip.propose",
    "gossip.request",
    "gossip.serve",
    "lifting.ack",
    "lifting.confirm",
    "lifting.confirm_resp",
    "lifting.timer",
    "lifting.audit_tick",
    "reputation.blame",
    "reputation.period_end",
    "membership.churn",
];

/// Positions in [`HANDLERS`].
#[derive(Clone, Copy)]
enum Handler {
    SourceEmit,
    Tick,
    Propose,
    Request,
    Serve,
    Ack,
    Confirm,
    ConfirmResp,
    Timer,
    AuditTick,
    Blame,
    PeriodEnd,
    Churn,
}

fn handler_of(event: &Event) -> Handler {
    match event {
        Event::SourceEmit { .. } => Handler::SourceEmit,
        Event::GossipTick { .. } => Handler::Tick,
        Event::Deliver { message, .. } => match message {
            Message::Gossip(GossipMessage::Propose(_)) => Handler::Propose,
            Message::Gossip(GossipMessage::Request(_)) => Handler::Request,
            Message::Gossip(GossipMessage::Serve(_)) => Handler::Serve,
            Message::Verification(VerificationMessage::Ack(_)) => Handler::Ack,
            Message::Verification(VerificationMessage::Confirm(_)) => Handler::Confirm,
            Message::Verification(VerificationMessage::ConfirmResponse(_)) => Handler::ConfirmResp,
            Message::Verification(VerificationMessage::Blame(_)) => Handler::Blame,
            // Audit transfers are accounted inside `AuditTick` today and
            // never travel as events; if they ever do, they are audit work.
            Message::Verification(
                VerificationMessage::HistoryRequest | VerificationMessage::HistoryResponse(_),
            ) => Handler::AuditTick,
        },
        Event::Timer { .. } => Handler::Timer,
        Event::AuditTick { .. } => Handler::AuditTick,
        Event::PeriodEnd => Handler::PeriodEnd,
        Event::Churn { .. } | Event::Fault { .. } | Event::Resubscribe { .. } => Handler::Churn,
    }
}

/// Calls, summed time and longest call of one handler kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bucket {
    pub count: u64,
    pub busy_ns: u64,
    pub max_ns: u64,
}

/// The tracing adapter: a `World` that wraps [`SystemWorld`] and times each
/// `handle_event` from outside.
struct TimedWorld {
    inner: SystemWorld,
    buckets: [Bucket; HANDLERS.len()],
}

impl World for TimedWorld {
    type Event = Event;

    fn handle_event(&mut self, now: SimTime, event: Event, ctx: &mut Context<Event>) {
        let handler = handler_of(&event);
        let start = Instant::now();
        self.inner.handle_event(now, event, ctx);
        let ns = start.elapsed().as_nanos() as u64;
        let bucket = &mut self.buckets[handler as usize];
        bucket.count += 1;
        bucket.busy_ns += ns;
        bucket.max_ns = bucket.max_ns.max(ns);
    }
}

/// Cost of the adapter's two clock reads, in nanoseconds per event.
pub fn timer_overhead_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let mut acc = 0u64;
    let start = Instant::now();
    for _ in 0..READS {
        acc = acc.wrapping_add(Instant::now().elapsed().as_nanos() as u64);
    }
    let total = start.elapsed();
    black_box(acc);
    total.as_secs_f64() * 1e9 / f64::from(READS)
}

/// Simulated statistics summed over jobs and reported as per-layer counts.
/// A change meant only to speed the simulator up must leave all of them
/// identical.
pub const COUNTERS: [&str; 23] = [
    "sim.events",
    "net.messages_sent",
    "net.messages_delivered",
    "net.bytes_sent",
    "net.gossip.messages_sent",
    "net.gossip.bytes_sent",
    "net.verification.messages_sent",
    "net.verification.bytes_sent",
    "net.audit.messages_sent",
    "net.audit.bytes_sent",
    "net.reputation.messages_sent",
    "net.reputation.bytes_sent",
    "net.membership.messages_sent",
    "net.membership.bytes_sent",
    "lifting.confirm_timeouts",
    "lifting.confirm_resends",
    "lifting.confirm_aborts",
    "lifting.audit_rpc_timeouts",
    "lifting.audit_rpc_retries",
    "lifting.audits_aborted",
    "membership.sessions",
    "membership.departures",
    "membership.rejoins",
];

/// What one finished job says about the simulated system: the inputs of the
/// correctness checks and the deterministic counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    pub nodes: u64,
    pub sim_secs: f64,
    /// `<scenario>: 0x<hash>` from the registered `digest` exporter.
    pub digest: String,
    /// In [`COUNTERS`] order.
    pub counts: [u64; COUNTERS.len()],
    /// `messages_delivered <= messages_sent` held in every traffic category.
    pub delivered_within_sent: bool,
    pub node_outcomes: u64,
    pub expelled: u64,
    /// NaN when the class is empty.
    pub mean_honest_score: f64,
    pub mean_freerider_score: f64,
    pub memory_per_node_bytes: f64,
}

impl Facts {
    pub fn count(&self, name: &str) -> u64 {
        let index = COUNTERS
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("{name} is not a counter"));
        self.counts[index]
    }

    fn read(job: JobSpec, nodes: usize, events: u64, world: &SystemWorld, o: &RunOutcome) -> Self {
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let mut counts = vec![events, o.traffic.total_messages_sent];
        counts.push(
            o.traffic
                .per_category
                .iter()
                .map(|(_, c)| c.messages_delivered)
                .sum(),
        );
        counts.push(o.traffic.total_bytes_sent);
        for layer in &o.layer_traffic {
            counts.extend([layer.messages_sent, layer.bytes_sent]);
        }
        counts.extend([
            o.confirm_retry.timeouts,
            o.confirm_retry.resends,
            o.confirm_retry.aborts,
            o.audit_rpc.rpc_timeouts,
            o.audit_rpc.rpc_retries,
            o.audit_rpc.aborted_unreachable + o.churn.audits_aborted_by_departure,
            o.churn.sessions,
            o.churn.departures,
            o.churn.rejoins,
        ]);
        Facts {
            nodes: nodes as u64,
            sim_secs: o.duration.as_secs_f64(),
            digest: digest(job, world, o),
            counts: counts
                .try_into()
                .expect("one value per COUNTERS entry (five stack layers)"),
            delivered_within_sent: o
                .traffic
                .per_category
                .iter()
                .all(|(_, c)| c.messages_delivered <= c.messages_sent),
            node_outcomes: o.finals.outcomes.len() as u64,
            expelled: o.expelled_count as u64,
            mean_honest_score: mean(o.finals.honest_scores()),
            mean_freerider_score: mean(o.finals.freerider_scores()),
            memory_per_node_bytes: o.memory_per_node_bytes,
        }
    }
}

/// `<scenario>: 0x<hash>` of an outcome, from the registered `digest` exporter.
fn digest(job: JobSpec, world: &SystemWorld, outcome: &RunOutcome) -> String {
    exporter_components()
        .build("digest", &ParamMap::new(), &mut SeedSplitter::new(job.seed))
        .expect("the digest exporter is registered")
        .export(job.scenario, world.effective_eta(), outcome)
}

/// One scenario to build at the given seed and run to its own duration.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    pub scenario: &'static str,
    pub seed: u64,
}

/// Set-up of a traced job, split the way `build_engine` does it.
#[derive(Debug, Clone, Copy)]
pub struct TracedSetup {
    pub world: Interval,
    pub schedule: Interval,
    pub handlers: [Bucket; HANDLERS.len()],
}

/// The measurements of one job.
#[derive(Debug, Clone)]
pub struct JobRun {
    pub spec: JobSpec,
    pub config: Interval,
    /// `build_engine`, or its two halves back to back when traced.
    pub build: Interval,
    pub run: Interval,
    pub readout: Interval,
    pub drop: Interval,
    pub facts: Facts,
    /// Highest live heap between the job's first call and the end of readout.
    pub peak_live_bytes: usize,
    /// Allocations inside `run_until`.
    pub allocs_run: u64,
    /// Allocations from set-up to the end of readout.
    pub allocs: u64,
    pub traced: Option<TracedSetup>,
}

impl JobRun {
    pub fn setup_s(&self) -> f64 {
        self.config.secs() + self.build.secs()
    }

    pub fn wall_s(&self) -> f64 {
        self.setup_s() + self.run.secs() + self.readout.secs() + self.drop.secs()
    }
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale::Quick
    } else {
        Scale::Paper
    }
}

/// Access to the wrapped world, so traced and untraced jobs share one tail.
trait HasSystem: World<Event = Event> {
    fn system(&self) -> &SystemWorld;
}

impl HasSystem for SystemWorld {
    fn system(&self) -> &SystemWorld {
        self
    }
}

impl HasSystem for TimedWorld {
    fn system(&self) -> &SystemWorld {
        &self.inner
    }
}

/// Runs one job through the public entry points, each phase timed around
/// the call. With `traced`, the engine is assembled by hand — exactly what
/// `build_engine` does — around the timing adapter.
pub fn run_job(job: JobSpec, quick: bool, traced: bool) -> JobRun {
    HEAP.reset_peak();
    let allocs_before = HEAP.allocs();
    let (config, config_iv) =
        timed(|| ScenarioRegistry::builtin().build(job.scenario, scale(quick), job.seed));
    let (nodes, duration) = (config.nodes, config.duration);
    if traced {
        let (world, world_iv) = timed(|| SystemWorld::new(config));
        let (engine, schedule_iv) = timed(|| {
            let events = world.initial_events();
            let mut engine = Engine::new(TimedWorld {
                inner: world,
                buckets: [Bucket::default(); HANDLERS.len()],
            });
            for (time, event) in events {
                engine.schedule(time, event);
            }
            engine
        });
        let build = Interval {
            start: world_iv.start,
            end: schedule_iv.end,
        };
        let setup = |w: &TimedWorld| TracedSetup {
            world: world_iv,
            schedule: schedule_iv,
            handlers: w.buckets,
        };
        finish(
            job,
            nodes,
            duration,
            allocs_before,
            config_iv,
            build,
            engine,
            |w| Some(setup(w)),
        )
    } else {
        let (engine, build) = timed(|| build_engine(config));
        finish(
            job,
            nodes,
            duration,
            allocs_before,
            config_iv,
            build,
            engine,
            |_| None,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn finish<W: HasSystem>(
    job: JobSpec,
    nodes: usize,
    duration: SimDuration,
    allocs_before: u64,
    config: Interval,
    build: Interval,
    mut engine: Engine<W>,
    traced: impl FnOnce(&W) -> Option<TracedSetup>,
) -> JobRun {
    let end = SimTime::ZERO + duration;
    let lags = default_lag_grid();
    let allocs_at_run = HEAP.allocs();
    let (_, run) = timed(|| engine.run_until(end));
    let allocs_run = HEAP.allocs() - allocs_at_run;
    let (outcome, readout) = timed(|| engine.world().system().run_outcome(end, Vec::new(), &lags));
    // Heap readings stop here: the checks below allocate on the harness's
    // behalf (the digest renders the whole outcome as JSON).
    let peak_live_bytes = HEAP.peak();
    let allocs = HEAP.allocs() - allocs_before;
    let facts = Facts::read(
        job,
        nodes,
        engine.events_processed(),
        engine.world().system(),
        &outcome,
    );
    let traced = traced(engine.world());
    let (_, drop) = timed(move || {
        drop(outcome);
        drop(engine);
    });
    JobRun {
        spec: job,
        config,
        build,
        run,
        readout,
        drop,
        facts,
        peak_live_bytes,
        allocs_run,
        allocs,
        traced,
    }
}

/// The legs that time machinery no workload uses today (every workload is
/// sequential), recorded so its keep is decided on a number.
#[derive(Debug, Clone, Default)]
pub struct Legs {
    /// `(metric name, value)` for `runtime.wave.*` and `sim.pool.*`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Correctness failures (digests that should agree and do not).
    pub failures: Vec<String>,
}

/// `scale/1k` cut to 4 simulated seconds, run sequentially and then over two
/// shards: same input, outcome digests must agree.
pub fn wave_leg(quick: bool, seed: u64) -> Legs {
    let job = JobSpec {
        scenario: "scale/1k",
        seed,
    };
    let mut config = ScenarioRegistry::builtin().build(job.scenario, scale(quick), seed);
    config.duration = config.duration.min(SimDuration::from_secs(4));
    let end = SimTime::ZERO + config.duration;
    let lags = default_lag_grid();
    let digest_of = |engine: &Engine<SystemWorld>| {
        let outcome = engine.world().run_outcome(end, Vec::new(), &lags);
        digest(job, engine.world(), &outcome)
    };

    let mut sequential = build_engine(config.clone());
    let (_, sequential_run) = timed(|| sequential.run_until(end));
    let sequential_digest = digest_of(&sequential);
    drop(sequential);

    let mut sharded = build_engine(config);
    sharded.world_mut().set_shard_count(2);
    let (_, sharded_run) = timed(|| sharded.run_until_sharded(end));
    let (waves, events_in_waves, intra, cross) = sharded
        .world()
        .wave_stats()
        .expect("two shards were requested");
    let sharded_digest = digest_of(&sharded);

    let mut legs = Legs::default();
    if sharded_digest != sequential_digest {
        legs.failures.push(format!(
            "wave leg: sharded digest {sharded_digest} differs from sequential {sequential_digest}"
        ));
    }
    legs.metrics = vec![
        ("runtime.wave.waves", waves as f64),
        ("runtime.wave.events_in_waves", events_in_waves as f64),
        ("runtime.wave.staged_intra", intra as f64),
        ("runtime.wave.staged_cross", cross as f64),
        ("runtime.wave.run_s", sharded_run.secs()),
        (
            "runtime.wave.slowdown",
            sharded_run.secs() / sequential_run.secs(),
        ),
    ];
    legs
}

/// Four `smoke/small` runs through the worker pool against the same four in
/// a plain loop. This is the one place the env-reading helpers are used.
pub fn pool_leg(quick: bool, seed: u64) -> Legs {
    let configs: Vec<ScenarioConfig> = (0..4)
        .map(|j| ScenarioRegistry::builtin().build("smoke/small", scale(quick), seed + j))
        .collect();
    let sent = |outcomes: &[RunOutcome]| -> Vec<u64> {
        outcomes
            .iter()
            .map(|o| o.traffic.total_messages_sent)
            .collect()
    };
    let fleet = configs.clone();
    let (parallel, parallel_iv) = timed(|| run_scenarios_parallel(fleet));
    let (sequential, sequential_iv) =
        timed(|| configs.into_iter().map(run_scenario).collect::<Vec<_>>());
    let mut legs = Legs::default();
    if sent(&parallel) != sent(&sequential) {
        legs.failures
            .push("pool leg: fleet outcomes differ from sequential outcomes".to_string());
    }
    legs.metrics = vec![(
        "sim.pool.fleet_speedup",
        sequential_iv.secs() / parallel_iv.secs(),
    )];
    legs
}

/// Loops `op` for at least `min` of host time and returns nanoseconds per
/// call. The results feed a `black_box`ed accumulator so the calls survive.
fn ns_per_call(min: Duration, mut op: impl FnMut(u64) -> u64) -> f64 {
    const BATCH: u64 = 1_000;
    let mut acc = 0u64;
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        for i in calls..calls + BATCH {
            acc = acc.wrapping_add(op(black_box(i)));
        }
        calls += BATCH;
        let elapsed = start.elapsed();
        if elapsed >= min {
            black_box(acc);
            return elapsed.as_secs_f64() * 1e9 / calls as f64;
        }
    }
}

/// Direct timed loops over one public function per layer, on fixed inputs
/// derived from `seed` (the inputs `profile_scenario` and `benches/micro.rs`
/// use, where they have one). Each loops for at least `min`.
pub fn probes(min: Duration, seed: u64) -> Vec<(&'static str, f64)> {
    let (apply_blame, end_period_per_node) = probe_reputation(min);
    vec![
        ("sim.queue_ns_per_event", probe_queue(min, seed)),
        ("gossip.on_propose_ns", probe_on_propose(min)),
        ("lifting.on_confirm_ns", probe_on_confirm(min)),
        ("lifting.audit_history_ns", probe_audit(min, seed)),
        ("reputation.apply_blame_ns", apply_blame),
        ("reputation.end_period_ns_per_node", end_period_per_node),
        ("membership.sample_300_ns", probe_sample(min, seed, 300)),
        ("membership.sample_10k_ns", probe_sample(min, seed, 10_000)),
        ("net.send_ns", probe_send(min, seed)),
        ("analysis.blame_sample_ns", probe_blame_sample(min, seed)),
        ("analysis.entropy_ns", probe_entropy(min, seed)),
    ]
}

/// The engine's queue and dispatch alone, over a world whose handler only
/// reschedules. The payload is sized like the real `Event` (48 bytes) so
/// queue moves cost what they cost in production.
fn probe_queue(min: Duration, seed: u64) -> f64 {
    #[derive(Clone, Copy)]
    struct Fat(u64, #[allow(dead_code)] [u64; 5]);

    struct Reschedule {
        rng: rand::rngs::SmallRng,
    }

    impl World for Reschedule {
        type Event = Fat;
        fn handle_event(&mut self, _now: SimTime, ev: Fat, ctx: &mut Context<Fat>) {
            // Latency-like delays: most a few hundred ms, some 500 ms ticks.
            let delay = if ev.0.is_multiple_of(5) {
                SimDuration::from_millis(500)
            } else {
                SimDuration::from_micros(self.rng.gen_range(10_000..400_000))
            };
            ctx.schedule_after(delay, Fat(ev.0 + 1, ev.1));
        }
    }

    let mut engine = Engine::new(Reschedule {
        rng: derive_rng(seed, 9),
    });
    for i in 0..2_000u64 {
        engine.schedule(SimTime::from_micros(i * 37), Fat(i, [0; 5]));
    }
    let mut until = 5;
    engine.run_until(SimTime::from_secs(until)); // fill the wheel
    let mut events = 0u64;
    let start = Instant::now();
    loop {
        until += 10;
        events += engine.run_until(SimTime::from_secs(until)).events_processed;
        let elapsed = start.elapsed();
        if elapsed >= min {
            return elapsed.as_secs_f64() * 1e9 / events as f64;
        }
    }
}

fn probe_on_propose(min: Duration) -> f64 {
    let mut node = GossipNode::new(NodeId::new(1), GossipConfig::planetlab(), Behavior::Honest);
    // Five-chunk proposals cycling over a 1000-chunk window while time
    // advances 1 ms per call: reservations are live on some visits and
    // expired on others, so both branches run.
    let proposals: Vec<Vec<ChunkId>> = (0..200u64)
        .map(|p| (0..5).map(|k| ChunkId::primary(p * 5 + k)).collect())
        .collect();
    ns_per_call(min, |i| {
        let wanted = node.on_propose(
            NodeId::new(2 + (i % 7) as u32),
            &proposals[(i % 200) as usize],
            SimTime::from_millis(i),
        );
        wanted.len() as u64
    })
}

fn probe_on_confirm(min: Duration) -> f64 {
    let mut verifier = Verifier::new(
        NodeId::new(1),
        7,
        LiftingConfig::planetlab(),
        CollusionConfig::none(),
    );
    for p in 0..50u64 {
        verifier.begin_period(p);
        for s in 0..7u32 {
            verifier.on_propose_received(
                NodeId::new(10 + s),
                (0..5)
                    .map(|k| ChunkId::primary(p * 5 + k))
                    .collect::<Vec<_>>()
                    .into(),
                SimTime::from_millis(p),
            );
        }
    }
    let confirms: Vec<ConfirmPayload> = (0..245u64)
        .map(|i| ConfirmPayload {
            subject: NodeId::new(10 + (i % 7) as u32),
            chunks: vec![ChunkId::primary(i + 1)].into(),
            token: i,
        })
        .collect();
    ns_per_call(min, |i| {
        let answers = verifier.on_confirm(
            NodeId::new((i % 50) as u32 + 100),
            &confirms[(i % 245) as usize],
            SimTime::from_secs(25),
        );
        answers.len() as u64
    })
}

fn probe_audit(min: Duration, seed: u64) -> f64 {
    struct YesOracle;
    impl AuditOracle for YesOracle {
        fn confirm_proposal(&mut self, _w: NodeId, _s: NodeId, _c: &[ChunkId]) -> bool {
            true
        }
        fn confirm_askers(&mut self, w: NodeId, _s: NodeId) -> Vec<NodeId> {
            vec![NodeId::new(u32::from(w) % 97)]
        }
    }

    let mut rng = derive_rng(seed, 5);
    let mut history = NodeHistory::new(NodeId::new(0), 50);
    for p in 0..50u64 {
        let partners: Vec<NodeId> = (0..7)
            .map(|_| NodeId::new(rng.gen_range(1..10_000)))
            .collect();
        history.record_proposal_sent(
            p,
            &partners,
            &[ChunkId::primary(p), ChunkId::primary(p + 1)],
        );
    }
    let auditor = Auditor::with_threshold(LiftingConfig::planetlab(), 7, 7.5);
    ns_per_call(min, |_| {
        auditor.audit(&history, &mut YesOracle).blame.to_bits()
    })
}

/// `(apply_blame ns, end_period ns per managed node)` over a book of 25
/// managed nodes — what one PlanetLab manager holds (M = 25 of 300).
fn probe_reputation(min: Duration) -> (f64, f64) {
    const MANAGED: u64 = 25;
    let mut book = ManagerState::new();
    for i in 0..MANAGED {
        book.register(NodeId::new((i * 12) as u32));
    }
    let blame = ns_per_call(min, |i| {
        book.apply_blame(NodeId::new(((i % MANAGED) * 12) as u32), 1.0);
        1
    });
    let period = ns_per_call(min, |_| {
        book.end_period(0.5);
        1
    });
    black_box(book.normalized_score(NodeId::new(0)));
    (blame, period / MANAGED as f64)
}

fn probe_sample(min: Duration, seed: u64, population: usize) -> f64 {
    let directory = Directory::new(population);
    let mut rng = derive_rng(seed, 6);
    ns_per_call(min, |i| {
        let exclude = NodeId::new((i % population as u64) as u32);
        directory.sample_uniform(&mut rng, 7, exclude).len() as u64
    })
}

fn probe_send(min: Duration, seed: u64) -> f64 {
    let mut net = Network::new(100, NetworkConfig::planetlab(0.04), derive_rng(seed, 0));
    ns_per_call(min, |i| {
        let outcome = net.send(
            SimTime::from_micros(i),
            NodeId::new((i % 99) as u32),
            NodeId::new(((i + 1) % 99) as u32),
            64,
            TrafficCategory::Verification,
        );
        u64::from(outcome.is_delivered())
    })
}

fn probe_blame_sample(min: Duration, seed: u64) -> f64 {
    let model = BlameModel::new(ProtocolParams::simulation_defaults(), 1.0);
    let mut rng = derive_rng(seed, 3);
    ns_per_call(min, |_| {
        model
            .sample_period_blame(FreeridingDegree::uniform(0.1), &mut rng)
            .to_bits()
    })
}

fn probe_entropy(min: Duration, seed: u64) -> f64 {
    let mut rng = derive_rng(seed, 2);
    let history: Vec<u32> = (0..600).map(|_| rng.gen_range(0..10_000)).collect();
    ns_per_call(min, |_| shannon_entropy(history.iter().copied()).to_bits())
}

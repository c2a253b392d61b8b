//! Criterion micro-benchmarks of the building blocks: event queue, entropy
//! computation, blame-model sampling, verifier handling, history lookups and
//! audit of a full history.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lifting_analysis::{shannon_entropy, BlameModel, FreeridingDegree, ProtocolParams};
use lifting_core::{
    AuditOracle, Auditor, CollusionConfig, ConfirmPayload, LiftingConfig, NodeHistory, Verifier,
};
use lifting_gossip::ChunkId;
use lifting_sim::{derive_rng, Context, Engine, EventQueue, NodeId, SimDuration, SimTime, World};
use rand::rngs::SmallRng;
use rand::Rng;

/// The traffic mix of `crates/sim/tests/queue_footprint.rs` — deliveries
/// 1–200 ms out, 0.5 s ticks, 0.5 / 1.0 / 1.5 s timers, 4 s audit ticks —
/// padded so that a queued entry is the runtime's 56 bytes.
#[derive(Clone, Copy)]
enum MixKind {
    Tick,
    Deliver,
    Timer,
    Audit,
}

#[derive(Clone, Copy)]
struct MixEvent {
    kind: MixKind,
    _pad: [u64; 4],
}

fn mix(kind: MixKind) -> MixEvent {
    MixEvent { kind, _pad: [0; 4] }
}

struct MixedHorizon(SmallRng);

impl MixedHorizon {
    fn deliveries(&mut self, n: usize, ctx: &mut Context<MixEvent>) {
        for _ in 0..n {
            let latency = SimDuration::from_micros(self.0.gen_range(1_000..200_000));
            ctx.schedule_after(latency, mix(MixKind::Deliver));
        }
    }
}

impl World for MixedHorizon {
    type Event = MixEvent;

    fn handle_event(&mut self, _now: SimTime, event: MixEvent, ctx: &mut Context<MixEvent>) {
        match event.kind {
            MixKind::Tick => {
                ctx.schedule_after(SimDuration::from_millis(500), event);
                self.deliveries(3, ctx);
            }
            MixKind::Audit => {
                ctx.schedule_after(SimDuration::from_secs(4), event);
                self.deliveries(2, ctx);
            }
            MixKind::Deliver => {
                let draw = self.0.gen_range(0u32..6);
                self.deliveries((draw < 3) as usize, ctx);
                if draw % 3 == 0 {
                    let wait = SimDuration::from_millis(500 * self.0.gen_range(1u64..=3));
                    ctx.schedule_after(wait, mix(MixKind::Timer));
                }
            }
            MixKind::Timer => {}
        }
    }
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter_batched(
            || derive_rng(1, 0),
            |mut rng| {
                let mut q = EventQueue::new();
                for i in 0..10_000u64 {
                    q.push(SimTime::from_micros(rng.gen_range(0..1_000_000)), i);
                }
                while q.pop().is_some() {}
            },
            BatchSize::SmallInput,
        )
    });
    // One event through the engine (pop, handler, push) with
    // about 300 000 entries pending across the front, the ring and the far
    // list: the queue's steady state at `scale/10k`, far beyond cache.
    c.bench_function("event_queue_mixed_horizon_300k", |b| {
        let mut phases = derive_rng(1, 2);
        let mut engine = Engine::new(MixedHorizon(derive_rng(1, 3)));
        for _ in 0..38_000 {
            let phase = SimTime::from_micros(phases.gen_range(0..500_000));
            engine.schedule(phase, mix(MixKind::Tick));
            let phase = SimTime::from_micros(phases.gen_range(0..4_000_000));
            engine.schedule(phase, mix(MixKind::Audit));
        }
        engine.run_until(SimTime::from_secs(3));
        assert!((250_000..350_000).contains(&engine.pending_events()));
        b.iter(|| engine.run_to_completion(1))
    });
}

fn bench_quick_scenario(c: &mut Criterion) {
    use lifting_runtime::{run_scenario, run_scenarios_parallel, ScenarioConfig};
    let mut g = c.benchmark_group("scenario");
    g.sample_size(10);
    // One Quick-scale packet-level run: the engine's zero-allocation inner
    // loop end to end.
    g.bench_function("quick_scenario_30_nodes", |b| {
        b.iter(|| run_scenario(ScenarioConfig::small_test(30, 42)))
    });
    // The same work as a fleet of four, measuring the parallel runner's
    // scaling (equals ~4x the single run on one core, less on multi-core).
    g.bench_function("quick_scenario_fleet_of_4", |b| {
        b.iter(|| {
            run_scenarios_parallel(
                (0..4)
                    .map(|i| ScenarioConfig::small_test(30, 42 + i))
                    .collect(),
            )
        })
    });
    g.finish();
}

fn bench_entropy(c: &mut Criterion) {
    let mut rng = derive_rng(2, 0);
    let history: Vec<u32> = (0..600).map(|_| rng.gen_range(0..10_000)).collect();
    c.bench_function("shannon_entropy_600_entries", |b| {
        b.iter(|| shannon_entropy(history.iter().copied()))
    });
}

fn bench_blame_model(c: &mut Criterion) {
    let params = ProtocolParams::simulation_defaults();
    let model = BlameModel::new(params, 1.0);
    c.bench_function("blame_model_one_period", |b| {
        let mut rng = derive_rng(3, 0);
        b.iter(|| model.sample_period_blame(FreeridingDegree::uniform(0.1), &mut rng))
    });
    c.bench_function("blame_model_normalized_score_50_periods", |b| {
        let mut rng = derive_rng(4, 0);
        b.iter(|| model.sample_normalized_score(FreeridingDegree::HONEST, 50, &mut rng))
    });
}

fn bench_verifier_confirm(c: &mut Criterion) {
    c.bench_function("verifier_witness_answers_confirm", |b| {
        b.iter_batched(
            || {
                let mut v = Verifier::new(
                    NodeId::new(1),
                    7,
                    LiftingConfig::planetlab(),
                    CollusionConfig::none(),
                );
                for i in 0..200u64 {
                    v.on_propose_received(
                        NodeId::new((i % 50) as u32 + 2),
                        vec![ChunkId::primary(i), ChunkId::primary(i + 1)].into(),
                        SimTime::from_millis(i),
                    );
                }
                v
            },
            |mut v| {
                v.on_confirm(
                    NodeId::new(99),
                    &ConfirmPayload {
                        subject: NodeId::new(10),
                        chunks: vec![ChunkId::primary(8), ChunkId::primary(9)].into(),
                        token: 1,
                    },
                    SimTime::from_secs(1),
                )
            },
            BatchSize::SmallInput,
        )
    });
}

/// `NodeHistory::received_proposal_with` on a full 50-period window of 7
/// proposals a period, for the two proposer distributions that bound the
/// per-proposer chain walk: uniform over a PlanetLab-size population (1.17
/// live proposals per proposer) and the same 7 proposers every period (50
/// each — the shape a closed coalition produces, and the walk's worst case).
fn bench_received_lookup(c: &mut Criterion) {
    let mut rng = derive_rng(6, 0);
    let uniform: Vec<u32> = (0..350).map(|_| rng.gen_range(1..=300)).collect();
    let recurring: Vec<u32> = (0..350).map(|i| 1 + i % 7).collect();
    for (name, proposers) in [
        ("received_lookup_350_from_300_uniform", uniform),
        ("received_lookup_7_proposers_x_50_periods", recurring),
    ] {
        let mut history = NodeHistory::new(NodeId::new(0), 50);
        let mut lookups = Vec::new();
        for (i, proposer) in (0u64..).zip(proposers) {
            let chunks: Vec<ChunkId> = (0..5).map(|k| ChunkId::primary(i * 5 + k)).collect();
            lookups.push((NodeId::new(proposer), chunks[2]));
            history.record_proposal_received(i / 7, NodeId::new(proposer), chunks.into());
        }
        let mut next = 0;
        c.bench_function(name, |b| {
            b.iter(|| {
                let (proposer, chunk) = lookups[next % lookups.len()];
                next += 1;
                history.received_proposal_with(proposer, &[chunk])
            })
        });
    }
}

struct YesOracle;
impl AuditOracle for YesOracle {
    fn confirm_proposal(&mut self, _w: NodeId, _s: NodeId, _c: &[ChunkId]) -> bool {
        true
    }
    fn confirm_askers(&mut self, w: NodeId, _s: NodeId) -> Vec<NodeId> {
        vec![NodeId::new(u32::from(w) % 97)]
    }
}

fn bench_audit(c: &mut Criterion) {
    let mut rng = derive_rng(5, 0);
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
    c.bench_function("audit_full_history_50_periods", |b| {
        b.iter(|| auditor.audit(&history, &mut YesOracle))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_quick_scenario,
    bench_entropy,
    bench_blame_model,
    bench_verifier_confirm,
    bench_received_lookup,
    bench_audit
);
criterion_main!(benches);

//! The experiments themselves: one function per table/figure of the paper.

use lifting_analysis::entropy::calibrate_gamma;
use lifting_analysis::{
    calibrate_threshold, detection_rate, ecdf, false_positive_rate, max_entropy, shannon_entropy,
    uniform_selection_entropy, BlameModel, FreeridingDegree, GaussianMixture, Histogram,
    ProtocolParams, Summary,
};
use lifting_core::ConfirmRetryStats;
use lifting_runtime::{
    fig14_scenario_name, run_jobs_parallel, run_scenario, run_scenario_with_snapshots,
    run_scenarios_parallel, table03_scenario_name, table05_scenario_name, AuditRpcStats,
    ChurnStats, LayerTraffic, RunOutcome, ScenarioConfig, ScenarioRegistry, ScoreSnapshot,
    WaveRecovery, TABLE03_PDCCS, TABLE05_PDCCS, TABLE05_STREAM_KBPS,
};
use lifting_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Experiment scale (re-exported from the runtime's scenario registry).
pub use lifting_runtime::Scale;

/// The paper's expulsion threshold: η = −9.75, calibrated in Section 6.2 for
/// a false-positive budget β < 1 % on the PlanetLab deployment's honest-score
/// distribution. Experiments that sweep their own populations recalibrate η
/// from their measured honest scores ([`calibrate_threshold`]) and fall back
/// to this reference value only when the honest sample is empty; every
/// fallback increments [`paper_eta_fallback_count`], which
/// `run_all_experiments` surfaces in its summary so a silently
/// miscalibrated sweep cannot masquerade as a measured one.
pub const PAPER_ETA: f64 = -9.75;

static PAPER_ETA_FALLBACKS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many times a threshold calibration fell back to [`PAPER_ETA`] because
/// its honest sample was empty (process-wide, in job-completion order).
pub fn paper_eta_fallback_count() -> u64 {
    PAPER_ETA_FALLBACKS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Calibrates η for a `target_beta` false-positive budget over the measured
/// honest scores, falling back to [`PAPER_ETA`] (with a warning and a bump of
/// the fallback counter) when the sample is empty.
fn calibrated_eta(honest: &[f64], target_beta: f64) -> f64 {
    calibrate_threshold(honest, target_beta).unwrap_or_else(|| {
        PAPER_ETA_FALLBACKS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        eprintln!(
            "warning: empty honest sample, falling back to the paper's η = {PAPER_ETA} \
             (β is uncontrolled for this sweep)"
        );
        PAPER_ETA
    })
}

// ---------------------------------------------------------------------------
// Figure 1 — system efficiency in the presence of freeriders.
// ---------------------------------------------------------------------------

/// One stream-health curve of Figure 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthCurve {
    /// Curve label.
    pub label: String,
    /// Stream lags (seconds).
    pub lag_secs: Vec<f64>,
    /// Fraction of nodes viewing a clear stream at each lag.
    pub fraction_clear: Vec<f64>,
    /// Nodes expelled during the run.
    pub expelled: usize,
}

/// Figure 1: fraction of nodes viewing a clear stream vs. stream lag, for a
/// baseline run, 25 % freeriders without LiFTinG, and 25 % freeriders with
/// LiFTinG expelling them.
pub fn fig01_stream_health(scale: Scale, seed: u64) -> Vec<HealthCurve> {
    let registry = ScenarioRegistry::builtin();
    let (labels, configs): (Vec<String>, Vec<ScenarioConfig>) = [
        ("no freeriders", "fig01/no-freeriders"),
        ("25% freeriders", "fig01/freeriders-no-lifting"),
        ("25% freeriders (LiFTinG)", "fig01/freeriders-lifting"),
    ]
    .into_iter()
    .map(|(label, scenario)| (label.to_string(), registry.build(scenario, scale, seed)))
    .unzip();
    // The three cases are independent full-system runs; fan them out on the
    // scenario fleet (each carries its own seed, so results are identical to
    // running them one by one).
    let outcomes = run_scenarios_parallel(configs);
    labels
        .into_iter()
        .zip(outcomes)
        .map(|(label, outcome)| HealthCurve {
            label,
            lag_secs: outcome.stream_health.lag_secs.clone(),
            fraction_clear: outcome.stream_health.fraction_clear.clone(),
            expelled: outcome.expelled_count,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 10 — impact of message losses after compensation.
// ---------------------------------------------------------------------------

/// Result of the Figure 10 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WrongfulBlameResult {
    /// Expected wrongful blame per period from Equation 5 (the compensation).
    pub expected_compensation: f64,
    /// Mean of the compensated scores.
    pub mean_score: f64,
    /// Standard deviation of the compensated scores.
    pub std_dev: f64,
    /// Histogram bin centers.
    pub bin_centers: Vec<f64>,
    /// Fraction of nodes per bin (the pdf of Figure 10).
    pub fractions: Vec<f64>,
}

/// Figure 10: distribution of compensated scores of 10,000 honest nodes after
/// one gossip period with `pl = 7 %`, `f = 12`, `|R| = 4`, `pdcc = 1`.
pub fn fig10_wrongful_blames(scale: Scale, seed: u64) -> WrongfulBlameResult {
    let nodes = scale.pick(10_000, 2_000);
    let params = ProtocolParams::simulation_defaults();
    let model = BlameModel::new(params, 1.0);
    let scores = model
        .population_scores(nodes, 0, FreeridingDegree::HONEST, 1, seed)
        .honest;
    let summary = Summary::of(&scores);
    let mut hist = Histogram::new(-250.0, 50.0, 60);
    hist.extend(scores.iter().copied());
    WrongfulBlameResult {
        expected_compensation: params.expected_wrongful_blame(),
        mean_score: summary.mean,
        std_dev: summary.std_dev,
        bin_centers: hist.centers(),
        fractions: hist.fractions(),
    }
}

// ---------------------------------------------------------------------------
// Figure 11 — score distributions with 10 % freeriders, Δ = (0.1, 0.1, 0.1).
// ---------------------------------------------------------------------------

/// Gossip periods a Monte-Carlo score population is observed for before it
/// is judged (Figures 11 and 12: `r = 50`).
pub const SCORE_PERIODS: usize = 50;

/// Figure 11's freeriders deviate by `δ1 = δ2 = δ3 = 0.1`.
pub const FIG11_DELTA: f64 = 0.1;

/// Result of the Figure 11 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreDistributionResult {
    /// Grid of score values for the cdf (x-axis of Figure 11b).
    pub grid: Vec<f64>,
    /// CDF of honest scores over the grid.
    pub honest_cdf: Vec<f64>,
    /// CDF of freerider scores over the grid.
    pub freerider_cdf: Vec<f64>,
    /// Summary of honest scores.
    pub honest: Summary,
    /// Summary of freerider scores.
    pub freeriders: Summary,
    /// Detection probability at η = −9.75.
    pub detection: f64,
    /// False-positive probability at η = −9.75.
    pub false_positives: f64,
    /// Decision boundary suggested by a two-component Gaussian mixture fit
    /// (the likelihood-maximization alternative the paper mentions).
    pub mixture_boundary: Option<f64>,
}

/// Figure 11: normalized score distributions of 9,000 honest nodes and 1,000
/// freeriders of degree `Δ = (0.1, 0.1, 0.1)` after `r = 50` gossip periods.
pub fn fig11_score_distributions(scale: Scale, seed: u64) -> ScoreDistributionResult {
    let honest_n = scale.pick(9_000, 1_800);
    let freerider_n = scale.pick(1_000, 200);
    let params = ProtocolParams::simulation_defaults();
    let model = BlameModel::new(params, 1.0);
    let samples = model.population_scores(
        honest_n,
        freerider_n,
        FreeridingDegree::uniform(FIG11_DELTA),
        SCORE_PERIODS,
        seed,
    );
    let grid: Vec<f64> = (-50..=10).map(|x| x as f64).collect();
    let eta = PAPER_ETA;
    let mixture = GaussianMixture::fit(&samples.all(), 200);
    ScoreDistributionResult {
        honest_cdf: ecdf(&samples.honest, &grid),
        freerider_cdf: ecdf(&samples.freeriders, &grid),
        honest: Summary::of(&samples.honest),
        freeriders: Summary::of(&samples.freeriders),
        detection: detection_rate(&samples.freeriders, eta),
        false_positives: false_positive_rate(&samples.honest, eta),
        mixture_boundary: mixture.map(|m| m.decision_boundary()),
        grid,
    }
}

// ---------------------------------------------------------------------------
// Figure 12 — detection probability and gain vs. degree of freeriding.
// ---------------------------------------------------------------------------

/// The Figure 12 sweep: the calibrated threshold and one point per δ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionSweep {
    /// The threshold η, calibrated for β ≤ 1 % on the honest population.
    pub eta: f64,
    /// One point per δ = 0, 0.01, …, 0.20.
    pub points: Vec<DetectionPoint>,
}

/// One row of the Figure 12 sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DetectionPoint {
    /// Degree of freeriding δ (δ1 = δ2 = δ3 = δ).
    pub delta: f64,
    /// Upload-bandwidth gain of the freerider.
    pub gain: f64,
    /// Detection probability measured by Monte-Carlo simulation.
    pub detection: f64,
    /// False-positive probability at the same threshold.
    pub false_positives: f64,
}

/// Figure 12: detection probability α and bandwidth gain as functions of the
/// degree of freeriding δ, with the threshold η calibrated for β < 1 %.
pub fn fig12_detection_vs_delta(scale: Scale, seed: u64) -> DetectionSweep {
    let honest_n = scale.pick(5_000, 1_000);
    let freerider_n = scale.pick(2_000, 400);
    let periods = SCORE_PERIODS;
    let params = ProtocolParams::simulation_defaults();
    let model = BlameModel::new(params, 1.0);
    let honest = model
        .population_scores(honest_n, 0, FreeridingDegree::HONEST, periods, seed)
        .honest;
    let eta = calibrated_eta(&honest, 0.01);
    // Each δ of the sweep is an independent Monte-Carlo population with its
    // own derived seed; fan the 21 points out across the worker pool.
    let points = run_jobs_parallel(21, |i| {
        let delta = i as f64 * 0.01;
        let degree = FreeridingDegree::uniform(delta);
        let scores = model
            .population_scores(0, freerider_n, degree, periods, seed ^ (i as u64 + 1))
            .freeriders;
        DetectionPoint {
            delta,
            gain: degree.gain(),
            detection: detection_rate(&scores, eta),
            false_positives: false_positive_rate(&honest, eta),
        }
    });
    DetectionSweep { eta, points }
}

// ---------------------------------------------------------------------------
// Figure 13 — entropy of honest histories, and Equation 7.
// ---------------------------------------------------------------------------

/// Result of the Figure 13 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EntropyResult {
    /// Entropy samples of the fanout multiset (nh·f = 600 entries).
    pub fanout: Summary,
    /// Entropy samples of the fanin multiset.
    pub fanin: Summary,
    /// The maximum reachable entropy log2(nh·f).
    pub max_entropy: f64,
    /// The threshold γ calibrated from the samples.
    pub calibrated_gamma: f64,
    /// Entropy of a maximally biased colluder's history (for reference).
    pub biased_entropy_example: f64,
}

/// Entries of an audited history, `nh·f = 50 · 12` (Figure 13, Equation 7).
pub const HISTORY_ENTRIES: usize = 600;

/// Figure 13: entropy distribution of honest fanout/fanin histories in a
/// 10,000-node system with `nh·f` = [`HISTORY_ENTRIES`], and the threshold γ
/// calibrated from it.
pub fn fig13_history_entropy(scale: Scale, seed: u64) -> EntropyResult {
    let samples = scale.pick(2_000, 300);
    let population = 10_000;
    let entries = HISTORY_ENTRIES;
    let fanout = uniform_selection_entropy(entries, population, samples, seed);
    // The fanin multiset has the same law but a Poisson-distributed size with
    // mean nh·f; sampling with ±10 % jitter reproduces the wider spread of
    // Figure 13b.
    let fanin: Vec<f64> = (0..samples)
        .flat_map(|i| {
            let size = entries - 60 + (i * 120 / samples.max(1));
            uniform_selection_entropy(size, population, 1, seed ^ (i as u64 + 77))
        })
        .collect();
    let gamma = calibrate_gamma(entries, population, samples.min(500), 0.15, seed);
    // A colluder biasing 60 % of its pushes towards a 25-node coalition.
    let biased: Vec<u32> = (0..entries)
        .map(|i| {
            if i % 5 < 3 {
                (i % 25) as u32
            } else {
                1_000 + i as u32
            }
        })
        .collect();
    EntropyResult {
        fanout: Summary::of(&fanout),
        fanin: Summary::of(&fanin),
        max_entropy: max_entropy(entries),
        calibrated_gamma: gamma,
        biased_entropy_example: shannon_entropy(biased),
    }
}

// ---------------------------------------------------------------------------
// Figure 14 — PlanetLab score CDFs at 25 / 30 / 35 s, pdcc = 1 and 0.5.
// ---------------------------------------------------------------------------

/// Result of the Figure 14 experiment for one value of pdcc.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanetlabScoresResult {
    /// The cross-checking probability used.
    pub pdcc: f64,
    /// One entry per snapshot (25, 30, 35 s): detection and false positives
    /// at η = −9.75 plus score summaries.
    pub snapshots: Vec<PlanetlabSnapshot>,
    /// Overall LiFTinG traffic overhead during the run.
    pub overhead: f64,
}

/// Detection metrics at one snapshot instant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanetlabSnapshot {
    /// Snapshot time in seconds.
    pub at_secs: f64,
    /// Detection probability (score < η or expelled).
    pub detection: f64,
    /// False-positive probability.
    pub false_positives: f64,
    /// Summary of honest scores.
    pub honest: Summary,
    /// Summary of freerider scores.
    pub freeriders: Summary,
}

fn snapshot_metrics(snap: &ScoreSnapshot, eta: f64) -> PlanetlabSnapshot {
    PlanetlabSnapshot {
        at_secs: snap.at.as_secs_f64(),
        detection: snap.detection_rate(eta),
        false_positives: snap.false_positive_rate(eta),
        honest: Summary::of(&snap.honest_scores()),
        freeriders: Summary::of(&snap.freerider_scores()),
    }
}

/// Figure 14: the PlanetLab deployment (300 nodes, 674 kbps, 10 % freeriders
/// with Δ = (1/7, 0.1, 0.1)) observed at 25, 30 and 35 seconds, for the given
/// cross-checking probability.
pub fn fig14_planetlab_scores(scale: Scale, pdcc: f64, seed: u64) -> PlanetlabScoresResult {
    let config = ScenarioRegistry::builtin().build(&fig14_scenario_name(pdcc), scale, seed);
    let snaps = [
        SimDuration::from_secs(25),
        SimDuration::from_secs(30),
        SimDuration::from_secs(35),
    ];
    let outcome = run_scenario_with_snapshots(config, &snaps);
    let eta = PAPER_ETA;
    PlanetlabScoresResult {
        pdcc,
        snapshots: outcome
            .snapshots
            .iter()
            .map(|s| snapshot_metrics(s, eta))
            .collect(),
        overhead: outcome.traffic.overhead_ratio,
    }
}

// ---------------------------------------------------------------------------
// Table 3 — message overhead of the verifications.
// ---------------------------------------------------------------------------

/// One row of Table 3: message counts per gossip period for one pdcc.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerificationOverheadRow {
    /// Cross-checking probability.
    pub pdcc: f64,
    /// Analytical bound on verification + blame messages per node per period.
    pub analytical_bound: f64,
    /// Messages sent per period by the gossip protocol itself, `f(2 + |R|)`.
    pub gossip_messages: f64,
    /// Measured verification + blame messages per node per period.
    pub measured_per_node_period: f64,
}

/// Table 3: analytical bounds (Section 6.1) and measured per-node, per-period
/// verification message counts for several values of pdcc.
pub fn table03_verification_overhead(scale: Scale, seed: u64) -> Vec<VerificationOverheadRow> {
    let params = ProtocolParams::planetlab_defaults();
    let pdccs = TABLE03_PDCCS;
    let registry = ScenarioRegistry::builtin();
    let configs: Vec<ScenarioConfig> = pdccs
        .iter()
        .map(|&pdcc| registry.build(&table03_scenario_name(pdcc), scale, seed))
        .collect();
    // Normalize by the population/duration of the scenarios actually run, so
    // the registry stays the single source of truth.
    let nodes = configs[0].nodes;
    let duration = configs[0].duration;
    let outcomes = run_scenarios_parallel(configs);
    pdccs
        .into_iter()
        .zip(outcomes)
        .map(|(pdcc, outcome)| {
            let verification_msgs: u64 = outcome
                .traffic
                .per_category
                .iter()
                .filter(|(c, _)| c.is_lifting_overhead())
                .map(|(_, v)| v.messages_sent)
                .sum();
            let periods = duration.as_secs_f64() / 0.5;
            VerificationOverheadRow {
                pdcc,
                analytical_bound: params.verification_message_bound(pdcc, 25),
                gossip_messages: params.gossip_message_count(),
                measured_per_node_period: verification_msgs as f64 / (nodes as f64 * periods),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 5 — practical bandwidth overhead.
// ---------------------------------------------------------------------------

/// One cell of Table 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PracticalOverheadCell {
    /// Stream rate (kbps).
    pub stream_kbps: u64,
    /// Cross-checking probability.
    pub pdcc: f64,
    /// Measured LiFTinG overhead (verification + blame + audit bytes divided
    /// by gossip bytes).
    pub overhead: f64,
}

/// Table 5: cross-checking and blaming overhead for stream rates of 674, 1082
/// and 2036 kbps and pdcc ∈ {0, 0.5, 1}.
pub fn table05_practical_overhead(scale: Scale, seed: u64) -> Vec<PracticalOverheadCell> {
    let mut grid = Vec::new();
    for stream_kbps in TABLE05_STREAM_KBPS {
        for pdcc in TABLE05_PDCCS {
            grid.push((stream_kbps, pdcc));
        }
    }
    let registry = ScenarioRegistry::builtin();
    let configs: Vec<ScenarioConfig> = grid
        .iter()
        .map(|&(stream_kbps, pdcc)| {
            registry.build(&table05_scenario_name(stream_kbps, pdcc), scale, seed)
        })
        .collect();
    let outcomes = run_scenarios_parallel(configs);
    grid.into_iter()
        .zip(outcomes)
        .map(|((stream_kbps, pdcc), outcome)| PracticalOverheadCell {
            stream_kbps,
            pdcc,
            overhead: outcome.traffic.overhead_ratio,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Per-layer overhead breakdown and the adversary showcases.
// ---------------------------------------------------------------------------

/// Per-layer traffic of one full-system run (Table 3's overhead breakdown at
/// system scale: gossip vs verification vs audit vs reputation bytes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerTrafficResult {
    /// The registered scenario that was run.
    pub scenario: String,
    /// Per-layer message/byte counters.
    pub per_layer: Vec<LayerTraffic>,
    /// Overall LiFTinG overhead ratio (Table 5's headline number).
    pub overhead: f64,
}

/// Runs the headline PlanetLab scenario and reports its traffic split by
/// protocol-stack layer.
pub fn layer_traffic_breakdown(scale: Scale, seed: u64) -> LayerTrafficResult {
    let scenario = "headline/planetlab";
    let outcome = run_scenario(ScenarioRegistry::builtin().build(scenario, scale, seed));
    LayerTrafficResult {
        scenario: scenario.to_string(),
        per_layer: outcome.layer_traffic.clone(),
        overhead: outcome.traffic.overhead_ratio,
    }
}

// ---------------------------------------------------------------------------
// Scenario families: one readout per run, one sweep per registry family.
// ---------------------------------------------------------------------------

/// The members of the scale family that [`scale_sweep`] skips: the 100k
/// population alone would dominate the paper-scale suite's wall clock
/// (`run_scenario scale/100k` runs it).
const SCALE_SWEEP_SKIPS: [&str; 1] = ["scale/100k"];

/// Per-channel readout of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamRow {
    /// The stream index.
    pub stream: u16,
    /// Subscribers of this stream (excluding the source).
    pub subscribers: usize,
    /// Chunks the stream's source emitted.
    pub emitted_chunks: usize,
    /// Fraction of its subscribers viewing a clear stream at the largest lag.
    pub final_clear_fraction: f64,
    /// Blames emitted by this stream's verification plane.
    pub blames: u64,
    /// Blame value this channel booked against the misbehaving population.
    pub freerider_blame_value: f64,
}

/// What every scenario family reports about one run — one shape, so a
/// scenario added to the registry is swept and reported with no harness edit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilyRow {
    /// The registered scenario that was run.
    pub scenario: String,
    /// Population size of the run (the source included).
    pub nodes: usize,
    /// Number of concurrent channels.
    pub streams: usize,
    /// Simulated duration in seconds.
    pub duration_secs: f64,
    /// The threshold `detection`, `false_positives` and `precision` are read
    /// at (chosen by [`family_sweep`] or [`scale_sweep`]).
    pub eta: f64,
    /// Detection probability at `eta` (score below it, or expelled).
    pub detection: f64,
    /// False-positive probability at `eta`.
    pub false_positives: f64,
    /// Detection probability at the paper's static η = −9.75.
    pub detection_paper_eta: f64,
    /// Of the nodes flagged at `eta`, the fraction that really freerides.
    pub precision: f64,
    /// Nodes expelled during the run (an expulsion bans from every channel).
    pub expelled: usize,
    /// Mean score of the honest population (one cross-stream score each).
    pub honest_mean: f64,
    /// Mean score of the misbehaving population.
    pub freerider_mean: f64,
    /// Fraction of nodes viewing a clear stream at the largest lag.
    pub final_clear_fraction: f64,
    /// Precision over the recovery trace's final period (1 without a trace).
    pub final_precision: f64,
    /// Recall over the recovery trace's final period (0 without a trace).
    pub final_recall: f64,
    /// Reconvergence after each partition wave or whitewash burst, in order.
    pub waves: Vec<WaveRecovery>,
    /// Estimated protocol-state heap bytes per node at the end of the run
    /// (deterministic capacity walk; identical across worker/shard counts).
    pub memory_per_node_bytes: f64,
    /// Per-channel readouts.
    pub per_stream: Vec<StreamRow>,
    /// Membership dynamics: sessions, departures, rejoins, aborted audits.
    pub churn: ChurnStats,
    /// Hardened-confirm counters: timeouts, re-sends, aborts.
    pub confirm_retry: ConfirmRetryStats,
    /// Hardened audit-RPC counters: timeouts, retries, unreachable aborts.
    pub audit_rpc: AuditRpcStats,
}

impl FamilyRow {
    /// Projects `outcome` onto the reported numbers, detection read at `eta`.
    pub fn read(scenario: &str, outcome: &RunOutcome, eta: f64) -> FamilyRow {
        let honest = outcome.finals.honest_scores();
        let freeriders = outcome.finals.freerider_scores();
        let detection = outcome.detection_rate(eta);
        let false_positives = outcome.false_positive_rate(eta);
        // Precision from the two rates and the population split: of the
        // nodes flagged at η, how many actually freeride.
        let flagged_bad = detection * freeriders.len() as f64;
        let flagged_good = false_positives * honest.len() as f64;
        let precision = if flagged_bad + flagged_good > 0.0 {
            flagged_bad / (flagged_bad + flagged_good)
        } else {
            1.0
        };
        let recovery = outcome.recovery.as_ref();
        FamilyRow {
            scenario: scenario.to_string(),
            nodes: outcome.finals.outcomes.len() + 1,
            streams: outcome.per_stream.len(),
            duration_secs: outcome.duration.as_secs_f64(),
            eta,
            detection,
            false_positives,
            detection_paper_eta: outcome.detection_rate(PAPER_ETA),
            precision,
            expelled: outcome.expelled_count,
            honest_mean: Summary::of(&honest).mean,
            freerider_mean: Summary::of(&freeriders).mean,
            final_clear_fraction: outcome.stream_health.final_clear(),
            final_precision: recovery
                .and_then(|r| r.period_precision.last().copied())
                .unwrap_or(1.0),
            final_recall: recovery
                .and_then(|r| r.period_recall.last().copied())
                .unwrap_or(0.0),
            waves: recovery.map(|r| r.waves.clone()).unwrap_or_default(),
            memory_per_node_bytes: outcome.memory_per_node_bytes,
            per_stream: outcome
                .per_stream
                .iter()
                .map(|s| StreamRow {
                    stream: s.stream.0,
                    subscribers: s.subscribers,
                    emitted_chunks: s.emitted_chunks,
                    final_clear_fraction: s.stream_health.final_clear(),
                    blames: s.blames,
                    freerider_blame_value: s.freerider_blame_value,
                })
                .collect(),
            churn: outcome.churn,
            confirm_retry: outcome.confirm_retry,
            audit_rpc: outcome.audit_rpc,
        }
    }
}

/// The registered members of `family`, in registry order.
fn family_members(family: &str) -> Vec<&'static str> {
    ScenarioRegistry::builtin()
        .families()
        .into_iter()
        .find(|(name, _)| *name == family)
        .unwrap_or_else(|| panic!("no scenario family {family:?} in the registry"))
        .1
}

/// Runs every registered scenario of `family`, fanned out on the scenario
/// fleet, and reads each run at its own effective threshold: the last η of
/// its recovery trace (online recalibration may have moved it), else the
/// paper's static η.
pub fn family_sweep(family: &str, scale: Scale, seed: u64) -> Vec<FamilyRow> {
    let registry = ScenarioRegistry::builtin();
    let members = family_members(family);
    let configs: Vec<ScenarioConfig> = members
        .iter()
        .map(|name| registry.build(name, scale, seed))
        .collect();
    members
        .iter()
        .zip(run_scenarios_parallel(configs))
        .map(|(name, outcome)| {
            let eta = outcome
                .recovery
                .as_ref()
                .and_then(|r| r.eta_trace.last().copied())
                .unwrap_or(PAPER_ETA);
            FamilyRow::read(name, &outcome, eta)
        })
        .collect()
}

/// Runs the `scale/*` family — the Figure 14 deployment pushed to 1k and
/// 10k nodes, without `scale/100k` — and reads each population
/// at a threshold calibrated from its own honest scores (β = 1 %, the
/// paper's η only on an empty sample). The runs are deliberately sequential,
/// smallest first: stacking the large populations on concurrent jobs would
/// make the peak footprint depend on the worker count.
pub fn scale_sweep(scale: Scale, seed: u64) -> Vec<FamilyRow> {
    let registry = ScenarioRegistry::builtin();
    family_members("scale")
        .into_iter()
        .filter(|name| !SCALE_SWEEP_SKIPS.contains(name))
        .map(|name| {
            let outcome = run_scenario(registry.build(name, scale, seed));
            let eta = calibrated_eta(&outcome.finals.honest_scores(), 0.01);
            FamilyRow::read(name, &outcome, eta)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_experiments_run_end_to_end() {
        let fig10 = fig10_wrongful_blames(Scale::Quick, 1);
        assert!(fig10.mean_score.abs() < 3.0);
        assert!((fig10.expected_compensation - 72.95).abs() < 0.05);

        let fig11 = fig11_score_distributions(Scale::Quick, 2);
        assert!(fig11.detection > fig11.false_positives);

        let fig12 = fig12_detection_vs_delta(Scale::Quick, 3);
        assert!(fig12.eta < 0.0);
        assert!(fig12.points.last().unwrap().detection > 0.9);

        let fig13 = fig13_history_entropy(Scale::Quick, 4);
        assert!(fig13.fanout.mean > 9.0);
        assert!(fig13.biased_entropy_example < fig13.calibrated_gamma);
    }

    fn row<'a>(rows: &'a [FamilyRow], name: &str) -> &'a FamilyRow {
        rows.iter()
            .find(|r| r.scenario == name)
            .unwrap_or_else(|| panic!("missing row {name}"))
    }

    fn names(rows: &[FamilyRow]) -> Vec<&str> {
        rows.iter().map(|r| r.scenario.as_str()).collect()
    }

    /// Sweeps `family` at quick scale: one row per registered member, in
    /// registry order, and dissemination survives every one of them.
    fn quick_sweep(family: &str) -> Vec<FamilyRow> {
        let rows = family_sweep(family, Scale::Quick, 9);
        assert_eq!(names(&rows), family_members(family));
        assert_streams_alive(&rows);
        rows
    }

    /// The primary stream and every channel of every row still reach their
    /// audience at the largest lag.
    fn assert_streams_alive(rows: &[FamilyRow]) {
        for r in rows {
            let channels = r.per_stream.iter().map(|s| s.final_clear_fraction);
            for clear in std::iter::once(r.final_clear_fraction).chain(channels) {
                assert!(clear > 0.2, "{}: stream collapsed ({clear})", r.scenario);
            }
        }
    }

    #[test]
    fn family_row_reads_the_outcome_field_by_field() {
        let config = ScenarioRegistry::builtin().build("smoke/small", Scale::Quick, 9);
        let outcome = run_scenario(config);
        let honest = outcome.finals.honest_scores();
        let freeriders = outcome.finals.freerider_scores();
        // Two thresholds that split the populations differently from each
        // other and from the paper's η (which flags nobody in this run).
        for eta in [-1.0, 0.5] {
            let r = FamilyRow::read("smoke/small", &outcome, eta);
            assert_eq!((r.scenario.as_str(), r.eta), ("smoke/small", eta));
            assert_eq!(r.nodes, outcome.finals.outcomes.len() + 1);
            assert_eq!(r.duration_secs, outcome.duration.as_secs_f64());
            assert_eq!(r.detection, outcome.detection_rate(eta));
            assert_eq!(r.false_positives, outcome.false_positive_rate(eta));
            assert_eq!(r.detection_paper_eta, outcome.detection_rate(PAPER_ETA));
            assert_ne!(r.detection, r.detection_paper_eta);
            let flagged_bad = r.detection * freeriders.len() as f64;
            let flagged_good = r.false_positives * honest.len() as f64;
            assert_eq!(r.precision, flagged_bad / (flagged_bad + flagged_good));
            assert_eq!(r.expelled, outcome.expelled_count);
            assert_eq!(r.honest_mean, Summary::of(&honest).mean);
            assert_eq!(r.freerider_mean, Summary::of(&freeriders).mean);
            assert_eq!(r.final_clear_fraction, outcome.stream_health.final_clear());
            assert_eq!(r.memory_per_node_bytes, outcome.memory_per_node_bytes);
            assert_eq!(r.churn, outcome.churn);
            assert_eq!(r.confirm_retry, outcome.confirm_retry);
            assert_eq!(r.audit_rpc, outcome.audit_rpc);
            assert_eq!(r.streams, outcome.per_stream.len());
            assert_eq!(r.per_stream.len(), r.streams);
            for (s, o) in r.per_stream.iter().zip(&outcome.per_stream) {
                assert_eq!(s.stream, o.stream.0);
                assert_eq!(s.final_clear_fraction, o.stream_health.final_clear());
            }
            // No recovery plane in this scenario: the documented defaults.
            assert!(outcome.recovery.is_none() && r.waves.is_empty());
            assert_eq!((r.final_precision, r.final_recall), (1.0, 0.0));
        }
    }

    #[test]
    fn quick_scale_churn_sweep_exercises_every_dynamic() {
        let rows = quick_sweep("churn");
        // Steady churn cycles sessions both ways.
        let steady = row(&rows, "churn/steady-fast").churn;
        assert!(steady.departures > 0 && steady.rejoins > 0);
        assert_eq!(steady.sessions, steady.rejoins + 79, "80-node quick run");
        // The catastrophe is permanent; the flash crowd joins exactly once.
        let cat = row(&rows, "churn/catastrophe").churn;
        assert!(cat.departures > 0);
        assert_eq!(cat.rejoins, 0);
        let flash = row(&rows, "churn/flash-crowd").churn;
        assert!(flash.rejoins > 0);
        assert_eq!(flash.departures, 0);
        assert_eq!(flash.offline_at_end, 0);
    }

    #[test]
    fn quick_scale_multistream_sweep_reports_every_channel() {
        let rows = quick_sweep("multistream");
        let disjoint = row(&rows, "multistream/disjoint-audiences");
        assert_eq!(disjoint.streams, 2);
        // Disjoint halves: each channel serves about half the population.
        let subs: Vec<usize> = disjoint.per_stream.iter().map(|s| s.subscribers).collect();
        assert_eq!(subs.iter().sum::<usize>(), 79, "80-node quick run");
        // Every channel of every scenario actually emitted and disseminated.
        for r in &rows {
            assert_eq!(r.per_stream.len(), r.streams);
            for s in &r.per_stream {
                assert!(
                    s.emitted_chunks > 0,
                    "{}: {} never emitted",
                    r.scenario,
                    s.stream
                );
            }
        }
        // The selective freeriders' silence on channel 1 shows up in that
        // channel's blame volume and drags their one cross-stream score
        // below the honest population's (the uncompensated expulsion
        // demonstration lives in runtime/tests/multistream_invariants.rs).
        let selective = row(&rows, "multistream/selective-freeriders");
        // Channel 0's share is pure wrongful noise (the freeriders are honest
        // there); the silence on channel 1 adds real misbehaviour on top, so
        // its blame value must dominate even though channel 0 streams faster.
        assert!(
            selective.per_stream[1].freerider_blame_value
                > selective.per_stream[0].freerider_blame_value,
            "the silenced channel should dominate the freeriders' blame \
             ({} vs {})",
            selective.per_stream[1].freerider_blame_value,
            selective.per_stream[0].freerider_blame_value
        );
        assert!(
            selective.freerider_mean < selective.honest_mean,
            "selective freeriders should score below honest nodes ({} vs {})",
            selective.freerider_mean,
            selective.honest_mean
        );
        assert_eq!(
            selective.false_positives, 0.0,
            "compensation must keep honest nodes clear of the threshold"
        );
    }

    #[test]
    fn quick_scale_workload_sweep_drives_every_trace() {
        let rows = quick_sweep("workload");
        // The diurnal cycle swings participation both ways.
        let diurnal = row(&rows, "workload/diurnal").churn;
        assert!(diurnal.departures > 0 && diurnal.rejoins > 0);
        // Regional outages knock regions down and bring them back.
        let regional = row(&rows, "workload/regional-failure").churn;
        assert!(regional.departures > 0 && regional.rejoins > 0);
        // Zapping is pure channel switching: membership stays put, and all
        // three channels stay alive under the shifting audiences.
        let zap = row(&rows, "workload/zap");
        assert_eq!(zap.churn.departures, 0);
        assert_eq!(zap.streams, 3);
    }

    #[test]
    fn scale_sweep_standard_tier_skips_the_heavy_tail() {
        let rows = scale_sweep(Scale::Quick, 9);
        let mut swept = family_members("scale");
        assert_eq!(rows.len(), swept.len() - SCALE_SWEEP_SKIPS.len());
        swept.retain(|name| !SCALE_SWEEP_SKIPS.contains(name));
        assert_eq!(names(&rows), swept);
    }

    #[test]
    fn quick_scale_scale_sweep_reports_detection_and_memory() {
        let mut rows = scale_sweep(Scale::Quick, 9);
        // The skipped populations run on their own; their readout holds to
        // the same checks.
        for name in SCALE_SWEEP_SKIPS {
            let outcome = run_scenario(ScenarioRegistry::builtin().build(name, Scale::Quick, 9));
            let eta = calibrated_eta(&outcome.finals.honest_scores(), 0.01);
            rows.push(FamilyRow::read(name, &outcome, eta));
        }
        assert_eq!(names(&rows), family_members("scale"));
        // Populations ascend; every run reports a positive memory bill and a
        // live stream, and the η calibration keeps false positives near its
        // 1 % target. (Detection itself is a *finding* of the sweep — the
        // paper-scale calibration does not transfer to 10k+ populations — so
        // the test pins the readout's integrity, not a detection floor.)
        for pair in rows.windows(2) {
            assert!(pair[0].nodes < pair[1].nodes);
        }
        assert_streams_alive(&rows);
        for r in &rows {
            assert!(
                r.memory_per_node_bytes > 0.0,
                "{}: no memory bill",
                r.scenario
            );
            assert!(
                r.false_positives <= 0.05,
                "{}: false positives {} far above the 1% calibration target",
                r.scenario,
                r.false_positives
            );
            assert!((0.0..=1.0).contains(&r.detection), "{}", r.scenario);
            assert!((0.0..=1.0).contains(&r.precision), "{}", r.scenario);
        }
    }

    #[test]
    fn quick_scale_resilience_sweep_reports_recovery_metrics() {
        let rows = quick_sweep("resilience");
        // The online recalibration must move the threshold above the static
        // η and catch at least as much as the static detector does.
        let evaded = row(&rows, "resilience/gradient-freerider");
        let online = row(&rows, "resilience/gradient-freerider-online");
        assert!(online.eta > PAPER_ETA);
        assert_eq!(evaded.eta, PAPER_ETA);
        assert!(online.final_recall >= evaded.final_recall);
        // The partition waves must be traced with the hardened audit RPCs
        // aborting rather than blaming the unreachable.
        let waves = row(&rows, "resilience/partition-waves");
        assert_eq!(waves.waves.len(), 2, "two scheduled partition waves");
        assert!(waves.audit_rpc.rpc_timeouts > 0);
        assert!(waves.audit_rpc.aborted_unreachable > 0);
        // Bursty loss exercises the hardened confirm path.
        let bursty = row(&rows, "resilience/bursty-loss");
        assert!(bursty.confirm_retry.timeouts > 0);
        assert_eq!(paper_eta_fallback_count(), 0);
    }

    #[test]
    fn quick_scale_table05_shows_overhead_decreasing_with_stream_rate() {
        let cells = table05_practical_overhead(Scale::Quick, 5);
        assert_eq!(cells.len(), 9);
        // At pdcc = 1, the relative overhead shrinks as the stream rate grows.
        let at = |kbps: u64| {
            cells
                .iter()
                .find(|c| c.stream_kbps == kbps && c.pdcc == 1.0)
                .unwrap()
                .overhead
        };
        assert!(at(674) > at(2036));
        // And overhead grows with pdcc for a fixed stream.
        let low = cells
            .iter()
            .find(|c| c.stream_kbps == 674 && c.pdcc == 0.0)
            .unwrap()
            .overhead;
        assert!(low < at(674));
    }
}

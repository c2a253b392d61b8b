//! Convenience entry points for running scenarios, sequentially or as a
//! multi-core fleet.

use lifting_sim::{pool, Engine, SimDuration, SimTime};

use crate::metrics::{RunOutcome, ScoreSnapshot};
use crate::scenario::ScenarioConfig;
use crate::world::SystemWorld;

/// Builds an engine ready to run the given scenario (all initial events are
/// scheduled). Use this directly when you need fine-grained control over the
/// run (e.g. injecting faults between segments).
pub fn build_engine(config: ScenarioConfig) -> Engine<SystemWorld> {
    let world = SystemWorld::new(config);
    let events = world.initial_events();
    let mut engine = Engine::new(world);
    for (time, event) in events {
        engine.schedule(time, event);
    }
    engine
}

/// The default lag grid used for the stream-health curve of Figure 1:
/// 0 to 30 seconds in 1-second steps.
pub fn default_lag_grid() -> Vec<SimDuration> {
    (0..=30).map(SimDuration::from_secs).collect()
}

/// Runs a scenario to completion, sequentially, and returns its outcome.
pub fn run_scenario(config: ScenarioConfig) -> RunOutcome {
    run_scenario_with_snapshots(config, &[])
}

/// Runs a scenario over `shards` shard-parallel node ranges. The outcome is
/// **bit-identical** to [`run_scenario`] at any shard count (`shards <= 1`
/// falls back to classic sequential dispatch); only wall-clock time differs.
pub fn run_scenario_sharded(config: ScenarioConfig, shards: usize) -> RunOutcome {
    run_scenario_with_snapshots_sharded(config, &[], shards)
}

/// Runs a scenario, additionally recording score snapshots at the requested
/// instants (e.g. 25 s, 30 s and 35 s for Figure 14).
pub fn run_scenario_with_snapshots(
    config: ScenarioConfig,
    snapshot_times: &[SimDuration],
) -> RunOutcome {
    run_scenario_with_snapshots_sharded(config, snapshot_times, 1)
}

/// The sharded variant of [`run_scenario_with_snapshots`]: same outcome,
/// bit for bit, with node-local event waves fanned out over `shards` shards.
fn run_scenario_with_snapshots_sharded(
    config: ScenarioConfig,
    snapshot_times: &[SimDuration],
    shards: usize,
) -> RunOutcome {
    let duration = config.duration;
    let mut engine = build_engine(config);
    engine.world_mut().set_shard_count(shards);
    let mut snapshot_times: Vec<SimDuration> = snapshot_times
        .iter()
        .copied()
        .filter(|t| *t <= duration)
        .collect();
    snapshot_times.sort_unstable();

    let mut snapshots: Vec<ScoreSnapshot> = Vec::with_capacity(snapshot_times.len());
    for t in snapshot_times {
        let at = SimTime::ZERO + t;
        engine.run_until_sharded(at);
        snapshots.push(engine.world().score_snapshot(at));
    }
    let end = SimTime::ZERO + duration;
    engine.run_until_sharded(end);
    let lags = default_lag_grid();
    engine.world().run_outcome(end, snapshots, &lags)
}

/// Runs a fleet of independent scenarios on a worker pool, one engine per
/// scenario, and returns their outcomes in input order.
///
/// Every scenario carries its own master seed and runs in a self-contained
/// engine, so the outcomes are **bit-identical** to running each scenario
/// through [`run_scenario`] sequentially — the pool only changes wall-clock
/// time, never results. Set `LIFTING_WORKERS=1` to force sequential
/// execution (e.g. for timing comparisons).
pub fn run_scenarios_parallel(configs: Vec<ScenarioConfig>) -> Vec<RunOutcome> {
    pool::run_indexed(configs.len(), |i| run_scenario(configs[i].clone()))
}

/// Runs `jobs` arbitrary indexed jobs on the same worker pool the scenario
/// fleet uses, returning results in index order. This is the job-queue
/// primitive the experiment harness fans whole figures out through; results
/// are deterministic as long as `f(i)` depends only on `i`.
pub fn run_jobs_parallel<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    pool::run_indexed(jobs, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_fleet_matches_sequential_runs_bit_for_bit() {
        let configs: Vec<ScenarioConfig> = (0..4)
            .map(|i| {
                let mut c = ScenarioConfig::small_test(15 + i, 100 + i as u64);
                c.duration = SimDuration::from_secs(4);
                c
            })
            .collect();
        let parallel = run_scenarios_parallel(configs.clone());
        let sequential: Vec<RunOutcome> = configs.into_iter().map(run_scenario).collect();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.finals.outcomes, s.finals.outcomes);
            assert_eq!(p.traffic.total_bytes_sent, s.traffic.total_bytes_sent);
            assert_eq!(
                p.stream_health.fraction_clear,
                s.stream_health.fraction_clear
            );
            assert_eq!(p.expelled_count, s.expelled_count);
        }
    }

    #[test]
    fn parallel_snapshot_fleet_matches_sequential_runs() {
        let snaps = vec![SimDuration::from_secs(2), SimDuration::from_secs(4)];
        let jobs: Vec<(ScenarioConfig, Vec<SimDuration>)> = (0..3)
            .map(|i| {
                let mut c = ScenarioConfig::small_test(16 + i, 7 + i as u64);
                c.duration = SimDuration::from_secs(5);
                (c, snaps.clone())
            })
            .collect();
        let parallel = run_jobs_parallel(jobs.len(), |i| {
            let (config, snaps) = &jobs[i];
            run_scenario_with_snapshots(config.clone(), snaps)
        });
        for (p, (config, snaps)) in parallel.iter().zip(jobs) {
            let s = run_scenario_with_snapshots(config, &snaps);
            assert_eq!(p.snapshots.len(), 2);
            for (ps, ss) in p.snapshots.iter().zip(&s.snapshots) {
                assert_eq!(ps.at, ss.at);
                assert_eq!(ps.outcomes, ss.outcomes);
            }
            assert_eq!(p.finals.outcomes, s.finals.outcomes);
        }
    }

    #[test]
    fn sharded_execution_is_bit_identical_across_shard_counts() {
        // Freeriders on: blames, timers and verification traffic all flow, so
        // the wave executor's Phase B must reproduce every RNG draw exactly.
        let mut config = ScenarioConfig::small_test(40, 11).with_planetlab_freeriders(0.25);
        config.duration = SimDuration::from_secs(8);
        let sequential = run_scenario(config.clone());
        for shards in [2usize, 4, 8] {
            let sharded = run_scenario_sharded(config.clone(), shards);
            assert_eq!(
                sequential.finals.outcomes, sharded.finals.outcomes,
                "scores diverged at {shards} shards"
            );
            assert_eq!(
                sequential.traffic.total_bytes_sent, sharded.traffic.total_bytes_sent,
                "traffic diverged at {shards} shards"
            );
            assert_eq!(
                sequential.traffic.total_messages_sent,
                sharded.traffic.total_messages_sent
            );
            assert_eq!(
                sequential.stream_health.fraction_clear,
                sharded.stream_health.fraction_clear
            );
            assert_eq!(sequential.expelled_count, sharded.expelled_count);
        }
    }

    #[test]
    fn job_queue_preserves_index_order() {
        let out = run_jobs_parallel(32, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn small_honest_system_disseminates_the_stream() {
        let config = ScenarioConfig::small_test(30, 42);
        let outcome = run_scenario(config);
        // Every chunk emitted early enough should have reached almost every node.
        let health = &outcome.stream_health;
        let last = *health.fraction_clear.last().unwrap();
        assert!(
            last > 0.9,
            "most nodes should view a clear stream at a large lag, got {last}"
        );
        assert_eq!(
            outcome.expelled_count, 0,
            "honest nodes must not be expelled"
        );
        // Honest nodes' compensated scores should not be wildly negative.
        let fp = outcome.false_positive_rate(-9.75);
        assert!(fp < 0.2, "false positives {fp}");
    }

    #[test]
    fn snapshots_are_recorded_in_order() {
        let mut config = ScenarioConfig::small_test(20, 7);
        config.duration = SimDuration::from_secs(10);
        let outcome = run_scenario_with_snapshots(
            config,
            &[SimDuration::from_secs(4), SimDuration::from_secs(8)],
        );
        assert_eq!(outcome.snapshots.len(), 2);
        assert!(outcome.snapshots[0].at < outcome.snapshots[1].at);
        assert_eq!(outcome.finals.outcomes.len(), 19); // source is not scored
    }

    #[test]
    fn freeriders_score_worse_than_honest_nodes() {
        let mut config = ScenarioConfig::small_test(40, 11).with_planetlab_freeriders(0.25);
        config.duration = SimDuration::from_secs(20);
        let outcome = run_scenario(config);
        let honest = outcome.finals.honest_scores();
        let freeriders = outcome.finals.freerider_scores();
        assert!(!honest.is_empty() && !freeriders.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&freeriders) < mean(&honest),
            "freeriders {:.2} should score below honest {:.2}",
            mean(&freeriders),
            mean(&honest)
        );
    }

    #[test]
    fn disabling_lifting_removes_verification_traffic() {
        let mut config = ScenarioConfig::small_test(20, 3);
        config.lifting_enabled = false;
        config.duration = SimDuration::from_secs(8);
        let outcome = run_scenario(config);
        assert_eq!(outcome.traffic.overhead_ratio, 0.0);
        assert!(outcome
            .finals
            .outcomes
            .iter()
            .all(|o| o.score.unwrap_or(0.0) == 0.0));
    }
}

//! Deterministic network fault plans: scheduled partition waves.
//!
//! The churn engine models nodes *leaving*; this module models the network
//! *failing around* nodes that stay up. A [`FaultSchedule`] declares waves of
//! correlated partitions — at a given instant a fraction of the population
//! loses connectivity in both directions (TCP included: a partition is a
//! routing failure, not a lossy link, so the audits-over-TCP plane is cut
//! too) and heals after a fixed outage. [`FaultPlan::generate`] expands the
//! schedule into per-node membership of each wave from a seeded RNG, exactly
//! mirroring `ChurnPlan` in `lifting-membership`: the runtime schedules one
//! begin and one heal event per wave through its event queue and flips the
//! network's partition flags when they fire, so fault scenarios stay
//! bit-for-bit deterministic and parallel == sequential like everything else.

use lifting_sim::{NodeId, SimDuration};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One partition wave: at instant `at`, a `fraction` of the (non-source)
/// population is partitioned from everyone else; the partition heals
/// `outage` later.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWave {
    /// When the partition begins, relative to the start of the run.
    pub at: SimDuration,
    /// How long the partition lasts before healing.
    pub outage: SimDuration,
    /// Fraction of the non-source population partitioned by this wave.
    pub fraction: f64,
}

impl FaultWave {
    /// The instant the wave heals.
    pub fn heals_at(&self) -> SimDuration {
        self.at + self.outage
    }
}

/// Declarative description of a run's network faults: a sequence of
/// partition waves (possibly overlapping — a node stays partitioned until
/// every wave holding it has healed).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The partition waves, in any order.
    pub waves: Vec<FaultWave>,
}

impl FaultSchedule {
    /// A schedule with a single partition wave.
    pub fn single(at: SimDuration, outage: SimDuration, fraction: f64) -> Self {
        FaultSchedule {
            waves: vec![FaultWave {
                at,
                outage,
                fraction,
            }],
        }
    }

    /// True if the schedule contains no waves.
    pub fn is_empty(&self) -> bool {
        self.waves.is_empty()
    }

    /// Validates the schedule.
    ///
    /// # Panics
    ///
    /// Panics if a fraction is out of `[0, 1]`, a wave begins at instant
    /// zero, or an outage is zero.
    pub fn validate(&self) {
        for wave in &self.waves {
            assert!(
                (0.0..=1.0).contains(&wave.fraction),
                "fault wave fraction out of range"
            );
            assert!(
                !wave.at.is_zero(),
                "a fault wave cannot hit at instant zero"
            );
            assert!(
                !wave.outage.is_zero(),
                "a fault wave needs a positive outage"
            );
        }
    }
}

/// The per-node wave memberships expanded from a [`FaultSchedule`].
///
/// Generated from a seeded RNG in one fixed draw order (wave by wave, node by
/// node), so any two expansions of the same schedule from the same stream are
/// identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// `members[wave][node]`: node is partitioned by that wave. The broadcast
    /// source (node 0) is never selected — a partitioned source trivially
    /// kills the whole stream and measures nothing about resilience.
    pub members: Vec<Vec<bool>>,
}

impl FaultPlan {
    /// Expands `schedule` over a population of `nodes` identifiers using the
    /// given (already seeded) RNG.
    pub fn generate<R: Rng + ?Sized>(
        schedule: &FaultSchedule,
        nodes: usize,
        rng: &mut R,
    ) -> FaultPlan {
        let members = schedule
            .waves
            .iter()
            .map(|wave| {
                let mut flags = vec![false; nodes];
                for flag in flags.iter_mut().take(nodes).skip(1) {
                    *flag = wave.fraction > 0.0 && rng.gen_bool(wave.fraction);
                }
                flags
            })
            .collect();
        FaultPlan { members }
    }

    /// The nodes partitioned by wave `wave`.
    pub fn wave_members(&self, wave: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.members[wave]
            .iter()
            .enumerate()
            .filter(|(_, m)| **m)
            .map(|(i, _)| NodeId::new(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::derive_rng;

    fn schedule() -> FaultSchedule {
        FaultSchedule {
            waves: vec![
                FaultWave {
                    at: SimDuration::from_secs(10),
                    outage: SimDuration::from_secs(5),
                    fraction: 0.3,
                },
                FaultWave {
                    at: SimDuration::from_secs(25),
                    outage: SimDuration::from_secs(3),
                    fraction: 0.1,
                },
            ],
        }
    }

    #[test]
    fn plan_generation_is_deterministic_and_spares_the_source() {
        let s = schedule();
        s.validate();
        let a = FaultPlan::generate(&s, 200, &mut derive_rng(9, 9));
        let b = FaultPlan::generate(&s, 200, &mut derive_rng(9, 9));
        assert_eq!(a, b);
        assert_eq!(a.members.len(), 2);
        assert!(
            !a.members[0][0] && !a.members[1][0],
            "source never partitioned"
        );
        let wave0 = a.wave_members(0).count();
        assert!((30..=95).contains(&wave0), "got {wave0} members");
    }

    #[test]
    fn heal_instant_follows_the_outage() {
        let w = FaultWave {
            at: SimDuration::from_secs(10),
            outage: SimDuration::from_secs(5),
            fraction: 0.5,
        };
        assert_eq!(w.heals_at(), SimDuration::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "instant zero")]
    fn zero_instant_wave_is_rejected() {
        FaultSchedule::single(SimDuration::ZERO, SimDuration::from_secs(1), 0.1).validate();
    }

    #[test]
    #[should_panic(expected = "positive outage")]
    fn zero_outage_wave_is_rejected() {
        FaultSchedule::single(SimDuration::from_secs(1), SimDuration::ZERO, 0.1).validate();
    }
}

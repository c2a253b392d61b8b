//! Disturbance generators: every "at time t, these nodes or links leave and
//! come back" of a scenario, in one encoding.
//!
//! The paper's evaluation runs on PlanetLab, where nodes join, crash and
//! rejoin mid-stream and links fail around nodes that stay up. A
//! [`Workload`] describes one such shape declaratively and expands it, once,
//! into a [`WorkloadPlan`]: an ordered list of typed [`Edge`]s plus the
//! per-node start state the runtime applies before the first event. Each
//! generator draws from its own seeded RNG streams in one fixed order (iterate
//! nodes ascending, draw per-node decisions unconditionally where feasible),
//! so a plan is a pure function of the seed and every scenario stays
//! bit-for-bit deterministic and parallel == sequential.
//!
//! Five generators ship with the reproduction, one [`Workload`] variant each:
//!
//! * [`Churn`] — steady session/offline cycling of a fraction of the viewers,
//!   plus optional catastrophic-failure and flash-crowd waves.
//! * [`PartitionWaves`] — evenly spaced waves that partition a fraction of
//!   the population from everyone else (both transports cut) for an outage.
//! * [`DiurnalCycle`] — each participating viewer goes offline for a window
//!   of every cycle, at a per-node phase (the "evening audience" shape).
//! * [`RegionalFailureWaves`] — the population is split into contiguous
//!   regions; each wave takes one whole region down for an outage and brings
//!   it back (correlated failures, not independent ones).
//! * [`ZapSwitching`] — every viewer watches exactly one channel; a fraction
//!   of them zap to another channel after exponentially distributed dwell
//!   times (the multi-channel audience of the multistream planes).

use lifting_sim::{derive_rng, ComponentError, NodeId, SimDuration, StreamId};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// RNG streams of the seed each generator owns. Churn expands its per-node
/// plan from stream 5, draws the first session ends from stream 6 and leaves
/// stream 7 to the runtime's live session/offline draws; partition waves
/// draw their members from stream 9; the three trace generators share
/// stream 10. A scenario consumes only the streams of the generator it
/// declares.
const CHURN_PLAN_STREAM: u64 = 5;
const CHURN_SCHEDULE_STREAM: u64 = 6;
const CHURN_LIVE_STREAM: u64 = 7;
const PARTITION_STREAM: u64 = 9;
const TRACE_STREAM: u64 = 10;

/// One pre-drawn disturbance transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// The node goes offline. `session` is the session epoch the departure
    /// ends — dropped if a wave already ended that session — or `None` for a
    /// wave departure that hits whatever session is live.
    Depart {
        /// The departing node.
        node: NodeId,
        /// The session this departure ends, if it ends a specific one.
        session: Option<u32>,
    },
    /// The node comes back online (a no-op if it is online or expelled).
    Rejoin {
        /// The rejoining node.
        node: NodeId,
    },
    /// The node stops watching `from` and tunes into `to`.
    Switch {
        /// The switching viewer.
        node: NodeId,
        /// The channel the node leaves.
        from: StreamId,
        /// The channel the node joins.
        to: StreamId,
    },
    /// Partition wave `wave` of [`WorkloadPlan::waves`] begins (`begin`) or
    /// heals.
    Partition {
        /// Index of the wave.
        wave: u32,
        /// True when the wave begins, false when it heals.
        begin: bool,
    },
}

impl Edge {
    /// The node the edge moves, if it moves one node.
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            Edge::Depart { node, .. } | Edge::Rejoin { node } | Edge::Switch { node, .. } => {
                Some(node)
            }
            Edge::Partition { .. } => None,
        }
    }
}

/// One timed entry of a [`WorkloadPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEdge {
    /// When the transition fires, relative to the start of the run.
    pub at: SimDuration,
    /// What happens.
    pub edge: Edge,
}

/// Steady churn's live half: who cycles, and the stream the runtime draws
/// each next session or offline spell from as the run progresses.
#[derive(Debug, Clone, PartialEq)]
pub struct Sessions {
    /// Per node: subject to steady session/offline cycling.
    pub churners: Vec<bool>,
    mean_session: SimDuration,
    mean_offline: SimDuration,
    rng: SmallRng,
}

impl Sessions {
    /// Draws the next online-session length (exponential, floored at 10 ms).
    pub fn session_length(&mut self) -> SimDuration {
        exponential(self.mean_session, &mut self.rng)
    }

    /// Draws the next offline-spell length (exponential, floored at 10 ms).
    pub fn offline_length(&mut self) -> SimDuration {
        exponential(self.mean_offline, &mut self.rng)
    }
}

/// A generator's plan, expanded once when the world is built.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadPlan {
    /// Every transition, in the order the runtime schedules them: edges at
    /// one instant fire in this order. The trace generators sort by
    /// `(at, node)`; churn lists per node, partition waves per wave.
    pub edges: Vec<TimedEdge>,
    /// Per node: held offline from the start until a [`Edge::Rejoin`] (the
    /// flash crowd). Empty when nobody is.
    pub held_offline: Vec<bool>,
    /// Per node: the single channel the node initially watches, when the
    /// generator assigns one (zap); `None` leaves the node's audience-derived
    /// subscriptions untouched. Empty when nobody is assigned one.
    pub initial_stream: Vec<Option<StreamId>>,
    /// `waves[w][node]`: the node is partitioned by wave `w` (never node 0,
    /// whose partition would kill the whole stream). Non-empty only for
    /// partition waves, which cut links and leave membership alone.
    pub waves: Vec<Vec<bool>>,
    /// Steady churn's live draws; `None` for every other generator.
    pub sessions: Option<Sessions>,
}

impl WorkloadPlan {
    fn push(&mut self, at: SimDuration, edge: Edge) {
        self.edges.push(TimedEdge { at, edge });
    }

    /// Sorts the edges into the canonical `(at, node)` order. The trace
    /// generators emit per-node runs; the stable sort makes the merged trace
    /// independent of emission order for distinct keys and deterministic for
    /// equal ones.
    fn canonicalize(&mut self) {
        self.edges
            .sort_by_key(|e| (e.at.as_micros(), e.edge.node().map(NodeId::index)));
    }
}

/// A scenario's disturbance: which deterministic generator runs, with its
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Steady churn and its waves.
    Churn(Churn),
    /// Partition waves.
    PartitionWaves(PartitionWaves),
    /// Diurnal audience cycles.
    DiurnalCycle(DiurnalCycle),
    /// Correlated regional failures.
    RegionalFailureWaves(RegionalFailureWaves),
    /// Zap-style channel switching.
    ZapSwitching(ZapSwitching),
}

impl Workload {
    /// The generator's name, as errors and listings print it.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Churn(_) => "churn",
            Workload::PartitionWaves(_) => "partition-waves",
            Workload::DiurnalCycle(_) => "diurnal",
            Workload::RegionalFailureWaves(_) => "regional-failure",
            Workload::ZapSwitching(_) => "zap",
        }
    }

    /// Checks every parameter's range, naming the first one out of it (keys
    /// of durations end in `_secs`).
    pub fn validate(&self) -> Result<(), ComponentError> {
        let name = self.name();
        let fraction = |key, x| ComponentError::require_fraction(name, key, x);
        let positive = |key, d| ComponentError::require_positive_secs(name, key, d);
        let count = |key, x: usize| ComponentError::require_at_least_one(name, key, x as u64);
        // A wave must leave enough of the population standing for gossip to
        // mean anything.
        let wave_fraction = |key, x: f64| {
            let ok = (0.0..=0.9).contains(&x);
            ComponentError::require(ok, name, key, format!("{x} is not in [0, 0.9]"))
        };
        match *self {
            Workload::Churn(c) => {
                fraction("fraction", c.fraction)?;
                positive("mean_session_secs", c.mean_session)?;
                positive("mean_offline_secs", c.mean_offline)?;
                positive("catastrophe_at_secs", c.catastrophe.at)?;
                wave_fraction("catastrophe_fraction", c.catastrophe.fraction)?;
                positive("flash_crowd_at_secs", c.flash_crowd.at)?;
                wave_fraction("flash_crowd_fraction", c.flash_crowd.fraction)
            }
            Workload::PartitionWaves(p) => {
                // A node's overlapping partitions are counted in a `u8`.
                let waves = p.waves;
                let reason = format!("{waves} not in [1, 255]");
                ComponentError::require((1..=255).contains(&waves), name, "waves", reason)?;
                positive("outage_secs", p.outage)?;
                wave_fraction("fraction", p.fraction)
            }
            Workload::DiurnalCycle(d) => {
                fraction("participation", d.participation)?;
                positive("cycle_secs", d.cycle)?;
                fraction("offline_fraction", d.offline_fraction)?;
                positive("warmup_secs", d.warmup)
            }
            Workload::RegionalFailureWaves(r) => {
                count("regions", r.regions)?;
                count("waves", r.waves)?;
                positive("outage_secs", r.outage)?;
                positive("warmup_secs", r.warmup)
            }
            Workload::ZapSwitching(z) => {
                fraction("zappers", z.zappers)?;
                positive("mean_dwell_secs", z.mean_dwell)?;
                positive("warmup_secs", z.warmup)
            }
        }
    }

    /// Expands the generator over `nodes` identifiers and `streams` channels
    /// for a run of `duration`, drawing only from its own streams of `seed`.
    /// Node 0 — the broadcast source — is never selected for anything.
    pub fn expand(
        &self,
        nodes: usize,
        streams: usize,
        duration: SimDuration,
        seed: u64,
    ) -> WorkloadPlan {
        let (n, s, d) = (nodes, streams, duration);
        match self {
            Workload::Churn(g) => g.expand(n, s, d, seed),
            Workload::PartitionWaves(g) => g.expand(n, s, d, seed),
            Workload::DiurnalCycle(g) => g.expand(n, s, d, seed),
            Workload::RegionalFailureWaves(g) => g.expand(n, s, d, seed),
            Workload::ZapSwitching(g) => g.expand(n, s, d, seed),
        }
    }
}

/// Exponentially distributed duration with the given mean, floored at 10 ms
/// so a session always covers at least a few events.
fn exponential(mean: SimDuration, rng: &mut dyn RngCore) -> SimDuration {
    let u: f64 = rng.gen_range(0.0..1.0);
    let secs = -mean.as_secs_f64() * (1.0 - u).ln();
    SimDuration::from_secs_f64(secs.max(0.010))
}

/// Per node, one draw of membership in a `fraction` of the non-source
/// population, node by node (a fraction of 0 draws nothing).
fn members(nodes: usize, fraction: f64, rng: &mut SmallRng) -> Vec<bool> {
    (0..nodes)
        .map(|i| i > 0 && fraction > 0.0 && rng.gen_bool(fraction))
        .collect()
}

/// One synchronized membership wave: at instant `at`, a `fraction` of the
/// non-source population changes state together (0 = no wave).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wave {
    /// When the wave hits, relative to the start of the run.
    pub at: SimDuration,
    /// Fraction of the non-source population in the wave.
    pub fraction: f64,
}

/// Steady churn plus optional waves: a `fraction` of the viewers cycle
/// between online sessions (exponential, mean `mean_session`) and offline
/// spells (mean `mean_offline`), with no session ending before `warmup`. The
/// catastrophe wave crashes its members for good (unless they are steady
/// churners); the flash-crowd wave holds its members offline from the start
/// and joins them all at its instant. The two waves are disjoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// Fraction of the non-source population that cycles (0 = none).
    pub fraction: f64,
    /// Mean online-session length of a churning node.
    pub mean_session: SimDuration,
    /// Mean offline spell before a churning node rejoins.
    pub mean_offline: SimDuration,
    /// No steady session ends before this instant.
    pub warmup: SimDuration,
    /// A fraction of the population crashes at once.
    pub catastrophe: Wave,
    /// A fraction of the population starts offline and joins at once.
    pub flash_crowd: Wave,
}

impl Default for Churn {
    /// A quarter of the viewers cycle 12 s sessions and 3 s offline spells
    /// after a 3 s warmup; no wave (each would hit at 10 s).
    fn default() -> Self {
        let no_wave = Wave {
            at: SimDuration::from_secs(10),
            fraction: 0.0,
        };
        Churn {
            fraction: 0.25,
            mean_session: SimDuration::from_secs(12),
            mean_offline: SimDuration::from_secs(3),
            warmup: SimDuration::from_secs(3),
            catastrophe: no_wave,
            flash_crowd: no_wave,
        }
    }
}

impl Churn {
    fn expand(&self, nodes: usize, _: usize, _: SimDuration, seed: u64) -> WorkloadPlan {
        // Fixed draw order on the plan stream: every churner flag, then every
        // flash-crowd flag, then every catastrophe flag. A fraction of 0
        // draws nothing.
        let rng = &mut derive_rng(seed, CHURN_PLAN_STREAM);
        let churners = members(nodes, self.fraction, rng);
        let held_offline = members(nodes, self.flash_crowd.fraction, rng);
        let catastrophe = members(nodes, self.catastrophe.fraction, rng);
        let mut plan = WorkloadPlan::default();
        let mut schedule_rng = derive_rng(seed, CHURN_SCHEDULE_STREAM);
        for i in 1..nodes {
            let node = NodeId::new(i as u32);
            if held_offline[i] {
                // Its steady churn, if any, starts when the wave joins it.
                plan.push(self.flash_crowd.at, Edge::Rejoin { node });
            } else if churners[i] {
                let end = self.warmup + exponential(self.mean_session, &mut schedule_rng);
                plan.push(
                    end,
                    Edge::Depart {
                        node,
                        session: Some(0),
                    },
                );
            }
            // A flash-crowd member cannot also crash: a departure fired
            // while it is held offline would no-op and the later join would
            // resurrect it.
            if catastrophe[i] && !held_offline[i] {
                plan.push(
                    self.catastrophe.at,
                    Edge::Depart {
                        node,
                        session: None,
                    },
                );
            }
        }
        plan.held_offline = held_offline;
        plan.sessions = Some(Sessions {
            churners,
            mean_session: self.mean_session,
            mean_offline: self.mean_offline,
            rng: derive_rng(seed, CHURN_LIVE_STREAM),
        });
        plan
    }
}

/// `waves` evenly spaced partition waves: wave `k` (1-based) begins at
/// `k · duration / (waves + 1)`, cuts a `fraction` of the non-source
/// population off from everyone else in both transports (a routing failure,
/// not a lossy link) and heals `outage` later. Overlapping waves compose: a
/// node stays partitioned until every wave holding it has healed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWaves {
    /// Number of waves over the run (≥ 1).
    pub waves: usize,
    /// How long each partition lasts before healing.
    pub outage: SimDuration,
    /// Fraction of the non-source population each wave partitions.
    pub fraction: f64,
}

impl Default for PartitionWaves {
    /// Two waves, each cutting off a quarter of the population for 4 s.
    fn default() -> Self {
        PartitionWaves {
            waves: 2,
            outage: SimDuration::from_secs(4),
            fraction: 0.25,
        }
    }
}

impl PartitionWaves {
    fn expand(&self, nodes: usize, _: usize, duration: SimDuration, seed: u64) -> WorkloadPlan {
        let mut rng = derive_rng(seed, PARTITION_STREAM);
        let spacing = SimDuration::from_micros(duration.as_micros() / (self.waves as u64 + 1));
        let mut plan = WorkloadPlan::default();
        for wave in 0..self.waves {
            plan.waves.push(members(nodes, self.fraction, &mut rng));
            let at = spacing.saturating_mul(wave as u64 + 1);
            let wave = wave as u32;
            plan.push(at, Edge::Partition { wave, begin: true });
            plan.push(at + self.outage, Edge::Partition { wave, begin: false });
        }
        plan
    }
}

/// Diurnal audience cycles: each participating viewer goes offline for an
/// `offline_fraction` window of every `cycle`, at a per-node phase, after a
/// warmup. Models the daily rhythm of a live audience compressed to
/// simulation scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCycle {
    /// Fraction of the non-source population that follows the cycle.
    pub participation: f64,
    /// Length of one full cycle.
    pub cycle: SimDuration,
    /// Fraction of each cycle the viewer spends offline.
    pub offline_fraction: f64,
    /// No departure before this instant.
    pub warmup: SimDuration,
}

impl Default for DiurnalCycle {
    /// 60 % of the viewers spend 35 % of every 12 s cycle offline, from 4 s.
    fn default() -> Self {
        DiurnalCycle {
            participation: 0.6,
            cycle: SimDuration::from_secs(12),
            offline_fraction: 0.35,
            warmup: SimDuration::from_secs(4),
        }
    }
}

impl DiurnalCycle {
    fn expand(&self, nodes: usize, _: usize, duration: SimDuration, seed: u64) -> WorkloadPlan {
        let rng = &mut derive_rng(seed, TRACE_STREAM);
        let mut plan = WorkloadPlan::default();
        let cycle = self.cycle.as_secs_f64();
        let offline = self.offline_fraction * cycle;
        for i in 1..nodes {
            // Both draws happen unconditionally so the plan stream stays
            // stable regardless of who participates.
            let participates = self.participation > 0.0 && rng.gen_bool(self.participation);
            let phase: f64 = rng.gen_range(0.0..1.0);
            if !participates || offline <= 0.0 {
                continue;
            }
            let node = NodeId::new(i as u32);
            let mut start = self.warmup.as_secs_f64() + phase * cycle;
            while start < duration.as_secs_f64() {
                let depart = Edge::Depart {
                    node,
                    session: None,
                };
                plan.push(SimDuration::from_secs_f64(start), depart);
                plan.push(
                    SimDuration::from_secs_f64(start + offline),
                    Edge::Rejoin { node },
                );
                start += cycle;
            }
        }
        plan.canonicalize();
        plan
    }
}

/// Correlated regional failures: the non-source population is split into
/// `regions` contiguous identifier blocks; each wave picks one region and an
/// onset, takes every member down together, and brings the whole region back
/// after `outage`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionalFailureWaves {
    /// Number of contiguous regions the population is split into (≥ 1).
    pub regions: usize,
    /// Number of failure waves over the run.
    pub waves: usize,
    /// How long a failed region stays down.
    pub outage: SimDuration,
    /// No wave begins before this instant.
    pub warmup: SimDuration,
}

impl Default for RegionalFailureWaves {
    /// Four regions, two 4 s outages, none before 5 s.
    fn default() -> Self {
        RegionalFailureWaves {
            regions: 4,
            waves: 2,
            outage: SimDuration::from_secs(4),
            warmup: SimDuration::from_secs(5),
        }
    }
}

impl RegionalFailureWaves {
    /// The region node `index` (≥ 1) belongs to.
    pub fn region_of(&self, index: usize, nodes: usize) -> usize {
        let population = nodes.saturating_sub(1).max(1);
        ((index - 1) * self.regions / population).min(self.regions - 1)
    }

    fn expand(&self, nodes: usize, _: usize, duration: SimDuration, seed: u64) -> WorkloadPlan {
        let rng = &mut derive_rng(seed, TRACE_STREAM);
        let mut plan = WorkloadPlan::default();
        let warmup = self.warmup.as_secs_f64();
        let span = (duration.as_secs_f64() - warmup - self.outage.as_secs_f64()).max(0.0);
        for _ in 0..self.waves {
            // Fixed draw order per wave: onset fraction, then region.
            let frac: f64 = rng.gen_range(0.0..1.0);
            let region = rng.gen_range(0..self.regions);
            let at = SimDuration::from_secs_f64(warmup + frac * span);
            for i in (1..nodes).filter(|i| self.region_of(*i, nodes) == region) {
                let node = NodeId::new(i as u32);
                plan.push(
                    at,
                    Edge::Depart {
                        node,
                        session: None,
                    },
                );
                plan.push(at + self.outage, Edge::Rejoin { node });
            }
        }
        plan.canonicalize();
        plan
    }
}

/// Zap-style channel switching over the multistream planes: every viewer
/// initially watches exactly one channel (uniformly drawn); a `zappers`
/// fraction of them switch to a different channel after exponentially
/// distributed dwell times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZapSwitching {
    /// Fraction of the non-source population that zaps.
    pub zappers: f64,
    /// Mean dwell time on a channel before a zapper switches.
    pub mean_dwell: SimDuration,
    /// No switch before this instant.
    pub warmup: SimDuration,
}

impl Default for ZapSwitching {
    /// 40 % of the viewers zap after 6 s mean dwells, from 3 s.
    fn default() -> Self {
        ZapSwitching {
            zappers: 0.4,
            mean_dwell: SimDuration::from_secs(6),
            warmup: SimDuration::from_secs(3),
        }
    }
}

impl ZapSwitching {
    fn expand(
        &self,
        nodes: usize,
        streams: usize,
        duration: SimDuration,
        seed: u64,
    ) -> WorkloadPlan {
        let rng = &mut derive_rng(seed, TRACE_STREAM);
        let mut plan = WorkloadPlan {
            initial_stream: vec![None; nodes],
            ..WorkloadPlan::default()
        };
        if streams < 2 {
            return plan; // nothing to zap between
        }
        for i in 1..nodes {
            // Fixed draw order per node: zapper flag, initial channel, then
            // the zapper's dwell/target walk.
            let zaps = self.zappers > 0.0 && rng.gen_bool(self.zappers);
            let mut current = StreamId::new(rng.gen_range(0..streams as u16));
            plan.initial_stream[i] = Some(current);
            if !zaps {
                continue;
            }
            let node = NodeId::new(i as u32);
            let mut t = self.warmup;
            loop {
                t += exponential(self.mean_dwell, rng);
                if t.as_micros() >= duration.as_micros() {
                    break;
                }
                let pick = rng.gen_range(0..streams as u16 - 1);
                let to = StreamId::new(if pick >= current.0 { pick + 1 } else { pick });
                plan.push(
                    t,
                    Edge::Switch {
                        node,
                        from: current,
                        to,
                    },
                );
                current = to;
            }
        }
        plan.canonicalize();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DURATION: SimDuration = SimDuration::from_secs(30);

    fn edges_where(plan: &WorkloadPlan, kind: fn(&Edge) -> bool) -> usize {
        plan.edges.iter().filter(|e| kind(&e.edge)).count()
    }

    fn is_depart(edge: &Edge) -> bool {
        matches!(edge, Edge::Depart { .. })
    }

    fn churn() -> Churn {
        Churn {
            fraction: 0.4,
            mean_session: SimDuration::from_secs(10),
            mean_offline: SimDuration::from_secs(3),
            warmup: SimDuration::from_secs(2),
            catastrophe: Wave {
                at: SimDuration::from_secs(15),
                fraction: 0.3,
            },
            flash_crowd: Wave {
                at: SimDuration::from_secs(5),
                fraction: 0.2,
            },
        }
    }

    #[test]
    fn churn_plan_generation_is_deterministic_and_spares_the_source() {
        let a = churn().expand(200, 1, DURATION, 9);
        assert_eq!(a, churn().expand(200, 1, DURATION, 9));
        let churners = &a.sessions.as_ref().unwrap().churners;
        assert!(!churners[0] && !a.held_offline[0]);
        assert!(a
            .edges
            .iter()
            .all(|e| e.edge.node() != Some(NodeId::new(0))));
        let count = churners.iter().filter(|c| **c).count();
        assert!((40..=120).contains(&count), "got {count} churners");
        assert!(a.held_offline.iter().any(|c| *c));
        let wave = churn().catastrophe.at;
        assert!(a.edges.iter().any(|e| e.at == wave && is_depart(&e.edge)));
        // Every flash-crowd member rejoins at the wave instant.
        let rejoins = edges_where(&a, |e| matches!(e, Edge::Rejoin { .. }));
        assert_eq!(rejoins, a.held_offline.iter().filter(|h| **h).count());
    }

    #[test]
    fn flash_crowd_and_catastrophe_memberships_are_disjoint() {
        let mut gen = churn();
        gen.flash_crowd.fraction = 0.6;
        gen.catastrophe = Wave {
            at: SimDuration::from_secs(3), // before the flash join, the nasty case
            fraction: 0.6,
        };
        let plan = gen.expand(500, 1, DURATION, 4);
        assert!(plan.held_offline.iter().any(|c| *c));
        let mut crashed = 0;
        for e in &plan.edges {
            if let Edge::Depart {
                node,
                session: None,
            } = e.edge
            {
                crashed += 1;
                assert!(!plan.held_offline[node.index()], "{node} is in both waves");
            }
        }
        assert!(crashed > 0);
    }

    #[test]
    fn durations_are_positive_and_roughly_exponential() {
        let mut sessions = churn().expand(10, 1, DURATION, 1).sessions.unwrap();
        let mut total = 0.0;
        for _ in 0..2_000 {
            let d = sessions.session_length();
            assert!(!d.is_zero());
            total += d.as_secs_f64();
        }
        let mean = total / 2_000.0;
        assert!((mean - 10.0).abs() < 1.0, "mean session {mean}");
    }

    #[test]
    fn zero_fraction_schedule_plans_nothing() {
        let mut gen = churn();
        gen.fraction = 0.0;
        gen.catastrophe.fraction = 0.0;
        gen.flash_crowd.fraction = 0.0;
        let plan = gen.expand(50, 1, DURATION, 3);
        assert!(plan.edges.is_empty());
        assert!(plan.sessions.unwrap().churners.iter().all(|c| !*c));
    }

    #[test]
    fn partition_plan_generation_is_deterministic_and_spares_the_source() {
        let gen = PartitionWaves {
            waves: 2,
            outage: SimDuration::from_secs(5),
            fraction: 0.3,
        };
        let a = gen.expand(200, 1, DURATION, 9);
        assert_eq!(a, gen.expand(200, 1, DURATION, 9));
        assert_eq!(a.waves.len(), 2);
        assert!(!a.waves[0][0] && !a.waves[1][0], "source never partitioned");
        let wave0 = a.waves[0].iter().filter(|m| **m).count();
        assert!((30..=95).contains(&wave0), "got {wave0} members");
    }

    #[test]
    fn partition_heal_instant_follows_the_outage() {
        let gen = PartitionWaves {
            waves: 2,
            outage: SimDuration::from_secs(5),
            fraction: 0.3,
        };
        let a = gen.expand(200, 1, DURATION, 9);
        // Per wave, in push order: its onset at k·30/3 s, its heal 5 s later.
        let secs: Vec<u64> = a
            .edges
            .iter()
            .map(|e| e.at.as_micros() / 1_000_000)
            .collect();
        assert_eq!(secs, vec![10, 15, 20, 25]);
        assert_eq!(
            a.edges[1].edge,
            Edge::Partition {
                wave: 0,
                begin: false
            }
        );
    }

    #[test]
    fn diurnal_plan_is_deterministic_and_spares_the_source() {
        let gen = DiurnalCycle {
            participation: 0.4,
            cycle: SimDuration::from_secs(10),
            offline_fraction: 0.25,
            warmup: SimDuration::from_secs(2),
        };
        let a = gen.expand(100, 1, DURATION, 5);
        assert_eq!(a, gen.expand(100, 1, DURATION, 5));
        assert!(!a.edges.is_empty());
        assert!(a
            .edges
            .iter()
            .all(|e| e.edge.node() != Some(NodeId::new(0))));
        // Each participant alternates Depart/Rejoin, so the counts pair up.
        assert_eq!(edges_where(&a, is_depart) * 2, a.edges.len());
    }

    #[test]
    fn diurnal_events_are_time_sorted() {
        let gen = DiurnalCycle {
            participation: 0.6,
            cycle: SimDuration::from_secs(8),
            offline_fraction: 0.3,
            warmup: SimDuration::ZERO,
        };
        let plan = gen.expand(60, 1, DURATION, 1);
        for pair in plan.edges.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn regional_waves_take_whole_regions_down_together() {
        let gen = RegionalFailureWaves {
            regions: 4,
            waves: 2,
            outage: SimDuration::from_secs(4),
            warmup: SimDuration::from_secs(3),
        };
        let plan = gen.expand(81, 1, DURATION, 7);
        assert_eq!(plan, gen.expand(81, 1, DURATION, 7));
        // Two waves over 20 members per region: 40 departures, 40 rejoins.
        assert_eq!(edges_where(&plan, is_depart), 40);
        assert_eq!(plan.edges.len(), 80);
        // All departures of one wave share the same instant (correlated, not
        // independent), and every region index is valid.
        let mut depart_instants: Vec<u64> = plan
            .edges
            .iter()
            .filter(|e| is_depart(&e.edge))
            .map(|e| e.at.as_micros())
            .collect();
        depart_instants.sort_unstable();
        depart_instants.dedup();
        assert!(depart_instants.len() <= 2, "one onset per wave");
        for i in 1..81 {
            assert!(gen.region_of(i, 81) < 4);
        }
    }

    #[test]
    fn zap_assigns_everyone_a_channel_and_switches_zappers() {
        let gen = ZapSwitching {
            zappers: 0.5,
            mean_dwell: SimDuration::from_secs(4),
            warmup: SimDuration::from_secs(1),
        };
        let plan = gen.expand(80, 3, DURATION, 3);
        assert_eq!(plan, gen.expand(80, 3, DURATION, 3));
        assert!(plan.initial_stream[0].is_none(), "the source watches all");
        for i in 1..80 {
            let watched = plan.initial_stream[i].expect("every viewer watches one channel");
            assert!(watched.index() < 3);
        }
        assert!(edges_where(&plan, |e| matches!(e, Edge::Switch { .. })) > 0);
        // A switch never targets the channel the node is already on, and
        // always names a valid channel.
        for e in &plan.edges {
            if let Edge::Switch { from, to, .. } = e.edge {
                assert_ne!(from, to);
                assert!(to.index() < 3);
                assert!(e.at >= SimDuration::from_secs(1));
            }
        }
    }

    #[test]
    fn zap_on_a_single_stream_is_empty() {
        let gen = ZapSwitching {
            zappers: 1.0,
            mean_dwell: SimDuration::from_secs(1),
            warmup: SimDuration::ZERO,
        };
        let plan = gen.expand(40, 1, DURATION, 2);
        assert!(plan.edges.is_empty());
        assert!(plan.initial_stream.iter().all(|s| s.is_none()));
    }
}

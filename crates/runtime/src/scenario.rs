//! Experiment scenarios.

use lifting_core::LiftingConfig;
use lifting_gossip::buffer::{SLOT_ROUNDS, SLOT_TIME_LIMIT};
use lifting_gossip::{FreeriderConfig, GossipConfig, StreamClock};
use lifting_membership::Workload;
use lifting_net::{Capability, NetworkConfig};
use lifting_sim::{ComponentError, SimDuration, StreamId};

use crate::layers::AdversaryFamily;

/// Which nodes subscribe to a stream.
///
/// Audiences are expressed as population fractions so one scenario definition
/// scales from quick to paper populations. The broadcast source (node 0)
/// always subscribes to every stream — it feeds them all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamAudience {
    /// Every node subscribes.
    All,
    /// Nodes whose index falls in `[floor(from·n), floor(to·n))` subscribe
    /// (plus the source).
    Slice {
        /// Lower population fraction (inclusive).
        from: f64,
        /// Upper population fraction (exclusive).
        to: f64,
    },
}

impl StreamAudience {
    /// True if node `node_index` of an `nodes`-node population subscribes.
    pub fn includes(&self, node_index: usize, nodes: usize) -> bool {
        if node_index == 0 {
            return true; // the source feeds every stream
        }
        match self {
            StreamAudience::All => true,
            StreamAudience::Slice { from, to } => {
                let lo = (from * nodes as f64).floor() as usize;
                let hi = (to * nodes as f64).floor() as usize;
                (lo..hi).contains(&node_index)
            }
        }
    }

    /// Number of subscribers (excluding the always-subscribed source).
    pub fn size(&self, nodes: usize) -> usize {
        (1..nodes).filter(|i| self.includes(*i, nodes)).count()
    }
}

/// One broadcast channel: its rate, chunking, start offset and audience.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Stream rate in bits per second.
    pub rate_bps: u64,
    /// Chunk payload size in bytes.
    pub chunk_size: u32,
    /// Delay before the source starts emitting this stream (channels need
    /// not come on air together).
    pub start_offset: SimDuration,
    /// Which nodes subscribe.
    pub audience: StreamAudience,
}

impl StreamSpec {
    /// A full-audience stream starting at time zero.
    pub fn new(rate_bps: u64, chunk_size: u32) -> Self {
        StreamSpec {
            rate_bps,
            chunk_size,
            start_offset: SimDuration::ZERO,
            audience: StreamAudience::All,
        }
    }

    /// Restricts the audience (builder style).
    pub fn with_audience(mut self, audience: StreamAudience) -> Self {
        self.audience = audience;
        self
    }

    /// Delays the stream's start (builder style).
    pub fn starting_after(mut self, offset: SimDuration) -> Self {
        self.start_offset = offset;
        self
    }
}

/// Freerider population and behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeriderScenario {
    /// Number of freeriders (the last `count` node identifiers, never the
    /// source).
    pub count: usize,
    /// Dissemination-level degree of freeriding.
    pub degree: FreeriderConfig,
}

/// Complete description of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Number of nodes (node 0 is the broadcast source and is always honest).
    pub nodes: usize,
    /// Gossip protocol parameters.
    pub gossip: GossipConfig,
    /// LiFTinG parameters.
    pub lifting: LiftingConfig,
    /// Whether the LiFTinG verification layer runs at all (Figure 1 compares
    /// the system with and without it).
    pub lifting_enabled: bool,
    /// Whether a-posteriori audits run periodically.
    pub audits_enabled: bool,
    /// Interval between audits initiated by each node (when enabled).
    pub audit_interval: SimDuration,
    /// Network conditions.
    pub network: NetworkConfig,
    /// Every broadcast channel: entry `i` is stream `i`, and entry 0 — the
    /// primary, starting at time zero — is the only one in the paper's
    /// single-channel experiments (674 kbps in the headline run). All
    /// channels share the membership, verification parameters and
    /// reputation plane; each gets its own source, chunk stores, playout
    /// buffers and verification history.
    pub streams: Vec<StreamSpec>,
    /// Freerider population, if any.
    pub freeriders: Option<FreeriderScenario>,
    /// Whether the managers recalibrate the detection threshold each period
    /// from the live score stream (the closed-loop defence: a median/MAD
    /// outlier cut of the trimmed live scores); `false` keeps the static `η` of
    /// [`LiftingConfig::eta`].
    pub online_recalibration: bool,
    /// Uplink of a well-provisioned node, bits per second (`None` =
    /// unconstrained) — the default attachment every capability class
    /// starts from.
    pub default_upload_bps: Option<u64>,
    /// How every node gets its uplink, access loss and latency class
    /// (`Uniform`: everyone gets [`ScenarioConfig::default_upload_bps`]).
    pub capability: Capability,
    /// The disturbance — steady churn and its waves, partition waves, or a
    /// trace-driven audience; `None` = no node or link ever leaves.
    pub workload: Option<Workload>,
    /// The family the freerider population plays (`Baseline`: the paper's
    /// independent freeriders; its parameters make them collude).
    pub adversary: AdversaryFamily,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The paper's PlanetLab deployment (Section 7.1): 300 nodes, 674 kbps,
    /// `f = 7`, `Tg = 500 ms`, `M = 25`, 4 % loss, 10 % freeriders with
    /// `Δ = (1/7, 0.1, 0.1)`.
    pub fn planetlab_baseline(seed: u64) -> Self {
        ScenarioConfig {
            nodes: 300,
            gossip: GossipConfig::planetlab(),
            lifting: LiftingConfig::planetlab(),
            lifting_enabled: true,
            audits_enabled: false,
            audit_interval: SimDuration::from_secs(10),
            network: NetworkConfig::planetlab(0.04),
            streams: vec![StreamSpec::new(674_000, 4_096)],
            freeriders: None,
            online_recalibration: false,
            default_upload_bps: Some(5_000_000),
            // The paper attributes most false positives to poorly connected
            // honest nodes: 10 % of them get a low uplink and extra loss.
            capability: Capability::POOR_FRACTION,
            workload: None,
            adversary: AdversaryFamily::default(),
            duration: SimDuration::from_secs(40),
            seed,
        }
    }

    /// Adds the paper's freerider population: 10 % of the nodes freeriding
    /// with `Δ = (1/7, 0.1, 0.1)`.
    pub fn with_planetlab_freeriders(mut self, fraction: f64) -> Self {
        let count = ((self.nodes as f64) * fraction).round() as usize;
        self.freeriders = Some(FreeriderScenario {
            count,
            degree: FreeriderConfig::planetlab(),
        });
        self
    }

    /// A small configuration for fast tests: `n` nodes, ideal network,
    /// unconstrained uplinks, few managers, short duration.
    pub fn small_test(n: usize, seed: u64) -> Self {
        let mut lifting = LiftingConfig::planetlab();
        lifting.managers = 5.min(n.saturating_sub(1)).max(1);
        ScenarioConfig {
            nodes: n,
            gossip: GossipConfig {
                fanout: 5,
                gossip_period: SimDuration::from_millis(500),
                clear_stream_threshold: 0.9,
            },
            lifting,
            lifting_enabled: true,
            audits_enabled: false,
            audit_interval: SimDuration::from_secs(5),
            network: NetworkConfig::ideal(),
            streams: vec![StreamSpec::new(200_000, 2_500)],
            freeriders: None,
            online_recalibration: false,
            default_upload_bps: None,
            capability: Capability::Uniform,
            workload: None,
            adversary: AdversaryFamily::default(),
            duration: SimDuration::from_secs(15),
            seed,
        }
    }

    /// Number of broadcast channels.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The specification of stream `s`.
    pub fn stream_spec(&self, s: StreamId) -> StreamSpec {
        self.streams[s.index()]
    }

    /// Iterates over every stream id of the scenario.
    pub fn stream_ids(&self) -> impl Iterator<Item = StreamId> {
        (0..self.stream_count()).map(|s| StreamId::new(s as u16))
    }

    /// Adds an extra broadcast channel (builder style).
    pub fn with_stream(mut self, spec: StreamSpec) -> Self {
        self.streams.push(spec);
        self
    }

    /// Number of freeriders in the scenario.
    pub fn freerider_count(&self) -> usize {
        self.freeriders.map(|f| f.count).unwrap_or(0)
    }

    /// True if the node with this identifier is a freerider (the last
    /// `count` identifiers, never node 0).
    pub fn is_freerider(&self, node_index: usize) -> bool {
        let count = self.freerider_count();
        count > 0 && node_index != 0 && node_index >= self.nodes.saturating_sub(count)
    }

    /// Validates the scenario: a population of at least three, in-range
    /// gossip, LiFTinG, link-fault and freerider-degree parameters, fewer
    /// managers and freeriders than nodes, one to 64 non-empty streams with
    /// two subscribers each and the primary on air from the start, a
    /// positive duration that a chunk slot's time and round fields can
    /// represent, a positive audit interval, a non-zero default uplink, and
    /// in-range capability, workload and adversary parameters (the family's
    /// cross-field rules included).
    pub fn validate(&self) -> Result<(), ComponentError> {
        let (nodes, managers, streams) = (self.nodes, self.lifting.managers, self.stream_count());
        require(
            nodes >= 3,
            "nodes",
            format!("{nodes} nodes; at least three are required"),
        )?;
        self.gossip.validate()?;
        self.lifting.validate()?;
        self.network.faults.validate()?;
        require(
            managers < nodes,
            "lifting.managers",
            format!("cannot assign {managers} managers among {nodes} nodes"),
        )?;
        require(
            self.freerider_count() < nodes,
            "freeriders",
            "freeriders must be a strict subset of the population",
        )?;
        require(
            (1..=64).contains(&streams),
            "streams",
            format!(
                "{streams} streams; one to 64 are supported \
                 (the selective-freerider mask is a u64)"
            ),
        )?;
        require(
            self.streams[0].start_offset.is_zero(),
            "streams",
            "the primary stream must start at time zero",
        )?;
        for (s, spec) in self.streams.iter().enumerate() {
            require(
                spec.rate_bps > 0 && spec.chunk_size > 0,
                "streams",
                format!("stream {s} is empty"),
            )?;
            // The clock counts whole µs: a zero interval would emit every
            // chunk at one instant, and the run would never advance.
            let clock = StreamClock::new(StreamId::new(s as u16), spec.rate_bps, spec.chunk_size);
            require(
                !clock.interval.is_zero(),
                "streams",
                format!(
                    "stream {s}'s {} B chunks at {} bps come under half a µs apart",
                    spec.chunk_size, spec.rate_bps
                ),
            )?;
            require(
                spec.audience.size(nodes) >= 2,
                "streams",
                format!(
                    "stream {s}'s audience has fewer than two subscribers; \
                     gossip needs someone to talk to"
                ),
            )?;
        }
        require(
            !self.duration.is_zero(),
            "duration",
            "duration must be positive",
        )?;
        // A chunk slot records a time (the latest is a request's expiry, one
        // gossip period past the end) and the round, one per gossip period,
        // that proposed the chunk; each field has a fixed width.
        let (duration, period) = (
            self.duration.as_micros(),
            self.gossip.gossip_period.as_micros(),
        );
        require(
            duration.saturating_add(period) < SLOT_TIME_LIMIT.as_micros(),
            "duration",
            format!(
                "{} s plus one gossip period reaches the {} s a chunk slot records",
                self.duration.as_secs_f64(),
                SLOT_TIME_LIMIT.as_secs_f64()
            ),
        )?;
        require(
            duration / period < SLOT_ROUNDS,
            "duration",
            format!(
                "{} gossip rounds; a chunk slot tells {SLOT_ROUNDS} apart",
                duration / period + 1
            ),
        )?;
        require(
            !self.audit_interval.is_zero(),
            "audit_interval",
            "audit interval must be positive",
        )?;
        require(
            self.default_upload_bps != Some(0),
            "default_upload_bps",
            "a zero uplink can send nothing",
        )?;
        if let Some(f) = &self.freeriders {
            f.degree.validate()?;
        }
        self.capability.validate()?;
        if let Some(workload) = &self.workload {
            workload.validate()?;
        }
        self.adversary.validate(self)
    }
}

/// `Ok` if `ok`, otherwise the scenario's [`ComponentError::InvalidParam`]
/// for `key`.
fn require(ok: bool, key: &str, reason: impl Into<String>) -> Result<(), ComponentError> {
    ComponentError::require(ok, "scenario", key, reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planetlab_baseline_matches_the_paper() {
        let s = ScenarioConfig::planetlab_baseline(1);
        s.validate().unwrap();
        assert_eq!(s.nodes, 300);
        assert_eq!(s.gossip.fanout, 7);
        assert_eq!(s.lifting.managers, 25);
        assert_eq!(s.streams, vec![StreamSpec::new(674_000, 4_096)]);
        assert_eq!(s.freerider_count(), 0);
        let with = s.with_planetlab_freeriders(0.1);
        with.validate().unwrap();
        assert_eq!(with.freerider_count(), 30);
    }

    #[test]
    fn freerider_assignment_is_a_suffix_excluding_the_source() {
        let s = ScenarioConfig::small_test(10, 0).with_planetlab_freeriders(0.3);
        assert_eq!(s.freerider_count(), 3);
        let flags: Vec<bool> = (0..10).map(|i| s.is_freerider(i)).collect();
        assert_eq!(
            flags,
            vec![false, false, false, false, false, false, false, true, true, true]
        );
    }

    #[test]
    fn source_is_never_a_freerider() {
        let mut s = ScenarioConfig::small_test(4, 0);
        s.freeriders = Some(FreeriderScenario {
            count: 3,
            degree: FreeriderConfig::uniform(0.5),
        });
        s.validate().unwrap();
        assert!(!s.is_freerider(0));
        assert!(s.is_freerider(1));
    }

    /// The key of the scenario-level `InvalidParam` `config` is rejected
    /// with.
    fn rejected_key(config: &ScenarioConfig) -> String {
        match config.validate() {
            Err(ComponentError::InvalidParam { component, key, .. }) if component == "scenario" => {
                key
            }
            other => panic!("expected a scenario InvalidParam, got {other:?}"),
        }
    }

    #[test]
    fn too_many_freeriders_is_rejected() {
        let mut s = ScenarioConfig::small_test(4, 0);
        s.freeriders = Some(FreeriderScenario {
            count: 4,
            degree: FreeriderConfig::uniform(0.1),
        });
        assert_eq!(rejected_key(&s), "freeriders");
    }

    #[test]
    fn malformed_scenarios_are_errors_not_panics() {
        type Edit = fn(&mut ScenarioConfig);
        let cases: [(&str, Edit); 6] = [
            ("nodes", |s| s.nodes = 2),
            ("lifting.managers", |s| s.lifting.managers = s.nodes),
            ("freeriders", |s| {
                s.freeriders = Some(FreeriderScenario {
                    count: s.nodes,
                    degree: FreeriderConfig::uniform(0.1),
                })
            }),
            ("streams", |s| s.streams.clear()),
            ("streams", |s| {
                s.streams[0] = s.streams[0].starting_after(SimDuration::from_secs(1))
            }),
            ("duration", |s| s.duration = SimDuration::ZERO),
        ];
        for (key, edit) in cases {
            let mut s = ScenarioConfig::small_test(10, 0);
            edit(&mut s);
            assert_eq!(rejected_key(&s), key);
        }
    }
}

//! The simulated network: decides, for each send, whether and when the
//! message is delivered, and accounts the traffic.

use lifting_sim::{ComponentError, NodeId, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bandwidth::{NodeCapability, UplinkState};
use crate::latency::LatencyModel;
use crate::loss::{BurstState, LossModel};
use crate::traffic::{TrafficCategory, TrafficStats};

/// Deterministic link-fault knobs applied on top of the loss model: latency
/// spikes (a message occasionally takes a detour) and duplication (a message
/// occasionally arrives twice — retransmission artifacts, routing loops).
/// Both default to off and consume RNG draws **only when enabled**, so
/// configurations without them stay bit-identical to the pre-fault runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LinkFaults {
    /// Probability that a delivered message suffers a delay spike.
    pub delay_spike_probability: f64,
    /// The extra one-way delay a spiked message incurs.
    pub delay_spike: SimDuration,
    /// Probability that a delivered message is duplicated (the copy takes an
    /// independently sampled latency).
    pub duplicate_probability: f64,
}

impl LinkFaults {
    /// Validates the knobs: both probabilities in `[0, 1]`. An error names
    /// the offending key of component `link_faults`.
    pub fn validate(&self) -> Result<(), ComponentError> {
        for (key, p) in [
            ("delay_spike_probability", self.delay_spike_probability),
            ("duplicate_probability", self.duplicate_probability),
        ] {
            ComponentError::require(
                (0.0..=1.0).contains(&p),
                "link_faults",
                key,
                format!("{p} not in [0, 1]"),
            )?;
        }
        Ok(())
    }
}

/// Static configuration of the simulated network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Loss model applied to UDP messages.
    pub loss: LossModel,
    /// One-way latency model.
    pub latency: LatencyModel,
    /// Link-fault injection knobs (delay spikes, duplication); inert by
    /// default.
    pub faults: LinkFaults,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            loss: LossModel::None,
            latency: LatencyModel::default(),
            faults: LinkFaults::default(),
        }
    }
}

impl NetworkConfig {
    /// A PlanetLab-like configuration: 4 % loss, wide-area latency spread.
    pub fn planetlab(loss: f64) -> Self {
        NetworkConfig {
            loss: LossModel::bernoulli(loss),
            latency: LatencyModel::planetlab_default(),
            ..NetworkConfig::default()
        }
    }

    /// An ideal network for pure Monte-Carlo experiments: no loss, constant
    /// small latency, unconstrained uplinks.
    pub fn ideal() -> Self {
        NetworkConfig {
            loss: LossModel::None,
            latency: LatencyModel::Constant(lifting_sim::SimDuration::from_millis(10)),
            ..NetworkConfig::default()
        }
    }
}

/// Outcome of a send decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The message will arrive at the destination at the given instant.
    Deliver {
        /// Arrival time at the destination.
        at: SimTime,
    },
    /// The message arrives twice (duplication fault): once at `at` and a
    /// second time at `duplicate_at`. Only produced when
    /// [`LinkFaults::duplicate_probability`] is non-zero.
    Duplicated {
        /// Arrival time of the original.
        at: SimTime,
        /// Arrival time of the duplicate (independently sampled latency).
        duplicate_at: SimTime,
    },
    /// The message is lost in transit and will never arrive.
    Lost,
}

impl DeliveryOutcome {
    /// True if the message is delivered (at least once).
    pub fn is_delivered(&self) -> bool {
        !matches!(self, DeliveryOutcome::Lost)
    }

    /// The arrival time of each delivered copy: the original first, then
    /// the duplicate. Empty when the message is lost.
    pub fn arrivals(self) -> impl ExactSizeIterator<Item = SimTime> {
        let (copies, at, duplicate_at) = match self {
            DeliveryOutcome::Deliver { at } => (1, at, at),
            DeliveryOutcome::Duplicated { at, duplicate_at } => (2, at, duplicate_at),
            DeliveryOutcome::Lost => (0, SimTime::ZERO, SimTime::ZERO),
        };
        [at, duplicate_at].into_iter().take(copies)
    }
}

/// The simulated network.
///
/// The network does not own the event queue: callers ask it to adjudicate a
/// send (`send`) and then schedule the resulting delivery event themselves.
/// This keeps the network reusable from unit tests without an engine.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    capabilities: Vec<NodeCapability>,
    uplinks: Vec<UplinkState>,
    cut_off: Vec<bool>,
    partitioned: Vec<bool>,
    burst: BurstState,
    stats: TrafficStats,
    rng: SmallRng,
}

impl Network {
    /// Creates a network for `n` nodes with the given configuration and seed;
    /// every node starts unconstrained (see [`set_capability`](Self::set_capability)).
    pub fn new(n: usize, config: NetworkConfig, rng: SmallRng) -> Self {
        let NetworkConfig { faults, .. } = config;
        faults.validate().expect("invalid link faults");
        Network {
            capabilities: vec![NodeCapability::unconstrained(); n],
            uplinks: vec![UplinkState::new(); n],
            cut_off: vec![false; n],
            partitioned: vec![false; n],
            burst: BurstState::default(),
            config,
            stats: TrafficStats::new(),
            rng,
        }
    }

    /// Number of nodes attached to the network.
    pub fn len(&self) -> usize {
        self.capabilities.len()
    }

    /// Heap bytes held by the per-node link state (capacity walk,
    /// deterministic).
    pub fn estimated_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.capabilities.capacity() * size_of::<NodeCapability>()
            + self.uplinks.capacity() * size_of::<UplinkState>()
            + self.cut_off.capacity()
            + self.partitioned.capacity()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.capabilities.is_empty()
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Overrides the capability of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_capability(&mut self, node: NodeId, capability: NodeCapability) {
        self.capabilities[node.index()] = capability;
    }

    /// The capability of one node.
    pub fn capability(&self, node: NodeId) -> NodeCapability {
        self.capabilities[node.index()]
    }

    /// Cuts a node off the network (or reconnects it): all traffic from and
    /// to it is dropped while cut off. The runtime cuts off departed nodes,
    /// which may later rejoin, and expelled ones, for good.
    pub fn set_cut_off(&mut self, node: NodeId, cut_off: bool) {
        self.cut_off[node.index()] = cut_off;
    }

    /// True if the node is currently cut off (departed or expelled).
    pub fn is_cut_off(&self, node: NodeId) -> bool {
        self.cut_off[node.index()]
    }

    /// Partitions a node from the rest of the network (or heals it). Unlike
    /// UDP loss, a partition is a *routing* failure: it cuts **both**
    /// transports — the audits-over-TCP plane included — and both directions.
    /// Distinct from [`set_cut_off`](Self::set_cut_off): a partitioned node
    /// is still a live member (it keeps its state and its stack keeps
    /// ticking), the network around it just fails.
    pub fn set_partitioned(&mut self, node: NodeId, partitioned: bool) {
        self.partitioned[node.index()] = partitioned;
    }

    /// True if the node is currently partitioned from the network.
    pub fn is_partitioned(&self, node: NodeId) -> bool {
        self.partitioned[node.index()]
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Adjudicates the transmission of a message of `payload_bytes` from
    /// `from` to `to`, returning when (and whether) it arrives.
    ///
    /// The transport is the category's ([`TrafficCategory::transport`]):
    /// audits over TCP, everything else over UDP.
    /// The message is accounted to `category` whatever the outcome. Cut-off
    /// endpoints, UDP loss and the sender's uplink serialization are all
    /// applied here.
    pub fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        category: TrafficCategory,
    ) -> DeliveryOutcome {
        let transport = category.transport();
        let wire_bytes = payload_bytes + transport.header_bytes();
        self.stats.record_sent(category, wire_bytes);

        if self.cut_off[from.index()] || self.cut_off[to.index()] {
            return DeliveryOutcome::Lost;
        }

        // A partition cuts every transport (TCP included) and both
        // directions, deterministically — no RNG is consumed, so runs
        // without partition waves are draw-for-draw unchanged.
        if self.partitioned[from.index()] || self.partitioned[to.index()] {
            return DeliveryOutcome::Lost;
        }

        // Uplink serialization at the sender.
        let capability = self.capabilities[from.index()];
        let leaves_at = self.uplinks[from.index()].enqueue(now, wire_bytes, &capability);

        // Loss: network-wide plus sender/receiver access-link loss, UDP only.
        if transport.is_lossy() {
            let sender_extra = capability.extra_loss;
            let receiver_extra = self.capabilities[to.index()].extra_loss;
            if self
                .config
                .loss
                .is_lost_with(&mut self.burst, &mut self.rng)
                || (sender_extra > 0.0 && self.rng.gen_bool(sender_extra.clamp(0.0, 1.0)))
                || (receiver_extra > 0.0 && self.rng.gen_bool(receiver_extra.clamp(0.0, 1.0)))
            {
                return DeliveryOutcome::Lost;
            }
        }

        let mut latency = self.config.latency.sample(from, to, &mut self.rng);
        // Per-node latency classes: the endpoints' scales stretch the sampled
        // propagation delay. Applied only when a scale differs from 1.0, so
        // class-free deployments perform no float work here and stay
        // bit-identical.
        let latency_scale = capability.latency_scale * self.capabilities[to.index()].latency_scale;
        if latency_scale != 1.0 {
            latency = SimDuration::from_secs_f64(latency.as_secs_f64() * latency_scale);
        }
        // Fault knobs consume RNG only when enabled: inert configurations
        // stay bit-identical.
        let NetworkConfig { faults, .. } = self.config;
        if faults.delay_spike_probability > 0.0 && self.rng.gen_bool(faults.delay_spike_probability)
        {
            latency += faults.delay_spike;
        }
        let at = leaves_at + latency;
        self.stats.record_delivered(category, wire_bytes);
        if faults.duplicate_probability > 0.0 && self.rng.gen_bool(faults.duplicate_probability) {
            // The copy rides the same uplink transmission (no second enqueue)
            // but takes an independently sampled network path; it is
            // accounted as an extra delivery of the same sent message.
            let mut copy_latency = self.config.latency.sample(from, to, &mut self.rng);
            if latency_scale != 1.0 {
                copy_latency =
                    SimDuration::from_secs_f64(copy_latency.as_secs_f64() * latency_scale);
            }
            let duplicate_at = leaves_at + copy_latency;
            self.stats.record_delivered(category, wire_bytes);
            return DeliveryOutcome::Duplicated { at, duplicate_at };
        }
        DeliveryOutcome::Deliver { at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::{derive_rng, SimDuration};

    fn net(n: usize, config: NetworkConfig) -> Network {
        Network::new(n, config, derive_rng(1234, 0))
    }

    #[test]
    fn ideal_network_delivers_everything() {
        let mut net = net(4, NetworkConfig::ideal());
        let mut delivered = 0;
        for i in 0..100 {
            let out = net.send(
                SimTime::ZERO,
                NodeId::new(i % 4),
                NodeId::new((i + 1) % 4),
                100,
                TrafficCategory::GossipControl,
            );
            if out.is_delivered() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 100);
    }

    #[test]
    fn arrivals_yield_the_original_then_the_duplicate() {
        let (at, duplicate_at) = (SimTime::from_micros(5), SimTime::from_micros(3));
        let arrivals = |o: DeliveryOutcome| o.arrivals().collect::<Vec<_>>();
        assert_eq!(arrivals(DeliveryOutcome::Deliver { at }), [at]);
        assert_eq!(
            arrivals(DeliveryOutcome::Duplicated { at, duplicate_at }),
            [at, duplicate_at]
        );
        assert!(arrivals(DeliveryOutcome::Lost).is_empty());
        assert_eq!(
            DeliveryOutcome::Duplicated { at, duplicate_at }
                .arrivals()
                .len(),
            2
        );
    }

    #[test]
    fn loss_applies_to_udp_but_not_tcp() {
        let config = NetworkConfig {
            loss: LossModel::bernoulli(0.5),
            latency: LatencyModel::Constant(SimDuration::from_millis(10)),
            ..NetworkConfig::default()
        };
        let mut net = net(2, config);
        let udp_delivered = (0..2000)
            .filter(|_| {
                net.send(
                    SimTime::ZERO,
                    NodeId::new(0),
                    NodeId::new(1),
                    100,
                    TrafficCategory::Verification,
                )
                .is_delivered()
            })
            .count();
        let tcp_delivered = (0..2000)
            .filter(|_| {
                net.send(
                    SimTime::ZERO,
                    NodeId::new(0),
                    NodeId::new(1),
                    100,
                    TrafficCategory::Audit,
                )
                .is_delivered()
            })
            .count();
        assert!(
            udp_delivered > 800 && udp_delivered < 1200,
            "{udp_delivered}"
        );
        assert_eq!(tcp_delivered, 2000);
    }

    #[test]
    fn expelled_nodes_are_cut_off() {
        let mut net = net(3, NetworkConfig::ideal());
        net.set_cut_off(NodeId::new(1), true);
        assert!(net.is_cut_off(NodeId::new(1)));
        let to_expelled = net.send(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            10,
            TrafficCategory::GossipControl,
        );
        let from_expelled = net.send(
            SimTime::ZERO,
            NodeId::new(1),
            NodeId::new(2),
            10,
            TrafficCategory::GossipControl,
        );
        assert_eq!(to_expelled, DeliveryOutcome::Lost);
        assert_eq!(from_expelled, DeliveryOutcome::Lost);
    }

    #[test]
    fn uplink_capacity_delays_delivery() {
        let config = NetworkConfig {
            latency: LatencyModel::Constant(SimDuration::from_millis(5)),
            ..NetworkConfig::ideal()
        };
        let mut net = net(2, config);
        // 1 Mbit/s uplink; 1222-byte payload + 28-byte header = 1250 bytes = 10 ms.
        net.set_capability(NodeId::new(0), NodeCapability::broadband(1_000_000));
        let first = net.send(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            1_222,
            TrafficCategory::StreamData,
        );
        let second = net.send(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            1_222,
            TrafficCategory::StreamData,
        );
        assert_eq!(
            first,
            DeliveryOutcome::Deliver {
                at: SimTime::from_millis(15)
            }
        );
        assert_eq!(
            second,
            DeliveryOutcome::Deliver {
                at: SimTime::from_millis(25)
            }
        );
    }

    #[test]
    fn partition_cuts_both_transports_and_heals() {
        let mut net = net(3, NetworkConfig::ideal());
        net.set_partitioned(NodeId::new(1), true);
        assert!(net.is_partitioned(NodeId::new(1)));
        // Both directions, both transports (TCP audits included).
        for (from, to, category) in [
            (0, 1, TrafficCategory::GossipControl),
            (1, 2, TrafficCategory::GossipControl),
            (0, 1, TrafficCategory::Audit),
            (1, 0, TrafficCategory::Audit),
        ] {
            let out = net.send(
                SimTime::ZERO,
                NodeId::new(from),
                NodeId::new(to),
                10,
                category,
            );
            assert_eq!(out, DeliveryOutcome::Lost, "{from}->{to} {category:?}");
        }
        net.set_partitioned(NodeId::new(1), false);
        assert!(net
            .send(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(1),
                10,
                TrafficCategory::Audit,
            )
            .is_delivered());
    }

    #[test]
    fn delay_spike_and_duplication_knobs_apply() {
        let faults = LinkFaults {
            delay_spike_probability: 1.0,
            delay_spike: SimDuration::from_millis(500),
            duplicate_probability: 1.0,
        };
        let config = NetworkConfig {
            faults,
            ..NetworkConfig::ideal()
        };
        let mut net = net(2, config);
        match net.send(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            100,
            TrafficCategory::GossipControl,
        ) {
            DeliveryOutcome::Duplicated { at, duplicate_at } => {
                // Ideal latency is a constant 10 ms; the original carries the
                // 500 ms spike, the duplicate does not.
                assert_eq!(at, SimTime::from_millis(510));
                assert_eq!(duplicate_at, SimTime::from_millis(10));
            }
            other => panic!("expected a duplicated delivery, got {other:?}"),
        }
        // The duplicate is an extra delivery of one sent message.
        let c = net.stats().category(TrafficCategory::GossipControl);
        assert_eq!(c.messages_sent, 1);
        assert_eq!(c.messages_delivered, 2);
    }

    #[test]
    fn inert_fault_knobs_consume_no_rng() {
        // Two networks, one with the (default, inert) fault section and one
        // constructed plainly: their delivery times must match draw for draw.
        let mut a = net(2, NetworkConfig::planetlab(0.07));
        let mut b = net(
            2,
            NetworkConfig {
                faults: LinkFaults::default(),
                ..NetworkConfig::planetlab(0.07)
            },
        );
        for _ in 0..200 {
            let oa = a.send(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(1),
                64,
                TrafficCategory::Verification,
            );
            let ob = b.send(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(1),
                64,
                TrafficCategory::Verification,
            );
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn traffic_is_accounted_with_headers() {
        let mut net = net(2, NetworkConfig::ideal());
        net.send(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            100,
            TrafficCategory::StreamData,
        );
        let c = net.stats().category(TrafficCategory::StreamData);
        assert_eq!(c.bytes_sent, 128);
        assert_eq!(c.messages_sent, 1);
        assert_eq!(c.bytes_delivered, 128);
    }

    #[test]
    fn lost_messages_count_as_sent_but_not_delivered() {
        let config = NetworkConfig {
            loss: LossModel::bernoulli(1.0),
            ..NetworkConfig::ideal()
        };
        let mut net = net(2, config);
        let out = net.send(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            100,
            TrafficCategory::Verification,
        );
        assert_eq!(out, DeliveryOutcome::Lost);
        let c = net.stats().category(TrafficCategory::Verification);
        assert_eq!(c.messages_sent, 1);
        assert_eq!(c.messages_delivered, 0);
    }
}

//! Run outcomes and the metrics the experiments report.

use lifting_gossip::{Chunk, StreamHealth};
use lifting_net::{TrafficCategory, TrafficReport};
use lifting_sim::{NodeId, SimDuration, SimTime, StreamId};
use serde::Serialize;

/// The planes of the node protocol stack, for per-layer traffic breakdowns
/// (the paper's Table 3 splits overhead the same way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StackLayer {
    /// Dissemination: stream data plus propose/request control traffic.
    Gossip,
    /// Direct verification and cross-checking (acks, confirms, responses).
    Verification,
    /// A-posteriori audits (history transfers and witness polls).
    Audit,
    /// Reputation management (blames to managers).
    Reputation,
    /// Peer sampling / membership maintenance.
    Membership,
}

impl StackLayer {
    /// All layers, in display order.
    pub const ALL: [StackLayer; 5] = [
        StackLayer::Gossip,
        StackLayer::Verification,
        StackLayer::Audit,
        StackLayer::Reputation,
        StackLayer::Membership,
    ];

    /// The traffic categories attributed to this layer.
    pub fn categories(self) -> &'static [TrafficCategory] {
        match self {
            StackLayer::Gossip => &[TrafficCategory::StreamData, TrafficCategory::GossipControl],
            StackLayer::Verification => &[TrafficCategory::Verification],
            StackLayer::Audit => &[TrafficCategory::Audit],
            StackLayer::Reputation => &[TrafficCategory::Blame],
            StackLayer::Membership => &[TrafficCategory::Membership],
        }
    }
}

/// Message/byte counters for one layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LayerTraffic {
    /// The layer.
    pub layer: StackLayer,
    /// Messages sent (attempted; includes messages later lost).
    pub messages_sent: u64,
    /// Bytes sent (attempted).
    pub bytes_sent: u64,
    /// Messages actually delivered.
    pub messages_delivered: u64,
    /// Bytes actually delivered.
    pub bytes_delivered: u64,
}

/// Aggregates a per-category traffic report into per-layer counters
/// (gossip vs verification vs audit vs reputation traffic).
pub fn layer_breakdown(report: &TrafficReport) -> Vec<LayerTraffic> {
    StackLayer::ALL
        .iter()
        .map(|&layer| {
            let mut traffic = LayerTraffic {
                layer,
                messages_sent: 0,
                bytes_sent: 0,
                messages_delivered: 0,
                bytes_delivered: 0,
            };
            for (category, counters) in &report.per_category {
                if layer.categories().contains(category) {
                    traffic.messages_sent += counters.messages_sent;
                    traffic.bytes_sent += counters.bytes_sent;
                    traffic.messages_delivered += counters.messages_delivered;
                    traffic.bytes_delivered += counters.bytes_delivered;
                }
            }
            traffic
        })
        .collect()
}

/// Per-node outcome at the end of a run (or at a snapshot instant).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NodeOutcome {
    /// The node.
    pub node: NodeId,
    /// Ground truth: whether the node freerides.
    pub is_freerider: bool,
    /// The node's normalized score as read from its managers with a min vote
    /// (Equation 6), if any manager has observed it.
    pub score: Option<f64>,
    /// Whether the node has been expelled from the system.
    pub expelled: bool,
}

/// Scores of the whole population at one instant.
#[derive(Debug, Clone, Serialize)]
pub struct ScoreSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Per-node outcomes (excluding the source, which is not scored).
    pub outcomes: Vec<NodeOutcome>,
}

impl ScoreSnapshot {
    /// Scores of the honest nodes (those with a score).
    pub fn honest_scores(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| !o.is_freerider)
            .filter_map(|o| o.score)
            .collect()
    }

    /// Scores of the freeriders (those with a score).
    pub fn freerider_scores(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.is_freerider)
            .filter_map(|o| o.score)
            .collect()
    }

    /// Fraction of freeriders whose score is below `eta` **or** that have been
    /// expelled (the probability of detection `α`).
    pub fn detection_rate(&self, eta: f64) -> f64 {
        let freeriders: Vec<&NodeOutcome> =
            self.outcomes.iter().filter(|o| o.is_freerider).collect();
        if freeriders.is_empty() {
            return 0.0;
        }
        let detected = freeriders
            .iter()
            .filter(|o| o.expelled || o.score.map(|s| s < eta).unwrap_or(false))
            .count();
        detected as f64 / freeriders.len() as f64
    }

    /// Fraction of honest nodes whose score is below `eta` or that have been
    /// expelled (the probability of false positives `β`).
    pub fn false_positive_rate(&self, eta: f64) -> f64 {
        let honest: Vec<&NodeOutcome> = self.outcomes.iter().filter(|o| !o.is_freerider).collect();
        if honest.is_empty() {
            return 0.0;
        }
        let flagged = honest
            .iter()
            .filter(|o| o.expelled || o.score.map(|s| s < eta).unwrap_or(false))
            .count();
        flagged as f64 / honest.len() as f64
    }
}

/// Membership dynamics observed during one run. All counters are zero for a
/// static population (no `workload` component, or partition waves only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ChurnStats {
    /// Online sessions begun: nodes that started online plus every rejoin.
    pub sessions: u64,
    /// Departures executed (steady churn plus catastrophe-wave crashes).
    pub departures: u64,
    /// Rejoins executed (steady churn plus the flash-crowd wave).
    pub rejoins: u64,
    /// Audits abandoned without a verdict, whatever the cause (see
    /// [`crate::layers::AuditOutcome::Aborted`]): a departed, expelled or
    /// partitioned witness, or a partitioned auditor or target. Despite the
    /// name, partitions count here too; the auditor-or-target share is also
    /// counted in [`crate::layers::AuditRpcStats::aborted_unreachable`].
    pub audits_aborted_by_departure: u64,
    /// Nodes offline (departed, not expelled) when the run ended.
    pub offline_at_end: usize,
}

/// What kind of disturbance a recovery wave marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WaveKind {
    /// A scheduled network partition began (a `partition-waves` wave).
    /// Reconvergence is measured from the onset, so it spans the outage plus
    /// the healing transient.
    Partition,
    /// One or more whitewashers abandoned their sessions this period (the
    /// closed-loop churn attack).
    Whitewash,
}

/// Reconvergence readout for one disturbance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WaveRecovery {
    /// What happened.
    pub kind: WaveKind,
    /// The gossip period (1-based count of completed periods) during which
    /// the disturbance struck.
    pub at_period: u64,
    /// Detection precision just before the disturbance.
    pub baseline_precision: f64,
    /// Detection recall just before the disturbance.
    pub baseline_recall: f64,
    /// Completed periods until precision **and** recall were both back
    /// within 0.05 of their pre-disturbance baselines; `None` if the run
    /// ended first.
    pub reconverged_after: Option<u64>,
}

/// Per-period detection-quality traces plus per-disturbance reconvergence
/// times — the resilience plane's headline readout. Only assembled when the
/// scenario exercises that plane (fault waves, a closed-loop adversary or the
/// online recalibration).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RecoveryReport {
    /// Detection precision (TP / (TP + FP), 1.0 when nothing is flagged) at
    /// the end of each gossip period, against the effective threshold.
    pub period_precision: Vec<f64>,
    /// Detection recall (TP / freeriders) at the end of each gossip period.
    pub period_recall: Vec<f64>,
    /// The effective detection threshold per period: the static `η`, or the
    /// online-recalibrated value when that defence is enabled.
    pub eta_trace: Vec<f64>,
    /// One entry per disturbance (fault waves, whitewash departures), in
    /// onset order.
    pub waves: Vec<WaveRecovery>,
}

/// Per-stream readout of one run: each channel's dissemination quality over
/// its own audience, plus the blame volume its verification plane produced.
#[derive(Debug, Clone, Serialize)]
pub struct StreamOutcome {
    /// The stream.
    pub stream: StreamId,
    /// Subscribers of this stream (excluding the source).
    pub subscribers: usize,
    /// Chunks the stream's source emitted during the run.
    pub emitted_chunks: usize,
    /// Stream health over the lag grid, computed over this stream's
    /// subscribers against its own reference set.
    pub stream_health: StreamHealth,
    /// Blames emitted by this stream's verification plane (cross-stream
    /// provenance; every blame lands in the shared per-node score).
    pub blames: u64,
    /// Total blame **value** this stream's verification booked (counts weigh
    /// a heavy missing-ack blame the same as a sliver of wrongful noise;
    /// values are what the scores actually sum).
    pub blame_value: f64,
    /// The part of `blame_value` booked against the misbehaving population —
    /// the per-channel footprint of the attack, separated from the wrongful
    /// noise honest nodes accrue.
    pub freerider_blame_value: f64,
}

/// Everything measured during one run.
#[derive(Debug, Clone, Serialize)]
pub struct RunOutcome {
    /// Final per-node outcomes.
    pub finals: ScoreSnapshot,
    /// Intermediate snapshots, if requested.
    pub snapshots: Vec<ScoreSnapshot>,
    /// Traffic accounting (Table 5's overhead ratio comes from here).
    pub traffic: TrafficReport,
    /// Per-layer message/byte counters: the same traffic attributed to the
    /// protocol-stack planes (Table 3's overhead breakdown).
    pub layer_traffic: Vec<LayerTraffic>,
    /// Every chunk the primary stream's source emitted (reference set for
    /// the headline stream-health curve).
    pub emitted_chunks: Vec<Chunk>,
    /// Primary-stream health over a grid of lags (Figure 1), computed at the
    /// end of the run over the chunks emitted during the measurement window.
    pub stream_health: StreamHealth,
    /// One readout per broadcast channel (a single entry mirroring
    /// `stream_health` in single-channel runs).
    pub per_stream: Vec<StreamOutcome>,
    /// Number of nodes expelled during the run.
    pub expelled_count: usize,
    /// Membership dynamics (sessions, rejoins, aborted audits).
    pub churn: ChurnStats,
    /// Hardened-confirm retry counters summed over every node and stream
    /// plane (all zero when `confirm_retries = 0`).
    pub confirm_retry: lifting_core::ConfirmRetryStats,
    /// Partition-aware audit-RPC counters (all zero when no node is ever
    /// partitioned).
    pub audit_rpc: crate::layers::AuditRpcStats,
    /// Per-period recovery traces and reconvergence times; `None` unless the
    /// scenario exercises the resilience plane.
    pub recovery: Option<RecoveryReport>,
    /// Estimated heap bytes of protocol state per node at the end of the run
    /// (deterministic capacity walk — identical across worker and shard
    /// counts; see `SystemWorld::estimated_memory_bytes`).
    pub memory_per_node_bytes: f64,
    /// Simulated duration of the run.
    pub duration: SimDuration,
}

impl RunOutcome {
    /// Detection probability at the configured threshold, using the paper's
    /// definition (score below `η` or already expelled).
    pub fn detection_rate(&self, eta: f64) -> f64 {
        self.finals.detection_rate(eta)
    }

    /// False-positive probability at the configured threshold.
    pub fn false_positive_rate(&self, eta: f64) -> f64 {
        self.finals.false_positive_rate(eta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u32, freerider: bool, score: Option<f64>, expelled: bool) -> NodeOutcome {
        NodeOutcome {
            node: NodeId::new(id),
            is_freerider: freerider,
            score,
            expelled,
        }
    }

    #[test]
    fn detection_and_false_positives_follow_the_definitions() {
        let snap = ScoreSnapshot {
            at: SimTime::from_secs(30),
            outcomes: vec![
                outcome(1, false, Some(-1.0), false),
                outcome(2, false, Some(-20.0), false), // honest but flagged
                outcome(3, false, None, false),
                outcome(4, true, Some(-30.0), false), // detected by score
                outcome(5, true, Some(-2.0), true),   // detected by expulsion
                outcome(6, true, Some(-3.0), false),  // missed
            ],
        };
        assert!((snap.detection_rate(-9.75) - 2.0 / 3.0).abs() < 1e-12);
        assert!((snap.false_positive_rate(-9.75) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(snap.honest_scores().len(), 2);
        assert_eq!(snap.freerider_scores().len(), 3);
    }

    #[test]
    fn empty_population_rates_are_zero() {
        let snap = ScoreSnapshot {
            at: SimTime::ZERO,
            outcomes: vec![],
        };
        assert_eq!(snap.detection_rate(-9.75), 0.0);
        assert_eq!(snap.false_positive_rate(-9.75), 0.0);
    }

    #[test]
    fn layer_breakdown_attributes_every_category_to_exactly_one_layer() {
        use lifting_net::{TrafficCategory, TrafficStats};
        let mut stats = TrafficStats::new();
        stats.record_sent(TrafficCategory::StreamData, 900);
        stats.record_sent(TrafficCategory::GossipControl, 100);
        stats.record_sent(TrafficCategory::Verification, 50);
        stats.record_sent(TrafficCategory::Blame, 30);
        stats.record_sent(TrafficCategory::Audit, 20);
        stats.record_delivered(TrafficCategory::StreamData, 900);
        let report = stats.report();
        let layers = layer_breakdown(&report);
        assert_eq!(layers.len(), StackLayer::ALL.len());
        let by_layer = |layer: StackLayer| layers.iter().find(|l| l.layer == layer).unwrap();
        // Gossip aggregates stream data + control; the LiFTinG planes split.
        assert_eq!(by_layer(StackLayer::Gossip).bytes_sent, 1_000);
        assert_eq!(by_layer(StackLayer::Gossip).messages_sent, 2);
        assert_eq!(by_layer(StackLayer::Gossip).bytes_delivered, 900);
        assert_eq!(by_layer(StackLayer::Verification).bytes_sent, 50);
        assert_eq!(by_layer(StackLayer::Reputation).bytes_sent, 30);
        assert_eq!(by_layer(StackLayer::Audit).bytes_sent, 20);
        assert_eq!(by_layer(StackLayer::Membership).bytes_sent, 0);
        // Nothing is double-counted: the per-layer sum equals the total.
        let total: u64 = layers.iter().map(|l| l.bytes_sent).sum();
        assert_eq!(total, report.total_bytes_sent);
        // Every category belongs to exactly one layer.
        for category in TrafficCategory::ALL {
            let owners = StackLayer::ALL
                .iter()
                .filter(|l| l.categories().contains(&category))
                .count();
            assert_eq!(owners, 1, "{category:?} must map to exactly one layer");
        }
    }
}

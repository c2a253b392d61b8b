//! Uplink-capacity modelling.
//!
//! Streaming with gossip is upload-bound: a node's contribution is the
//! bandwidth it devotes to serving chunks. We model each node's uplink as a
//! FIFO transmission queue with a fixed bit rate; a message occupies the
//! uplink for `size * 8 / rate` seconds before it starts propagating. Nodes
//! with poor capacity therefore deliver late, drop behind the stream and —
//! exactly as observed in the paper's PlanetLab runs — end up blamed even
//! though they are honest.

use lifting_sim::{SimDuration, SimTime};

/// Static capability of a node's network attachment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCapability {
    /// Uplink rate in bits per second. `None` models an unconstrained uplink.
    pub upload_bps: Option<u64>,
    /// Additional, node-specific loss probability applied on top of the
    /// network-wide loss model (models flaky access links).
    pub extra_loss: f64,
    /// Multiplier applied to the sampled propagation latency of messages this
    /// node sends or receives (access technologies differ: fiber sits close
    /// to the backbone, mobile links add tens of milliseconds). `1.0` — the
    /// default — is applied nowhere, so homogeneous deployments stay
    /// bit-identical to the pre-class network.
    pub latency_scale: f64,
}

impl NodeCapability {
    /// An unconstrained, loss-free attachment (useful for unit tests and for
    /// the pure Monte-Carlo experiments of Figures 10–13).
    pub fn unconstrained() -> Self {
        NodeCapability {
            upload_bps: None,
            extra_loss: 0.0,
            latency_scale: 1.0,
        }
    }

    /// A well-provisioned broadband node.
    pub fn broadband(upload_bps: u64) -> Self {
        NodeCapability {
            upload_bps: Some(upload_bps),
            extra_loss: 0.0,
            latency_scale: 1.0,
        }
    }

    /// A poorly connected node: low uplink and extra loss. These are the
    /// honest nodes that the paper reports as the bulk of its false positives.
    pub fn poor(upload_bps: u64, extra_loss: f64) -> Self {
        NodeCapability {
            upload_bps: Some(upload_bps),
            extra_loss,
            latency_scale: 1.0,
        }
    }
}

impl Default for NodeCapability {
    fn default() -> Self {
        NodeCapability::unconstrained()
    }
}

/// Dynamic state of a node's uplink: when the transmitter becomes free.
#[derive(Debug, Clone, Copy, Default)]
pub struct UplinkState {
    next_free: SimTime,
}

impl UplinkState {
    /// Creates an idle uplink.
    pub fn new() -> Self {
        UplinkState::default()
    }

    /// Time at which the uplink finishes everything queued so far.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Queues a transmission of `size_bytes` starting no earlier than `now`
    /// and returns the instant at which the last bit leaves the node.
    ///
    /// With an unconstrained uplink the message leaves immediately.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        size_bytes: u64,
        capability: &NodeCapability,
    ) -> SimTime {
        let start = self.next_free.max(now);
        let tx_time = match capability.upload_bps {
            None => SimDuration::ZERO,
            Some(bps) => {
                let bits = size_bytes.saturating_mul(8);
                SimDuration::from_secs_f64(bits as f64 / bps as f64)
            }
        };
        let done = start + tx_time;
        self.next_free = done;
        done
    }

    /// Current backlog relative to `now` (how long a new message would wait
    /// before its first bit is sent).
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.next_free.saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_uplink_sends_instantly() {
        let mut up = UplinkState::new();
        let cap = NodeCapability::unconstrained();
        let t = up.enqueue(SimTime::from_millis(10), 1_000_000, &cap);
        assert_eq!(t, SimTime::from_millis(10));
        assert_eq!(up.backlog(SimTime::from_millis(10)), SimDuration::ZERO);
    }

    #[test]
    fn constrained_uplink_serializes_messages() {
        let mut up = UplinkState::new();
        // 1 Mbit/s: a 1250-byte message takes 10 ms.
        let cap = NodeCapability::broadband(1_000_000);
        let t1 = up.enqueue(SimTime::ZERO, 1_250, &cap);
        let t2 = up.enqueue(SimTime::ZERO, 1_250, &cap);
        assert_eq!(t1, SimTime::from_millis(10));
        assert_eq!(t2, SimTime::from_millis(20));
        assert_eq!(up.backlog(SimTime::ZERO), SimDuration::from_millis(20));
    }

    #[test]
    fn idle_time_is_not_accumulated() {
        let mut up = UplinkState::new();
        let cap = NodeCapability::broadband(1_000_000);
        let t1 = up.enqueue(SimTime::ZERO, 1_250, &cap);
        assert_eq!(t1, SimTime::from_millis(10));
        // Uplink idles until t=100ms, then a new message starts at 100ms.
        let t2 = up.enqueue(SimTime::from_millis(100), 1_250, &cap);
        assert_eq!(t2, SimTime::from_millis(110));
    }

    #[test]
    fn poor_capability_reports_extra_loss() {
        let cap = NodeCapability::poor(256_000, 0.05);
        assert_eq!(cap.upload_bps, Some(256_000));
        assert!((cap.extra_loss - 0.05).abs() < 1e-12);
    }
}

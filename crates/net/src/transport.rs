//! Transport kinds and the per-category transport policy.

use serde::{Deserialize, Serialize};

use crate::traffic::TrafficCategory;

/// The transport used for a message.
///
/// The paper sends all dissemination and direct-verification traffic over UDP
/// (lossy, cheap) and runs a-posteriori audits over TCP (reliable, connection
/// overhead amortized over a large transfer) — see Sections 3 and 5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transport {
    /// Unreliable datagram: subject to the configured loss model.
    Udp,
    /// Reliable stream: never lost, slightly larger per-message overhead.
    Tcp,
}

impl Transport {
    /// True if messages on this transport can be lost.
    pub fn is_lossy(self) -> bool {
        matches!(self, Transport::Udp)
    }
}

/// Which transport each [`TrafficCategory`] travels over.
///
/// The paper's deployment (Section 5.3) is the default: audits are the only
/// traffic that runs over TCP, everything else is UDP. Making the mapping part
/// of [`crate::NetworkConfig`] turns "audits-over-TCP vs gossip-over-UDP" into
/// configuration instead of a hardcoded decision at every send call site, so
/// scenarios can explore e.g. reliable blame delivery without touching the
/// runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportPolicy {
    /// Transport for chunk payloads (serve messages).
    pub stream_data: Transport,
    /// Transport for propose/request control messages.
    pub gossip_control: Transport,
    /// Transport for ack/confirm/confirm-response cross-checking messages.
    pub verification: Transport,
    /// Transport for blame messages sent to reputation managers.
    pub blame: Transport,
    /// Transport for a-posteriori audit transfers (history upload, polls).
    pub audit: Transport,
    /// Transport for peer-sampling / membership maintenance traffic.
    pub membership: Transport,
}

impl Default for TransportPolicy {
    fn default() -> Self {
        TransportPolicy::paper()
    }
}

impl TransportPolicy {
    /// The paper's mapping: audits over TCP, everything else over UDP.
    pub fn paper() -> Self {
        TransportPolicy {
            stream_data: Transport::Udp,
            gossip_control: Transport::Udp,
            verification: Transport::Udp,
            blame: Transport::Udp,
            audit: Transport::Tcp,
            membership: Transport::Udp,
        }
    }

    /// The transport messages of `category` travel over.
    pub fn transport_for(&self, category: TrafficCategory) -> Transport {
        match category {
            TrafficCategory::StreamData => self.stream_data,
            TrafficCategory::GossipControl => self.gossip_control,
            TrafficCategory::Verification => self.verification,
            TrafficCategory::Blame => self.blame,
            TrafficCategory::Audit => self.audit,
            TrafficCategory::Membership => self.membership,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_is_lossy_tcp_is_not() {
        assert!(Transport::Udp.is_lossy());
        assert!(!Transport::Tcp.is_lossy());
    }

    #[test]
    fn paper_policy_sends_only_audits_over_tcp() {
        let policy = TransportPolicy::paper();
        for category in TrafficCategory::ALL {
            let expected = if category == TrafficCategory::Audit {
                Transport::Tcp
            } else {
                Transport::Udp
            };
            assert_eq!(policy.transport_for(category), expected, "{category:?}");
        }
    }
}
